(* 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000),
   with the exact exponential-rejection tail. One 64-bit word per
   attempt carries the layer index (low 8 bits), the sign (bit 8) and a
   53-bit mantissa draw (bits 11–63) with no overlap; the vast majority
   of attempts accept on a single compare with no transcendental call.
   Two front-ends share the tables: a sequential sampler over [Prng.t]
   and a counter-addressed sampler over [Counter.point] whose bits are
   a pure function of (key, point, coord). *)

let layers = 256

(* Standard 256-layer constants: [r] is the base-strip boundary, [v]
   the common strip area (each of the 256 strips, wedges and tail
   included, has area v). *)
let r = 3.6541528853610088
let v = 4.92867323399707195e-3
let inv_r = 1. /. r
let pdf x = exp (-0.5 *. x *. x)

(* Strip boundaries, decreasing: xtab.(1) = r down to xtab.(256) = 0,
   with the recurrence x_{i+1} = pdf⁻¹(v/x_i + pdf x_i) (equal strip
   areas). xtab.(0) = v / pdf r is the *virtual* width of the base
   strip, whose overhang past r stands in for the tail mass. The
   recurrence stops at x_255: x_256 is 0 by construction of (r, v), and
   computing it through the recurrence could round the log argument
   past 1 into a NaN. ytab.(i) = pdf xtab.(i); ytab.(0) is unused. *)
let xtab, ytab =
  let x = Array.make (layers + 1) 0. in
  let y = Array.make (layers + 1) 0. in
  x.(0) <- v /. pdf r;
  x.(1) <- r;
  for i = 2 to layers - 1 do
    let xi = x.(i - 1) in
    x.(i) <- sqrt (-2. *. log ((v /. xi) +. pdf xi))
  done;
  x.(layers) <- 0.;
  for i = 0 to layers do
    y.(i) <- pdf x.(i)
  done;
  (x, y)

(* A word's fields. The 53-bit mantissa becomes a float through
   [float_of_int], exact below 2⁵³ and so bitwise equal to
   [Int64.to_float] (a C call). *)
let[@inline] layer bits = Int64.to_int bits land 0xFF

(* ±1 by the sign bit: a multiply instead of a branch on a coin flip
   the predictor cannot learn. Every magnitude drawn is ≥ 0, so
   x·(−1) has the bits of −x. *)
let sign_of = [| 1.; -1. |]
let[@inline] sign bits =
  Array.unsafe_get sign_of ((Int64.to_int bits lsr 8) land 1)

let[@inline] mantissa bits =
  float_of_int (Int64.to_int (Int64.shift_right_logical bits 11))

let[@inline] u_of bits = mantissa bits *. 0x1.0p-53

(* (0, 1] so the tail's logs are finite. *)
let[@inline] upos_of bits = (mantissa bits +. 1.) *. 0x1.0p-53

let rec sample g =
  let bits = Prng.bits64 g in
  let i = layer bits in
  let x = u_of bits *. xtab.(i) in
  if x < xtab.(i + 1) then x *. sign bits
  else if i = 0 then tail g (sign bits)
  else
    let y = ytab.(i) +. (Prng.float g *. (ytab.(i + 1) -. ytab.(i))) in
    if y < pdf x then x *. sign bits else sample g

and tail g sgn =
  (* Exact tail past r: x ~ Exp(r) truncated by the Gaussian envelope
     (Marsaglia 1964). *)
  let x = -.log (upos_of (Prng.bits64 g)) *. inv_r in
  let y = -.log (upos_of (Prng.bits64 g)) in
  if y +. y >= x *. x then (r +. x) *. sgn else tail g sgn

let fill g out =
  for i = 0 to Array.length out - 1 do
    out.(i) <- sample g
  done

let vector g n =
  let out = Array.make n 0. in
  fill g out;
  out

(* Counter-addressed variant: draw [j] of coordinate [coord] is the
   word at address (key, point, coord, j); rejections walk j upward, so
   every coordinate owns an unbounded substream and the accepted value
   is a pure function of (key, point, coord).

   [word] is [Counter.bits64], inlined: a call into another module is
   never inlined when modules are compiled separately (dune's dev
   profile passes -opaque), so every such call returns a boxed int64.
   Here the mix stays in registers. *)
let[@inline] word pk coord draw =
  let open Int64 in
  let z =
    add
      (add pk (mul (of_int coord) Counter.coord_stride))
      (mul (of_int draw) Counter.draw_stride)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* The first attempt's abscissa u·x_i; the fast path accepts it when it
   lies below x_{i+1}. *)
let[@inline] abscissa bits i = u_of bits *. Array.unsafe_get xtab i

(* One whole attempt at draw [j]: the fast path, the wedge test, the
   tail, and the restarts. The callers have already seen draw 0 miss the
   fast path; recomputing its word costs less than passing a boxed
   int64. The accepted value goes to [out.(dst)] rather than being
   returned, so the fill kernel allocates nothing here either. *)
let rec settle pk ~coord j out dst =
  let bits = word pk coord j in
  let i = layer bits in
  let x = abscissa bits i in
  if x < Array.unsafe_get xtab (i + 1) then out.(dst) <- x *. sign bits
  else if i = 0 then tail_into pk ~coord (j + 1) (sign bits) out dst
  else
    let u2 = u_of (word pk coord (j + 1)) in
    let y = ytab.(i) +. (u2 *. (ytab.(i + 1) -. ytab.(i))) in
    if y < pdf x then out.(dst) <- x *. sign bits
    else settle pk ~coord (j + 2) out dst

and tail_into pk ~coord j sgn out dst =
  let x = -.log (upos_of (word pk coord j)) *. inv_r in
  let y = -.log (upos_of (word pk coord (j + 1))) in
  if y +. y >= x *. x then out.(dst) <- (r +. x) *. sgn
  else tail_into pk ~coord (j + 2) sgn out dst

let normal_at pk ~coord =
  let pk = (pk : Counter.point :> int64) in
  let bits = word pk coord 0 in
  let i = layer bits in
  let x = abscissa bits i in
  if x < Array.unsafe_get xtab (i + 1) then x *. sign bits
  else begin
    let out = [| 0. |] in
    settle pk ~coord 0 out 0;
    out.(0)
  end

(* The serving kernel: [normal_at] for a list of coordinates, with the
   mix and the fast path in one loop and nothing boxed. *)
let fill_at pk ~coords out =
  let pk = (pk : Counter.point :> int64) in
  for s = 0 to Array.length coords - 1 do
    let c = Array.unsafe_get coords s in
    let bits = word pk c 0 in
    let i = layer bits in
    let x = abscissa bits i in
    if x < Array.unsafe_get xtab (i + 1) then out.(c) <- x *. sign bits
    else settle pk ~coord:c 0 out c
  done

let tail_start = r
