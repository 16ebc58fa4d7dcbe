type t = { rows : int; cols : int; data : float array }

let check_dims r c =
  if r < 0 || c < 0 then invalid_arg "Mat: negative dimension"

let create r c =
  check_dims r c;
  { rows = r; cols = c; data = Array.make (r * c) 0. }

let uninit r c =
  check_dims r c;
  { rows = r; cols = c; data = Array.create_float (r * c) }

let init r c f =
  check_dims r c;
  let data = Array.make (r * c) 0. in
  for i = 0 to r - 1 do
    let base = i * c in
    for j = 0 to c - 1 do
      data.(base + j) <- f i j
    done
  done;
  { rows = r; cols = c; data }

let of_arrays rows_arr =
  let r = Array.length rows_arr in
  if r = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let c = Array.length rows_arr.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> c then
          invalid_arg "Mat.of_arrays: ragged rows")
      rows_arr;
    init r c (fun i j -> rows_arr.(i).(j))
  end

let to_arrays a =
  Array.init a.rows (fun i -> Array.sub a.data (i * a.cols) a.cols)

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let copy a = { a with data = Array.copy a.data }

let dims a = (a.rows, a.cols)

let rows a = a.rows

let cols a = a.cols

let check_index a i j =
  if i < 0 || i >= a.rows || j < 0 || j >= a.cols then
    invalid_arg
      (Printf.sprintf "Mat: index (%d,%d) out of bounds for %dx%d" i j a.rows
         a.cols)

let get a i j =
  check_index a i j;
  a.data.((i * a.cols) + j)

let set a i j v =
  check_index a i j;
  a.data.((i * a.cols) + j) <- v

let unsafe_get a i j = Array.unsafe_get a.data ((i * a.cols) + j)

let unsafe_set a i j v = Array.unsafe_set a.data ((i * a.cols) + j) v

let row a i =
  if i < 0 || i >= a.rows then invalid_arg "Mat.row: out of bounds";
  Array.sub a.data (i * a.cols) a.cols

let col a j =
  if j < 0 || j >= a.cols then invalid_arg "Mat.col: out of bounds";
  Array.init a.rows (fun i -> a.data.((i * a.cols) + j))

let set_row a i v =
  if i < 0 || i >= a.rows then invalid_arg "Mat.set_row: out of bounds";
  if Array.length v <> a.cols then invalid_arg "Mat.set_row: length mismatch";
  Array.blit v 0 a.data (i * a.cols) a.cols

let set_col a j v =
  if j < 0 || j >= a.cols then invalid_arg "Mat.set_col: out of bounds";
  if Array.length v <> a.rows then invalid_arg "Mat.set_col: length mismatch";
  for i = 0 to a.rows - 1 do
    a.data.((i * a.cols) + j) <- v.(i)
  done

let transpose a = init a.cols a.rows (fun i j -> unsafe_get a j i)

let check_same_shape name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)" name a.rows
         a.cols b.rows b.cols)

let add a b =
  check_same_shape "add" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub a b =
  check_same_shape "sub" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

let smul s a = { a with data = Array.map (fun x -> s *. x) a.data }

let mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.mul: inner dimension mismatch (%dx%d · %dx%d)"
         a.rows a.cols b.rows b.cols);
  let c = create a.rows b.cols in
  (* i-k-j loop order: the inner loop walks rows of [b] and [c]
     contiguously, which matters for large design matrices. *)
  for i = 0 to a.rows - 1 do
    let arow = i * a.cols in
    let crow = i * b.cols in
    for k = 0 to a.cols - 1 do
      let aik = a.data.(arow + k) in
      if aik <> 0. then begin
        let brow = k * b.cols in
        for j = 0 to b.cols - 1 do
          c.data.(crow + j) <- c.data.(crow + j) +. (aik *. b.data.(brow + j))
        done
      end
    done
  done;
  c

let mulv a x =
  if a.cols <> Array.length x then
    invalid_arg "Mat.mulv: dimension mismatch";
  let y = Array.make a.rows 0. in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    let acc = ref 0. in
    for j = 0 to a.cols - 1 do
      acc := !acc +. (a.data.(base + j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

let tmulv a x =
  if a.rows <> Array.length x then
    invalid_arg "Mat.tmulv: dimension mismatch";
  let y = Array.make a.cols 0. in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    let xi = x.(i) in
    if xi <> 0. then
      for j = 0 to a.cols - 1 do
        y.(j) <- y.(j) +. (a.data.(base + j) *. xi)
      done
  done;
  y

let gram a =
  let n = a.cols in
  let g = create n n in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    for p = 0 to n - 1 do
      let v = a.data.(base + p) in
      if v <> 0. then
        for q = p to n - 1 do
          g.data.((p * n) + q) <- g.data.((p * n) + q) +. (v *. a.data.(base + q))
        done
    done
  done;
  for p = 0 to n - 1 do
    for q = p + 1 to n - 1 do
      g.data.((q * n) + p) <- g.data.((p * n) + q)
    done
  done;
  g

let col_dot a j x =
  if j < 0 || j >= a.cols then invalid_arg "Mat.col_dot: column out of bounds";
  if Array.length x <> a.rows then invalid_arg "Mat.col_dot: length mismatch";
  let acc = ref 0. in
  let idx = ref j in
  for i = 0 to a.rows - 1 do
    acc := !acc +. (a.data.(!idx) *. x.(i));
    idx := !idx + a.cols
  done;
  !acc

let col_col_dot a i j =
  if i < 0 || i >= a.cols || j < 0 || j >= a.cols then
    invalid_arg "Mat.col_col_dot: column out of bounds";
  let acc = ref 0. in
  let ii = ref i and jj = ref j in
  for _ = 0 to a.rows - 1 do
    acc :=
      !acc
      +. (Array.unsafe_get a.data !ii *. Array.unsafe_get a.data !jj);
    ii := !ii + a.cols;
    jj := !jj + a.cols
  done;
  !acc

let col_sub_dot a j k x =
  if j < 0 || j >= a.cols then invalid_arg "Mat.col_sub_dot: column out of bounds";
  if k < 0 || k > a.rows || k > Array.length x then
    invalid_arg "Mat.col_sub_dot: prefix length out of bounds";
  let acc = ref 0. in
  let idx = ref j in
  for i = 0 to k - 1 do
    acc := !acc +. (a.data.(!idx) *. x.(i));
    idx := !idx + a.cols
  done;
  !acc

let select_cols a idx =
  Array.iter
    (fun j ->
      if j < 0 || j >= a.cols then
        invalid_arg "Mat.select_cols: column out of bounds")
    idx;
  init a.rows (Array.length idx) (fun i p -> unsafe_get a i idx.(p))

let select_rows a idx =
  Array.iter
    (fun i ->
      if i < 0 || i >= a.rows then
        invalid_arg "Mat.select_rows: row out of bounds")
    idx;
  let out = create (Array.length idx) a.cols in
  Array.iteri
    (fun p i -> Array.blit a.data (i * a.cols) out.data (p * a.cols) a.cols)
    idx;
  out

let cols_gram a idx =
  let m = Array.length idx in
  Array.iter
    (fun j ->
      if j < 0 || j >= a.cols then
        invalid_arg "Mat.cols_gram: column out of bounds")
    idx;
  let g = create m m in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    for p = 0 to m - 1 do
      let v = a.data.(base + idx.(p)) in
      if v <> 0. then
        for q = p to m - 1 do
          g.data.((p * m) + q) <- g.data.((p * m) + q) +. (v *. a.data.(base + idx.(q)))
        done
    done
  done;
  for p = 0 to m - 1 do
    for q = p + 1 to m - 1 do
      g.data.((q * m) + p) <- g.data.((p * m) + q)
    done
  done;
  g

let frobenius a = Vec.nrm2 a.data

let max_abs a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. a.data

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && Vec.approx_equal ~tol a.data b.data

let is_symmetric ?(tol = 1e-9) a =
  a.rows = a.cols
  &&
  let ok = ref true in
  for i = 0 to a.rows - 1 do
    for j = i + 1 to a.cols - 1 do
      if Float.abs (unsafe_get a i j -. unsafe_get a j i) > tol then ok := false
    done
  done;
  !ok

let pp fmt a =
  Format.fprintf fmt "@[<v>%dx%d matrix@," a.rows a.cols;
  let show_r = min a.rows 8 and show_c = min a.cols 8 in
  for i = 0 to show_r - 1 do
    Format.fprintf fmt "[";
    for j = 0 to show_c - 1 do
      if j > 0 then Format.fprintf fmt "; ";
      Format.fprintf fmt "%10.4g" (unsafe_get a i j)
    done;
    if a.cols > show_c then Format.fprintf fmt "; ...";
    Format.fprintf fmt "]@,"
  done;
  if a.rows > show_r then Format.fprintf fmt "...@,";
  Format.fprintf fmt "@]"
