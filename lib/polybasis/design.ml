open Linalg

(* A compiled term: offsets into a flat Hermite value table, so the hot
   loops dispatch once per term and the factor loop is pure float
   loads. The offset of (variable v, degree d) is
   ((v·(order+1)) + d)·stride: stride 1 addresses the per-row table of
   [matrix_rows], stride K the sample-innermost table of the streamed
   provider, where each offset is the base of a length-K slice. *)
type cterm = Const | Single of int | Pair of int * int | Many of int array

let compile_terms b ~stride =
  let ord1 = Basis.max_degree b + 1 in
  let off (v, d) = ((v * ord1) + d) * stride in
  Array.init (Basis.size b) (fun j ->
      match Basis.term b j with
      | [||] -> Const
      | [| p |] -> Single (off p)
      | [| p; q |] -> Pair (off p, off q)
      | pairs -> Many (Array.map off pairs))

let large_design_words = 1 lsl 23

let matrix_rows ?pool b samples =
  let k = Array.length samples in
  let m = Basis.size b and n = Basis.dim b in
  Array.iter
    (fun s ->
      if Array.length s <> n then
        invalid_arg "Design.matrix_rows: sample dimension mismatch")
    samples;
  (* A paper-scale design (K = 500, M = 50 403: 200 MB) is the largest
     block the program allocates. The major GC advances only with
     allocation, and the serving loop that typically runs between two
     fits allocates almost nothing, so the previous fit's dead matrix
     could still be mapped while this one's pages are touched. Collecting
     first keeps the peak at one matrix; float arrays are not scanned,
     so this costs little next to the fill. *)
  if k * m >= large_design_words then Gc.full_major ();
  (* No zero-fill: every entry is written below, and the row chunks are
     the first to touch their pages. *)
  let g = Mat.uninit k m in
  if k > 0 && m > 0 then begin
    let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
    let ord1 = Basis.max_degree b + 1 in
    let cterms = compile_terms b ~stride:1 in
    let data = g.Mat.data in
    (* Row-parallel: each chunk owns a disjoint row block of [g] and its
       own Hermite table (the [Basis.fill_tables] recurrence, flattened),
       so rows are evaluated exactly as in a sequential loop — the result
       is bitwise identical for every domain count. Entries are the
       products [1 · a · b …] of [Term.eval_tables], left to right. The
       grain keeps tiny designs on the sequential path. *)
    Parallel.Pool.parallel_for_chunks pool
      ~grain:(Parallel.Pool.grain_for ~work:m) ~lo:0 ~hi:k (fun ~lo ~hi ->
        let tbl = Array.make (max 1 (n * ord1)) 0. in
        for i = lo to hi - 1 do
          let y = samples.(i) in
          for v = 0 to n - 1 do
            Hermite.eval_all_into tbl ~pos:(v * ord1) ~deg:(ord1 - 1) y.(v)
          done;
          let base = i * m in
          for j = 0 to m - 1 do
            Array.unsafe_set data (base + j)
              (match Array.unsafe_get cterms j with
              | Const -> 1.
              | Single o -> Array.unsafe_get tbl o
              | Pair (o1, o2) ->
                  Array.unsafe_get tbl o1 *. Array.unsafe_get tbl o2
              | Many offs ->
                  let e = ref 1. in
                  for t = 0 to Array.length offs - 1 do
                    e := !e *. Array.unsafe_get tbl (Array.unsafe_get offs t)
                  done;
                  !e)
          done
        done)
  end;
  g

let matrix ?pool b samples =
  if Mat.cols samples <> Basis.dim b then
    invalid_arg "Design.matrix: sample dimension mismatch";
  matrix_rows ?pool b (Array.init (Mat.rows samples) (fun i -> Mat.row samples i))

let row = Basis.eval_point

(* Sums of squares of the columns [col0, col0 + w) of [g] over the
   rows listed in [rows] — the dense kernel of both {!column_norms} and
   the row-mapped provider views. Column-chunked; each column
   accumulates over the listed rows in order, so the result is bitwise
   identical to the sequential double loop for every domain count. *)
let view_norms ?pool g rows ~col0 ~w =
  let k = Array.length rows and gm = Mat.cols g in
  let out = Array.make w 0. in
  if k > 0 && w > 0 then begin
    let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
    Parallel.Pool.parallel_for_chunks pool
      ~grain:(Parallel.Pool.grain_for ~work:k) ~lo:0 ~hi:w (fun ~lo ~hi ->
        let data = g.Mat.data in
        for i = 0 to k - 1 do
          let base = (Array.unsafe_get rows i * gm) + col0 in
          for j = lo to hi - 1 do
            let v = Array.unsafe_get data (base + j) in
            Array.unsafe_set out j (Array.unsafe_get out j +. (v *. v))
          done
        done)
  end;
  Array.map sqrt out

let column_norms ?pool g =
  view_norms ?pool g (Array.init (Mat.rows g) Fun.id) ~col0:0 ~w:(Mat.cols g)

module Provider = struct
  type streamed = {
    basis : Basis.t;
    samples : Vec.t array;
    sk : int;  (* rows K *)
    sm : int;  (* columns M *)
    (* vtab.((v·ord1 + d)·K + i) = g_d(samples.(i).(v)): K·N·(order+1)
       floats, independent of M — the whole point of the provider. *)
    vtab : float array;
    cterms : cterm array;
    tile : int;
    (* Reusable scratch buffers (per-length free lists) checked out by
       sweep chunks and column materializations, so steady-state sweeps
       allocate nothing per iteration. *)
    scratch : (int, float array Stack.t) Hashtbl.t;
    lock : Mutex.t;
  }

  (* A row-mapped view of one shared matrix: local row i is row
     [rows.(i)] of [g], local column j is column [col0 + j]. CV folds
     ([select_rows]) and shard windows ([window]) compose the map and the
     offset instead of copying, and every kernel reads local rows in
     ascending order, so each column keeps the float sequence of the
     equivalent copied matrix. *)
  type view = { g : Mat.t; rows : int array; col0 : int; ncols : int }

  type t = Dense of view | Streamed of streamed

  let default_tile_cols = 256

  (* The same three-term recurrence as [Basis.fill_tables], evaluated
     slice-by-slice: bitwise-identical Hermite values, laid out with the
     sample index innermost so per-column sweeps read contiguously. *)
  let build_vtab b samples k =
    let n = Basis.dim b in
    let ord1 = Basis.max_degree b + 1 in
    let vtab = Array.make (n * ord1 * k) 0. in
    for v = 0 to n - 1 do
      let base = v * ord1 * k in
      for i = 0 to k - 1 do
        Array.unsafe_set vtab (base + i) 1.
      done;
      if ord1 >= 2 then
        for i = 0 to k - 1 do
          Array.unsafe_set vtab (base + k + i) samples.(i).(v)
        done;
      for d = 1 to ord1 - 2 do
        let fd = float_of_int d in
        let sd = sqrt fd and sd1 = sqrt (fd +. 1.) in
        let prev = base + (d * k)
        and prev2 = base + ((d - 1) * k)
        and cur = base + ((d + 1) * k) in
        for i = 0 to k - 1 do
          let y = samples.(i).(v) in
          Array.unsafe_set vtab (cur + i)
            (((y *. Array.unsafe_get vtab (prev + i))
             -. (sd *. Array.unsafe_get vtab (prev2 + i)))
            /. sd1)
        done
      done
    done;
    vtab

  let dense g =
    Dense
      { g; rows = Array.init (Mat.rows g) Fun.id; col0 = 0; ncols = Mat.cols g }

  let streamed ?(tile_cols = default_tile_cols) b samples =
    if tile_cols < 1 then
      invalid_arg "Design.Provider.streamed: tile_cols must be positive";
    Array.iter
      (fun s ->
        if Array.length s <> Basis.dim b then
          invalid_arg "Design.Provider.streamed: sample dimension mismatch")
      samples;
    let k = Array.length samples in
    Streamed
      {
        basis = b;
        samples;
        sk = k;
        sm = Basis.size b;
        vtab = build_vtab b samples k;
        cterms = compile_terms b ~stride:k;
        tile = tile_cols;
        scratch = Hashtbl.create 4;
        lock = Mutex.create ();
      }

  let rows = function Dense d -> Array.length d.rows | Streamed s -> s.sk

  let cols = function Dense d -> d.ncols | Streamed s -> s.sm

  let tile_cols = function
    | Dense _ -> default_tile_cols
    | Streamed s -> s.tile

  let is_streamed = function Dense _ -> false | Streamed _ -> true

  let acquire s len =
    Mutex.lock s.lock;
    let buf =
      match Hashtbl.find_opt s.scratch len with
      | Some st when not (Stack.is_empty st) -> Some (Stack.pop st)
      | _ -> None
    in
    Mutex.unlock s.lock;
    match buf with Some b -> b | None -> Array.make len 0.

  let release s buf =
    let len = Array.length buf in
    Mutex.lock s.lock;
    let st =
      match Hashtbl.find_opt s.scratch len with
      | Some st -> st
      | None ->
          let st = Stack.create () in
          Hashtbl.add s.scratch len st;
          st
    in
    Stack.push buf st;
    Mutex.unlock s.lock

  (* --- streamed per-column kernels --------------------------------- *)

  (* Column inner products ⟨g_j, r⟩ for j ∈ [lo, hi), written to
     out.(off + j − lo). Each column is generated on the fly from the
     Hermite slices and accumulated whole, over rows in ascending order
     — bitwise the dots a dense sweep produces on the materialized
     matrix. The per-column dispatch is hoisted out of the row loop. *)
  let dots_block s r out ~lo ~hi ~off =
    let k = s.sk in
    let vt = s.vtab in
    for j = lo to hi - 1 do
      let acc = ref 0. in
      (match Array.unsafe_get s.cterms j with
      | Const ->
          for i = 0 to k - 1 do
            acc := !acc +. Array.unsafe_get r i
          done
      | Single o ->
          for i = 0 to k - 1 do
            acc :=
              !acc +. (Array.unsafe_get vt (o + i) *. Array.unsafe_get r i)
          done
      | Pair (o1, o2) ->
          for i = 0 to k - 1 do
            acc :=
              !acc
              +. (Array.unsafe_get vt (o1 + i)
                  *. Array.unsafe_get vt (o2 + i)
                 *. Array.unsafe_get r i)
          done
      | Many offs ->
          for i = 0 to k - 1 do
            let e = ref 1. in
            Array.iter (fun o -> e := !e *. Array.unsafe_get vt (o + i)) offs;
            acc := !acc +. (!e *. Array.unsafe_get r i)
          done);
      out.(off + j - lo) <- !acc
    done

  let entry s j i =
    match s.cterms.(j) with
    | Const -> 1.
    | Single o -> Array.unsafe_get s.vtab (o + i)
    | Pair (o1, o2) ->
        Array.unsafe_get s.vtab (o1 + i) *. Array.unsafe_get s.vtab (o2 + i)
    | Many offs ->
        let e = ref 1. in
        Array.iter (fun o -> e := !e *. Array.unsafe_get s.vtab (o + i)) offs;
        !e

  let check_col name p j =
    if j < 0 || j >= cols p then
      invalid_arg (Printf.sprintf "Design.Provider.%s: column out of bounds" name)

  let column_into p j buf =
    check_col "column_into" p j;
    if Array.length buf <> rows p then
      invalid_arg "Design.Provider.column_into: buffer length mismatch";
    match p with
    | Dense d ->
        let gm = Mat.cols d.g and data = d.g.Mat.data and c = d.col0 + j in
        for i = 0 to Array.length d.rows - 1 do
          buf.(i) <- Array.unsafe_get data ((Array.unsafe_get d.rows i * gm) + c)
        done
    | Streamed s ->
        for i = 0 to s.sk - 1 do
          buf.(i) <- entry s j i
        done

  let column p j =
    let buf = Array.make (rows p) 0. in
    column_into p j buf;
    buf

  let col_dot p j x =
    check_col "col_dot" p j;
    if Array.length x <> rows p then
      invalid_arg "Design.Provider.col_dot: length mismatch";
    match p with
    | Dense d ->
        let gm = Mat.cols d.g and data = d.g.Mat.data and c = d.col0 + j in
        let acc = ref 0. in
        for i = 0 to Array.length d.rows - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get data ((Array.unsafe_get d.rows i * gm) + c)
               *. Array.unsafe_get x i)
        done;
        !acc
    | Streamed s ->
        let out = [| 0. |] in
        dots_block s x out ~lo:j ~hi:(j + 1) ~off:0;
        out.(0)

  let col_col_dot p i j =
    check_col "col_col_dot" p i;
    check_col "col_col_dot" p j;
    match p with
    | Dense d ->
        let gm = Mat.cols d.g and data = d.g.Mat.data in
        let ci = d.col0 + i and cj = d.col0 + j in
        let acc = ref 0. in
        for r = 0 to Array.length d.rows - 1 do
          let base = Array.unsafe_get d.rows r * gm in
          acc :=
            !acc
            +. (Array.unsafe_get data (base + ci)
               *. Array.unsafe_get data (base + cj))
        done;
        !acc
    | Streamed s ->
        let bi = acquire s s.sk and bj = acquire s s.sk in
        column_into p i bi;
        column_into p j bj;
        let d = Vec.dot bi bj in
        release s bi;
        release s bj;
        d

  (* The view as a matrix of its own: the shared matrix itself when the
     view covers all of it, else a copy of the viewed block. *)
  let materialize d =
    let k = Array.length d.rows in
    let rec identity i = i >= k || (d.rows.(i) = i && identity (i + 1)) in
    if k = Mat.rows d.g && d.col0 = 0 && d.ncols = Mat.cols d.g && identity 0
    then d.g
    else begin
      let out = Mat.uninit k d.ncols and gm = Mat.cols d.g in
      Array.iteri
        (fun i r ->
          Array.blit d.g.Mat.data ((r * gm) + d.col0) out.Mat.data (i * d.ncols)
            d.ncols)
        d.rows;
      out
    end

  let to_dense ?pool = function
    | Dense d -> materialize d
    | Streamed s -> matrix_rows ?pool s.basis s.samples

  (* A column-range view [jlo, jhi) of the provider, reindexed to
     local columns 0 … jhi−jlo−1 — the per-shard unit of the sharded
     sweep engine. Streamed windows share the parent's Hermite value
     table (it is K·N·(order+1) floats, independent of M) and slice the
     compiled terms, so creating S windows costs O(M) pointer copies,
     not S rebuilds; their basis is sliced accordingly so [to_dense] /
     [select_rows] on a window stay consistent. Column j of the window
     is generated by exactly the float sequence that produces column
     [jlo + j] of the parent, so every window kernel is bitwise equal
     to the corresponding slice of a full-provider kernel. Dense windows
     shift the view's column offset and share the matrix. *)
  let window p ~jlo ~jhi =
    if jlo < 0 || jhi > cols p || jlo >= jhi then
      invalid_arg "Design.Provider.window: column range out of bounds";
    let w = jhi - jlo in
    match p with
    | Dense d -> Dense { d with col0 = d.col0 + jlo; ncols = w }
    | Streamed s ->
        let terms = Array.init w (fun dj -> Basis.term s.basis (jlo + dj)) in
        Streamed
          {
            s with
            basis = Basis.create (Basis.dim s.basis) terms;
            sm = w;
            cterms = Array.sub s.cterms jlo w;
            scratch = Hashtbl.create 4;
            lock = Mutex.create ();
          }

  (* The provider's construction recipe, for shipping a window to
     another process: a streamed provider is (basis, samples) — the
     receiver rebuilds bitwise-identical Hermite tables from them — and
     a dense one is its (materialized) matrix. *)
  let spec = function
    | Dense d -> `Dense (materialize d)
    | Streamed s -> `Streamed (s.basis, s.samples)

  let select_rows p idx =
    match p with
    | Dense d ->
        (* Errors match those of a [Mat.select_rows] copy of the view. *)
        let k = Array.length d.rows in
        Array.iter
          (fun i ->
            if i < 0 || i >= k then
              invalid_arg "Mat.select_rows: row out of bounds")
          idx;
        Dense { d with rows = Array.map (fun i -> d.rows.(i)) idx }
    | Streamed s ->
        Array.iter
          (fun i ->
            if i < 0 || i >= s.sk then
              invalid_arg "Design.Provider.select_rows: row out of bounds")
          idx;
        streamed ~tile_cols:s.tile s.basis
          (Array.map (fun i -> s.samples.(i)) idx)

  (* Materialize the column block [jlo, jhi) into a reusable K×B tile
     (row-major within the block). This is the bounded-memory unit every
     dense-output path works in: at most K·tile_cols floats live at once
     per consumer, never K·M. *)
  let with_tile p ~jlo ~jhi f =
    if jlo < 0 || jhi > cols p || jlo > jhi then
      invalid_arg "Design.Provider.with_tile: block out of bounds";
    let k = rows p in
    let w = jhi - jlo in
    match p with
    | Dense d ->
        let tile = Array.make (max 1 (k * w)) 0. in
        let gm = Mat.cols d.g in
        for i = 0 to k - 1 do
          Array.blit d.g.Mat.data
            ((d.rows.(i) * gm) + d.col0 + jlo)
            tile (i * w) w
        done;
        f tile
    | Streamed s ->
        let tile = acquire s (max 1 (k * w)) in
        for dj = 0 to w - 1 do
          let j = jlo + dj in
          for i = 0 to k - 1 do
            Array.unsafe_set tile ((i * w) + dj) (entry s j i)
          done
        done;
        Fun.protect ~finally:(fun () -> release s tile) (fun () -> f tile)

  let columns p idx =
    let k = rows p in
    let out = Mat.create k (Array.length idx) in
    let buf = Array.make k 0. in
    Array.iteri
      (fun q j ->
        column_into p j buf;
        for i = 0 to k - 1 do
          Mat.unsafe_set out i q buf.(i)
        done)
      idx;
    out

  (* --- the blocked correlation sweeps ------------------------------ *)

  let check_r p r =
    if Array.length r <> rows p then
      invalid_arg "Design.Provider: residual length mismatch"

  (* Dense partial sweep: accumulate the [lo, hi) block of Gᵀ·r into
     [out], rows outermost so the row-major matrix streams through
     cache, with the column loop unrolled 4-wide (each column still
     accumulates over rows in ascending order — same bits as
     [Mat.col_dot], the unroll only interleaves independent columns). *)
  let dense_sweep_block d r out ~lo ~hi =
    let m = Mat.cols d.g in
    let data = d.g.Mat.data in
    for i = 0 to Array.length d.rows - 1 do
      let base = (Array.unsafe_get d.rows i * m) + d.col0 in
      let ri = Array.unsafe_get r i in
      let j = ref lo in
      while !j + 4 <= hi do
        let j0 = !j in
        Array.unsafe_set out j0
          (Array.unsafe_get out j0
          +. (Array.unsafe_get data (base + j0) *. ri));
        Array.unsafe_set out (j0 + 1)
          (Array.unsafe_get out (j0 + 1)
          +. (Array.unsafe_get data (base + j0 + 1) *. ri));
        Array.unsafe_set out (j0 + 2)
          (Array.unsafe_get out (j0 + 2)
          +. (Array.unsafe_get data (base + j0 + 2) *. ri));
        Array.unsafe_set out (j0 + 3)
          (Array.unsafe_get out (j0 + 3)
          +. (Array.unsafe_get data (base + j0 + 3) *. ri));
        j := j0 + 4
      done;
      while !j < hi do
        Array.unsafe_set out !j
          (Array.unsafe_get out !j
          +. (Array.unsafe_get data (base + !j) *. ri));
        incr j
      done
    done

  let gram_tr ?pool p r =
    check_r p r;
    let m = cols p in
    let out = Array.make m 0. in
    let pool = match pool with Some q -> q | None -> Parallel.Pool.default () in
    let grain = Parallel.Pool.grain_for ~work:(rows p) in
    (match p with
    | Dense d ->
        Parallel.Pool.parallel_for_chunks pool ~grain ~lo:0 ~hi:m
          (fun ~lo ~hi -> dense_sweep_block d r out ~lo ~hi)
    | Streamed s ->
        Parallel.Pool.parallel_for_chunks pool ~grain ~lo:0 ~hi:m
          (fun ~lo ~hi -> dots_block s r out ~lo ~hi ~off:lo));
    out

  let scan_argmax dots skip ~lo ~hi =
    let best = ref (-1) and best_abs = ref 0. in
    for j = lo to hi - 1 do
      if not skip.(j) then begin
        let c = Float.abs dots.(j - lo) in
        if c > !best_abs then begin
          best := j;
          best_abs := c
        end
      end
    done;
    (!best, !best_abs)

  let argmax_abs ?pool ~skip p r =
    check_r p r;
    let m = cols p in
    if Array.length skip <> m then
      invalid_arg "Design.Provider.argmax_abs: skip length mismatch";
    let pool = match pool with Some q -> q | None -> Parallel.Pool.default () in
    Parallel.Pool.parallel_reduce pool ?chunks:None
      ~grain:(Parallel.Pool.grain_for ~work:(rows p)) ~lo:0 ~hi:m
      ~init:(-1, 0.)
      ~fold:(fun ~lo ~hi ->
        match p with
        | Dense d ->
            (* Per-chunk dots buffer indexed from 0; each column still
               accumulates over rows in ascending order. *)
            let dots = Array.make (hi - lo) 0. in
            let mm = Mat.cols d.g in
            let data = d.g.Mat.data in
            for i = 0 to Array.length d.rows - 1 do
              let base = (Array.unsafe_get d.rows i * mm) + d.col0 + lo in
              let ri = Array.unsafe_get r i in
              for j = 0 to hi - lo - 1 do
                Array.unsafe_set dots j
                  (Array.unsafe_get dots j
                  +. (Array.unsafe_get data (base + j) *. ri))
              done
            done;
            scan_argmax dots skip ~lo ~hi
        | Streamed s ->
            let dots = acquire s (hi - lo) in
            dots_block s r dots ~lo ~hi ~off:0;
            let result = scan_argmax dots skip ~lo ~hi in
            release s dots;
            result)
      ~combine:(fun (ja, ca) (jb, cb) ->
        (* Strict > keeps the earlier chunk's winner on exact ties — the
           same column a sequential left-to-right scan would pick. *)
        if cb > ca then (jb, cb) else (ja, ca))

  (* --- fused multi-residual sweeps --------------------------------- *)

  (* The fold-parallel CV bottleneck on streamed providers is column
     *generation*: Q folds each regenerate every Hermite column per
     step. The multi kernels generate (or read) each column exactly once
     and dot it against all Q fold residuals, so generation is paid once
     per step instead of once per fold.

     Bitwise contract: fold row sets are strictly ascending, so for each
     fold the dot accumulates over exactly the rows (in the same order)
     that a sweep over [select_rows p rows.(q)] would visit, and the
     per-term product order matches [dots_block] / [entry]. The fused
     result is therefore bitwise identical to Q independent sweeps. *)

  let multi_check name p fold_rows rs =
    let nq = Array.length rs in
    if nq = 0 then
      invalid_arg (Printf.sprintf "Design.Provider.%s: no residuals" name);
    if Array.length fold_rows <> nq then
      invalid_arg
        (Printf.sprintf
           "Design.Provider.%s: fold row sets / residuals count mismatch" name);
    let k = rows p in
    Array.iteri
      (fun q idx ->
        if Array.length rs.(q) <> Array.length idx then
          invalid_arg
            (Printf.sprintf "Design.Provider.%s: residual length mismatch" name);
        let prev = ref (-1) in
        Array.iter
          (fun i ->
            if i <= !prev || i >= k then
              invalid_arg
                (Printf.sprintf
                   "Design.Provider.%s: fold rows must be strictly \
                    ascending and in range"
                   name);
            prev := i)
          idx)
      fold_rows

  (* Streamed block: materialize column j once into a K-length scratch
     buffer, then one ascending-row dot per fold against its residual.
     Const columns skip materialization and sum the residual directly —
     the exact float sequence [dots_block] produces for them. *)
  let multi_block_streamed s fold_rows rs ~lo ~hi ~emit =
    let k = s.sk in
    let vt = s.vtab in
    let nq = Array.length rs in
    let buf = acquire s (max 1 k) in
    for j = lo to hi - 1 do
      let ct = Array.unsafe_get s.cterms j in
      (match ct with
      | Const -> ()
      | Single o ->
          for i = 0 to k - 1 do
            Array.unsafe_set buf i (Array.unsafe_get vt (o + i))
          done
      | Pair (o1, o2) ->
          for i = 0 to k - 1 do
            Array.unsafe_set buf i
              (Array.unsafe_get vt (o1 + i) *. Array.unsafe_get vt (o2 + i))
          done
      | Many offs ->
          for i = 0 to k - 1 do
            let e = ref 1. in
            Array.iter (fun o -> e := !e *. Array.unsafe_get vt (o + i)) offs;
            Array.unsafe_set buf i !e
          done);
      for q = 0 to nq - 1 do
        let idx = Array.unsafe_get fold_rows q in
        let r = Array.unsafe_get rs q in
        let n = Array.length r in
        let acc = ref 0. in
        (match ct with
        | Const ->
            for i = 0 to n - 1 do
              acc := !acc +. Array.unsafe_get r i
            done
        | _ ->
            for i = 0 to n - 1 do
              acc :=
                !acc
                +. (Array.unsafe_get buf (Array.unsafe_get idx i)
                   *. Array.unsafe_get r i)
            done);
        emit q j !acc
      done
    done;
    release s buf

  (* Dense block: read each stored column once per fold via direct
     row-major indexing — same ascending-row accumulation. [bases.(q)]
     holds fold q's rows composed through the view's row map, as offsets
     of local column 0 in the shared matrix. *)
  let multi_block_dense data bases rs ~lo ~hi ~emit =
    let nq = Array.length rs in
    for j = lo to hi - 1 do
      for q = 0 to nq - 1 do
        let base = Array.unsafe_get bases q in
        let r = Array.unsafe_get rs q in
        let n = Array.length r in
        let acc = ref 0. in
        for i = 0 to n - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get data (Array.unsafe_get base i + j)
               *. Array.unsafe_get r i)
        done;
        emit q j !acc
      done
    done

  let multi_block p fold_rows rs =
    match p with
    | Dense d ->
        let gm = Mat.cols d.g in
        let bases =
          Array.map (Array.map (fun i -> (d.rows.(i) * gm) + d.col0)) fold_rows
        in
        multi_block_dense d.g.Mat.data bases rs
    | Streamed s -> multi_block_streamed s fold_rows rs

  let gram_tr_multi ?pool p ~rows:fold_rows rs =
    multi_check "gram_tr_multi" p fold_rows rs;
    let m = cols p in
    let nq = Array.length rs in
    let outs = Array.init nq (fun _ -> Array.make m 0.) in
    let pool = match pool with Some q -> q | None -> Parallel.Pool.default () in
    let block = multi_block p fold_rows rs in
    Parallel.Pool.parallel_for_chunks pool
      ~grain:(Parallel.Pool.grain_for ~work:(rows p * (nq + 1)))
      ~lo:0 ~hi:m
      (fun ~lo ~hi -> block ~lo ~hi ~emit:(fun q j acc -> outs.(q).(j) <- acc));
    outs

  let argmax_abs_multi ?pool ~skips p ~rows:fold_rows rs =
    multi_check "argmax_abs_multi" p fold_rows rs;
    let m = cols p in
    let nq = Array.length rs in
    if Array.length skips <> nq then
      invalid_arg "Design.Provider.argmax_abs_multi: skip mask count mismatch";
    Array.iter
      (fun sk ->
        if Array.length sk <> m then
          invalid_arg "Design.Provider.argmax_abs_multi: skip length mismatch")
      skips;
    let pool = match pool with Some q -> q | None -> Parallel.Pool.default () in
    let block = multi_block p fold_rows rs in
    Parallel.Pool.parallel_reduce pool ?chunks:None
      ~grain:(Parallel.Pool.grain_for ~work:(rows p * (nq + 1)))
      ~lo:0 ~hi:m
      ~init:(Array.make nq (-1, 0.))
      ~fold:(fun ~lo ~hi ->
        let best = Array.make nq (-1, 0.) in
        let emit q j acc =
          if not (Array.unsafe_get skips.(q) j) then begin
            let c = Float.abs acc in
            let _, b = best.(q) in
            if c > b then best.(q) <- (j, c)
          end
        in
        block ~lo ~hi ~emit;
        best)
      ~combine:(fun a b ->
        (* Strict > per fold keeps the earlier chunk's winner on exact
           ties — same rule as the single-residual [argmax_abs]. *)
        Array.init nq (fun q ->
            let (_, ca) as xa = a.(q) and (_, cb) as xb = b.(q) in
            if cb > ca then xb else xa))

  let column_norms ?pool p =
    match p with
    | Dense d -> view_norms ?pool d.g d.rows ~col0:d.col0 ~w:d.ncols
    | Streamed s ->
        let out = Array.make s.sm 0. in
        let pool =
          match pool with Some q -> q | None -> Parallel.Pool.default ()
        in
        Parallel.Pool.parallel_for_chunks pool
          ~grain:(Parallel.Pool.grain_for ~work:s.sk) ~lo:0 ~hi:s.sm
          (fun ~lo ~hi ->
            (* [entry]'s float sequence with the per-column dispatch
               hoisted out of the row loop, as in [dots_block]. *)
            let k = s.sk and vt = s.vtab in
            for j = lo to hi - 1 do
              let acc = ref 0. in
              (match Array.unsafe_get s.cterms j with
              | Const ->
                  for _ = 0 to k - 1 do
                    acc := !acc +. 1.
                  done
              | Single o ->
                  for i = 0 to k - 1 do
                    let v = Array.unsafe_get vt (o + i) in
                    acc := !acc +. (v *. v)
                  done
              | Pair (o1, o2) ->
                  for i = 0 to k - 1 do
                    let v =
                      Array.unsafe_get vt (o1 + i) *. Array.unsafe_get vt (o2 + i)
                    in
                    acc := !acc +. (v *. v)
                  done
              | Many offs ->
                  for i = 0 to k - 1 do
                    let e = ref 1. in
                    Array.iter
                      (fun o -> e := !e *. Array.unsafe_get vt (o + i))
                      offs;
                    acc := !acc +. (!e *. !e)
                  done);
              out.(j) <- sqrt !acc
            done);
        out

  module Cache = struct
    type provider = t

    type t = { src : provider; tbl : (int, Vec.t) Hashtbl.t }

    let create src = { src; tbl = Hashtbl.create 64 }

    let column c j =
      match Hashtbl.find_opt c.tbl j with
      | Some col -> col
      | None ->
          let col = column c.src j in
          Hashtbl.add c.tbl j col;
          col

    let col_dot c j x = Vec.dot (column c j) x

    let col_col_dot c i j = Vec.dot (column c i) (column c j)
  end
end
