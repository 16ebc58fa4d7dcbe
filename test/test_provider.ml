(* The matrix-free design provider: every kernel must return the same
   bits whether the design matrix is materialized (Dense) or generated
   on demand from Hermite tables (Streamed), at every domain count. *)
open Test_util
module P = Polybasis.Design.Provider

let pool_counts = [ 1; 2; 4 ]

let with_pools f = List.map (fun d -> Parallel.Pool.with_pool ~domains:d f) pool_counts

let all_equal msg = function
  | [] | [ _ ] -> ()
  | ref :: rest ->
      List.iteri
        (fun i x ->
          check_bool
            (Printf.sprintf "%s: domains=%d equals domains=1" msg
               (List.nth pool_counts (i + 1)))
            true (x = ref))
        rest

(* A random small problem: quadratic basis most of the time, a degree-3
   basis sometimes so that Many-factor terms and the order-3 Hermite
   recurrence are exercised. *)
let random_setting seed =
  let rng = Randkit.Prng.create seed in
  let dim = 3 + Randkit.Prng.int rng 3 in
  let basis =
    if Randkit.Prng.int rng 3 = 0 then Polybasis.Basis.total_degree dim 3
    else Polybasis.Basis.quadratic dim
  in
  let k = 15 + Randkit.Prng.int rng 20 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng dim) in
  let g = Parallel.Pool.with_pool ~domains:1 (fun pool ->
      Polybasis.Design.matrix_rows ~pool basis pts)
  in
  (rng, basis, pts, g)

(* --- entry-level equality ------------------------------------------ *)

let prop_to_dense_bitwise seed =
  let _, basis, pts, g = random_setting seed in
  let src = P.streamed basis pts in
  let dense_arrays =
    with_pools (fun pool -> Linalg.Mat.to_arrays (P.to_dense ~pool src))
  in
  all_equal "streamed to_dense bits" dense_arrays;
  check_bool "streamed to_dense == matrix_rows" true
    (Linalg.Mat.to_arrays g = List.hd dense_arrays);
  true

let prop_columns_bitwise seed =
  let rng, basis, pts, g = random_setting seed in
  let src = P.streamed basis pts in
  let m = P.cols src in
  for _ = 1 to 8 do
    let j = Randkit.Prng.int rng m in
    check_bool "column == Mat.col" true (P.column src j = Linalg.Mat.col g j)
  done;
  let cache = P.Cache.create src in
  let j = Randkit.Prng.int rng m in
  check_bool "Cache.column == Mat.col" true
    (P.Cache.column cache j = Linalg.Mat.col g j);
  true

let prop_sweeps_bitwise seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let src_d = P.dense g in
  let k = P.rows src_s and m = P.cols src_s in
  let r = Randkit.Gaussian.vector rng k in
  let skip = Array.init m (fun _ -> Randkit.Prng.int rng 4 = 0) in
  let sweeps =
    with_pools (fun pool ->
        ( Rsm.Corr_sweep.gram_tr ~pool src_d r,
          Rsm.Corr_sweep.gram_tr ~pool src_s r,
          Rsm.Corr_sweep.argmax_abs ~pool ~skip src_d r,
          Rsm.Corr_sweep.argmax_abs ~pool ~skip src_s r ))
  in
  all_equal "sweep bits across domains" sweeps;
  List.iter
    (fun (gd, gs, ad, as_) ->
      check_bool "gram_tr dense == streamed" true (gd = gs);
      check_bool "argmax dense == streamed" true (ad = as_))
    sweeps;
  true

let prop_column_norms_bitwise seed =
  let _, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let norms =
    with_pools (fun pool ->
        ( Polybasis.Design.column_norms ~pool g,
          P.column_norms ~pool (P.dense g),
          P.column_norms ~pool src_s ))
  in
  all_equal "column norm bits across domains" norms;
  List.iter
    (fun (a, b, c) ->
      check_bool "pooled matrix norms == dense provider" true (a = b);
      check_bool "dense norms == streamed norms" true (a = c))
    norms;
  true

(* --- solver paths --------------------------------------------------- *)

let sparse_response rng src =
  let k = P.rows src and m = P.cols src in
  let f = Array.init k (fun _ -> 0.05 *. Randkit.Gaussian.sample rng) in
  List.iter
    (fun j ->
      let col = P.column src j in
      for i = 0 to k - 1 do
        f.(i) <- f.(i) +. col.(i)
      done)
    [ 1 mod m; m / 2; m - 1 ];
  f

let model_bits (m : Rsm.Model.t) = (m.Rsm.Model.support, Array.copy m.Rsm.Model.coeffs)

let prop_omp_dense_eq_streamed seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let f = sparse_response rng src_s in
  let lambda = min 6 (min (P.rows src_s) (P.cols src_s)) in
  let fits =
    with_pools (fun pool ->
        ( model_bits (Rsm.Omp.fit ~pool g f ~lambda),
          model_bits (Rsm.Omp.fit_p ~pool src_s f ~lambda) ))
  in
  all_equal "OMP bits across domains" fits;
  List.iter
    (fun (d, s) -> check_bool "OMP dense == streamed" true (d = s))
    fits;
  true

let prop_star_dense_eq_streamed seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let f = sparse_response rng src_s in
  let lambda = min 6 (P.cols src_s) in
  let fits =
    with_pools (fun pool ->
        ( model_bits (Rsm.Star.fit ~pool g f ~lambda),
          model_bits (Rsm.Star.fit_p ~pool src_s f ~lambda) ))
  in
  all_equal "STAR bits across domains" fits;
  List.iter
    (fun (d, s) -> check_bool "STAR dense == streamed" true (d = s))
    fits;
  true

let prop_lars_dense_eq_streamed seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let f = sparse_response rng src_s in
  let lambda = min 5 (min (P.rows src_s) (P.cols src_s)) in
  let fits =
    with_pools (fun pool ->
        ( model_bits (Rsm.Lars.fit ~mode:Rsm.Lars.Lar ~pool g f ~lambda),
          model_bits (Rsm.Lars.fit_p ~mode:Rsm.Lars.Lar ~pool src_s f ~lambda)
        ))
  in
  all_equal "LAR bits across domains" fits;
  List.iter
    (fun (d, s) -> check_bool "LAR dense == streamed" true (d = s))
    fits;
  true

let prop_cv_dense_eq_streamed seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let f = sparse_response rng src_s in
  let results =
    with_pools (fun pool ->
        let rd =
          Rsm.Select.omp ~pool (Randkit.Prng.create (seed + 1)) ~max_lambda:5 g
            f
        in
        let rs =
          Rsm.Select.omp_p ~pool
            (Randkit.Prng.create (seed + 1))
            ~max_lambda:5 src_s f
        in
        ( (rd.Rsm.Select.lambda, Array.copy rd.Rsm.Select.curve,
           model_bits rd.Rsm.Select.model),
          (rs.Rsm.Select.lambda, Array.copy rs.Rsm.Select.curve,
           model_bits rs.Rsm.Select.model) ))
  in
  all_equal "CV bits across domains" results;
  List.iter
    (fun (d, s) -> check_bool "CV dense == streamed" true (d = s))
    results;
  true

let prop_select_rows_bitwise seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let k = P.rows src_s in
  let idx =
    Array.init (max 1 (k / 2)) (fun _ -> Randkit.Prng.int rng k)
  in
  let sub_d = Linalg.Mat.select_rows g idx in
  let sub_s = P.select_rows src_s idx in
  check_bool "select_rows streamed == dense" true
    (Linalg.Mat.to_arrays sub_d
    = Linalg.Mat.to_arrays
        (Parallel.Pool.with_pool ~domains:1 (fun pool ->
             P.to_dense ~pool sub_s)));
  true

(* --- row-mapped dense views ------------------------------------------ *)

(* A view chain applied twice: to the provider (views sharing [g]) and
   to a reference matrix by explicit copies — [Mat.select_rows] for a
   row subset, an entry-by-entry block copy for a column window. *)
type view_op = Rows of int array | Win of int * int

let apply_op p = function
  | Rows idx -> P.select_rows p idx
  | Win (jlo, jhi) -> P.window p ~jlo ~jhi

let copy_op g = function
  | Rows idx -> Linalg.Mat.select_rows g idx
  | Win (jlo, jhi) ->
      Linalg.Mat.init (Linalg.Mat.rows g) (jhi - jlo) (fun i j ->
          Linalg.Mat.get g i (jlo + j))

(* A random op on a k×m operand: row subsets are unsorted and may repeat
   rows; windows are non-empty column ranges. *)
let random_op rng ~k ~m = function
  | `Rows ->
      Rows
        (Array.init (1 + Randkit.Prng.int rng k) (fun _ ->
             Randkit.Prng.int rng k))
  | `Win ->
      let jlo = Randkit.Prng.int rng m in
      Win (jlo, jlo + 1 + Randkit.Prng.int rng (m - jlo))

let view_chains =
  [ [ `Rows ]; [ `Rows; `Rows ]; [ `Rows; `Win ]; [ `Win; `Rows ];
    [ `Win; `Rows; `Win; `Rows ] ]

(* Every kernel's output on one provider, as comparable values. *)
let kernel_outputs rng pool p =
  let k = P.rows p and m = P.cols p in
  let r = Randkit.Gaussian.vector rng k in
  let skip = Array.init m (fun _ -> Randkit.Prng.int rng 4 = 0) in
  let j = Randkit.Prng.int rng m and j' = Randkit.Prng.int rng m in
  let jlo = Randkit.Prng.int rng m in
  let jhi = jlo + Randkit.Prng.int rng (m - jlo + 1) in
  let buf = Array.make k 0. in
  P.column_into p j buf;
  (* Two ascending folds over the provider's rows, as CV builds them. *)
  let folds =
    List.filter
      (fun f -> f <> [||])
      [ Array.init ((k + 1) / 2) (fun i -> 2 * i);
        Array.init (k / 2) (fun i -> (2 * i) + 1) ]
    |> Array.of_list
  in
  let rs =
    Array.map (fun f -> Randkit.Gaussian.vector rng (Array.length f)) folds
  in
  let skips = Array.map (fun _ -> skip) folds in
  let cache = P.Cache.create p in
  let spec =
    match P.spec p with
    | `Dense g -> Linalg.Mat.to_arrays g
    | `Streamed _ -> [||]
  in
  ( ( P.gram_tr ~pool p r,
      P.argmax_abs ~pool ~skip p r,
      P.column_norms ~pool p,
      P.gram_tr_multi ~pool p ~rows:folds rs,
      P.argmax_abs_multi ~pool ~skips p ~rows:folds rs ),
    ( buf,
      P.column p j',
      Linalg.Mat.to_arrays (P.columns p [| j; j'; j |]),
      P.col_dot p j r,
      P.col_col_dot p j j',
      (P.Cache.col_dot cache j r, P.Cache.col_col_dot cache j j') ),
    ( P.with_tile p ~jlo ~jhi Array.copy,
      Linalg.Mat.to_arrays (P.to_dense ~pool p),
      spec,
      Linalg.Mat.to_arrays (P.to_dense (P.window p ~jlo:j ~jhi:m)) ) )

let prop_views_bitwise seed =
  let rng, _, _, g = random_setting seed in
  List.iter
    (fun chain ->
      let p = ref (P.dense g) and ref_g = ref g in
      List.iter
        (fun kind ->
          let op =
            random_op rng ~k:(Linalg.Mat.rows !ref_g)
              ~m:(Linalg.Mat.cols !ref_g) kind
          in
          p := apply_op !p op;
          ref_g := copy_op !ref_g op)
        chain;
      check_int "view rows" (Linalg.Mat.rows !ref_g) (P.rows !p);
      check_int "view cols" (Linalg.Mat.cols !ref_g) (P.cols !p);
      let kseed = Randkit.Prng.int rng 1_000_000 in
      let outs which =
        with_pools (fun pool ->
            kernel_outputs (Randkit.Prng.create kseed) pool which)
      in
      let on_view = outs !p and on_copy = outs (P.dense !ref_g) in
      all_equal "view kernel bits across domains" on_view;
      List.iter2
        (fun v c ->
          check_bool "view kernels == kernels on the row copy" true (v = c))
        on_view on_copy)
    view_chains;
  true

(* Views and row copies reject the same out-of-range requests with the
   same messages. *)
let test_view_errors () =
  let rng = rng () in
  let g = Randkit.Gaussian.matrix rng 10 7 in
  let idx = [| 7; 2; 2; 9 |] in
  let view = P.select_rows (P.dense g) idx in
  let copy = P.dense (Linalg.Mat.select_rows g idx) in
  let error f =
    match f () with _ -> None | exception Invalid_argument m -> Some m
  in
  List.iter
    (fun (what, f) ->
      let e = error (fun () -> f view) in
      check_bool (what ^ ": raises") true (e <> None);
      check_bool (what ^ ": same message") true (e = error (fun () -> f copy)))
    [
      ("select_rows past the end", fun p -> ignore (P.select_rows p [| 0; 4 |]));
      ("select_rows negative", fun p -> ignore (P.select_rows p [| -1 |]));
      ("window past the end", fun p -> ignore (P.window p ~jlo:3 ~jhi:8));
      ("empty window", fun p -> ignore (P.window p ~jlo:2 ~jhi:2));
      ("column out of bounds", fun p -> ignore (P.column p 7));
      ("col_dot length", fun p -> ignore (P.col_dot p 0 (Array.make 10 1.)));
      ("col_col_dot column", fun p -> ignore (P.col_col_dot p 0 (-1)));
      ("with_tile block", fun p -> P.with_tile p ~jlo:0 ~jhi:8 ignore);
      ("gram_tr length", fun p -> ignore (P.gram_tr p (Array.make 10 1.)));
      ( "multi rows out of range",
        fun p ->
          ignore (P.gram_tr_multi p ~rows:[| [| 0; 4 |] |] [| [| 1.; 1. |] |])
      );
    ];
  (* The Mat-level message a dense row copy has always raised. *)
  check_bool "select_rows message" true
    (error (fun () -> P.select_rows view [| 4 |])
    = Some "Mat.select_rows: row out of bounds")

(* The compiled-term builder equals the term-by-term evaluator row by
   row, bit for bit, for every kind of term (Const, Single, Pair, Many)
   and for a dim-0 basis, at every domain count. *)
let test_matrix_rows_matches_eval_point () =
  let rng = rng () in
  List.iter
    (fun (name, basis) ->
      let dim = Polybasis.Basis.dim basis in
      let pts = Array.init 23 (fun _ -> Randkit.Gaussian.vector rng dim) in
      let expected = Array.map (Polybasis.Basis.eval_point basis) pts in
      List.iter
        (fun got ->
          check_bool (name ^ ": matrix_rows == eval_point per row") true
            (Linalg.Mat.to_arrays got = expected))
        (with_pools (fun pool -> Polybasis.Design.matrix_rows ~pool basis pts)))
    [
      ("linear", Polybasis.Basis.constant_linear 5);
      ("quadratic", Polybasis.Basis.quadratic 6);
      ("cubic", Polybasis.Basis.total_degree 4 3);
      ( "dim 0",
        Polybasis.Basis.create 0
          [| Polybasis.Term.constant; Polybasis.Term.constant |] );
    ]

(* --- small deterministic cases -------------------------------------- *)

let test_residual_cols_matches_subset () =
  let rng = rng () in
  let g = Randkit.Gaussian.matrix rng 12 7 in
  let b = Randkit.Gaussian.vector rng 12 in
  let idx = [| 1; 4; 6 |] in
  let x = [| 0.7; 0.; -1.3 |] in
  let cols = Array.map (Linalg.Mat.col g) idx in
  check_bool "residual_cols == residual_subset" true
    (Linalg.Lstsq.residual_cols cols x b
    = Linalg.Lstsq.residual_subset g idx x b)

let test_col_col_dot_matches_vec_dot () =
  let rng = rng () in
  let g = Randkit.Gaussian.matrix rng 9 5 in
  for i = 0 to 4 do
    for j = 0 to 4 do
      check_bool "Mat.col_col_dot == Vec.dot of cols" true
        (Linalg.Mat.col_col_dot g i j
        = Linalg.Vec.dot (Linalg.Mat.col g i) (Linalg.Mat.col g j))
    done
  done

let test_tile_cols_do_not_change_results () =
  let rng = rng () in
  let dim = 4 in
  let basis = Polybasis.Basis.quadratic dim in
  let pts = Array.init 11 (fun _ -> Randkit.Gaussian.vector rng dim) in
  let r = Randkit.Gaussian.vector rng 11 in
  let reference =
    Parallel.Pool.with_pool ~domains:1 (fun pool ->
        Rsm.Corr_sweep.gram_tr ~pool (P.streamed basis pts) r)
  in
  List.iter
    (fun tile_cols ->
      let src = P.streamed ~tile_cols basis pts in
      check_int "tile_cols recorded" tile_cols (P.tile_cols src);
      let got =
        Parallel.Pool.with_pool ~domains:2 (fun pool ->
            Rsm.Corr_sweep.gram_tr ~pool src r)
      in
      check_bool "sweep independent of tile_cols" true (got = reference))
    [ 1; 3; 7 ]

let test_with_tile_matches_columns () =
  let rng = rng () in
  let dim = 3 in
  let basis = Polybasis.Basis.quadratic dim in
  let pts = Array.init 9 (fun _ -> Randkit.Gaussian.vector rng dim) in
  let src = P.streamed basis pts in
  let k = P.rows src in
  let jlo = 2 and jhi = 6 in
  P.with_tile src ~jlo ~jhi (fun tile ->
      for j = jlo to jhi - 1 do
        let col = P.column src j in
        for i = 0 to k - 1 do
          check_float "tile entry" col.(i) tile.((i * (jhi - jlo)) + j - jlo)
        done
      done)

let test_dim_zero_constant_basis () =
  let basis = Polybasis.Basis.create 0 [| Polybasis.Term.constant |] in
  let pts = Array.init 5 (fun _ -> [||]) in
  let src = P.streamed basis pts in
  check_int "one constant column" 1 (P.cols src);
  check_bool "constant column" true (P.column src 0 = Array.make 5 1.)

let test_validation () =
  let basis = Polybasis.Basis.quadratic 3 in
  let pts = [| [| 1.; 2. |] |] in
  check_raises_invalid "sample dim mismatch" (fun () ->
      P.streamed basis pts);
  check_raises_invalid "tile_cols must be positive" (fun () ->
      P.streamed ~tile_cols:0 basis [| [| 0.; 0.; 0. |] |]);
  let src = P.streamed basis [| [| 0.; 0.; 0. |] |] in
  check_raises_invalid "column out of bounds" (fun () ->
      P.column src (P.cols src));
  check_raises_invalid "select_rows out of bounds" (fun () ->
      P.select_rows src [| 1 |])

let seed_gen = QCheck.int_range 1 10_000

let suite =
  ( "provider",
    [
      case "residual_cols == residual_subset" test_residual_cols_matches_subset;
      case "Mat.col_col_dot == Vec.dot" test_col_col_dot_matches_vec_dot;
      case "tile size does not change results" test_tile_cols_do_not_change_results;
      case "with_tile matches columns" test_with_tile_matches_columns;
      case "dim-0 constant basis" test_dim_zero_constant_basis;
      case "validation errors" test_validation;
      case "dense views: same errors as row copies" test_view_errors;
      case "matrix_rows == eval_point per row"
        test_matrix_rows_matches_eval_point;
      qtest ~count:12 "to_dense: streamed == matrix_rows" seed_gen
        prop_to_dense_bitwise;
      qtest ~count:12 "columns: streamed == dense" seed_gen
        prop_columns_bitwise;
      qtest ~count:12 "sweeps: streamed == dense" seed_gen prop_sweeps_bitwise;
      qtest ~count:12 "column norms: streamed == dense" seed_gen
        prop_column_norms_bitwise;
      qtest ~count:10 "omp: streamed == dense" seed_gen
        prop_omp_dense_eq_streamed;
      qtest ~count:10 "star: streamed == dense" seed_gen
        prop_star_dense_eq_streamed;
      qtest ~count:8 "lar: streamed == dense" seed_gen
        prop_lars_dense_eq_streamed;
      qtest ~count:6 "cv selection: streamed == dense" seed_gen
        prop_cv_dense_eq_streamed;
      qtest ~count:10 "select_rows: streamed == dense" seed_gen
        prop_select_rows_bitwise;
      qtest ~count:12 "dense views == kernels on row copies" seed_gen
        prop_views_bitwise;
    ] )
