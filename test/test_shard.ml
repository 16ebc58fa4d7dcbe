(* Column-sharded sweep engine.

   Contracts under test:
   - Shard.ranges is a contiguous, non-empty, covering partition, with
     the shard count clamped to the column count.
   - the left-biased tree-reduce argmax merge equals the sequential
     strict-[>] scan for adversarial tied inputs at 1/2/4/7 shards
     (property test).
   - Shard_sweep.raw_norms gathers bitwise Provider.column_norms.
   - LAR/LASSO/OMP/STAR sharded paths (Domains mode) are bitwise equal
     to shards:1 — dense and streamed providers, exact and incremental
     sweeps, several shard counts, including paths with lasso drops and
     banned (duplicate) columns.
   - Procs mode (re-exec'd worker processes) is bitwise equal too.
   - a worker SIGKILLed mid-fit (RSM_SHARD_FAULT) is respawned, replays
     the command log, and the fit output stays bitwise identical; fleets
     of concurrent per-fold CV fits count every recovery.
   - a checkpointed sharded run resumes bitwise equal to the
     uninterrupted run. *)
open Test_util
module P = Polybasis.Design.Provider
module SS = Rsm.Shard_sweep
module Shard = Parallel.Shard

let shard_counts = [ 1; 2; 3; 5 ]

let model_bits (m : Rsm.Model.t) =
  (m.Rsm.Model.support, Array.copy m.Rsm.Model.coeffs)

let lars_bits (steps : Rsm.Lars.step array) =
  Array.map
    (fun (s : Rsm.Lars.step) ->
      (s.Rsm.Lars.added, s.dropped, s.max_corr, model_bits s.model))
    steps

let omp_bits (steps : Rsm.Omp.step array) =
  Array.map
    (fun (s : Rsm.Omp.step) ->
      (s.Rsm.Omp.index, s.correlation, s.residual_norm, model_bits s.model))
    steps

let star_bits (steps : Rsm.Star.step array) =
  Array.map
    (fun (s : Rsm.Star.step) ->
      (s.Rsm.Star.index, s.coefficient, s.residual_norm, model_bits s.model))
    steps

(* --- partition ----------------------------------------------------- *)

let test_ranges_partition () =
  List.iter
    (fun (n, shards) ->
      let rs = Shard.ranges ~n ~shards in
      check_bool "at least one shard" true (Array.length rs >= 1);
      check_bool "clamped to n" true (Array.length rs <= max n 1 && Array.length rs <= shards);
      let expected_lo = ref 0 in
      Array.iter
        (fun (r : Shard.range) ->
          check_int "contiguous" !expected_lo r.Shard.lo;
          check_bool "non-empty" true (r.hi > r.lo || n = 0);
          expected_lo := r.hi)
        rs;
      check_int "covers [0, n)" n !expected_lo)
    [ (10, 1); (10, 3); (10, 10); (10, 17); (1, 4); (97, 8); (64, 64) ]

let test_ranges_rejects () =
  check_raises_invalid "shards < 1" (fun () -> Shard.ranges ~n:5 ~shards:0);
  check_raises_invalid "negative n" (fun () -> Shard.ranges ~n:(-1) ~shards:2)

(* --- argmax merge (adversarial ties) ------------------------------- *)

let seq_argmax vals =
  let best = ref (-1) and best_abs = ref 0. in
  Array.iteri
    (fun j v ->
      let a = Float.abs v in
      if a > !best_abs then begin
        best := j;
        best_abs := a
      end)
    vals;
  (!best, !best_abs)

let sharded_argmax ~shards vals =
  let n = Array.length vals in
  let rs = Shard.ranges ~n ~shards in
  Shard.merge_argmax
    (Array.map
       (fun (r : Shard.range) ->
         let best = ref (-1) and best_abs = ref 0. in
         for j = r.Shard.lo to r.hi - 1 do
           let a = Float.abs vals.(j) in
           if a > !best_abs then begin
             best := j;
             best_abs := a
           end
         done;
         (!best, !best_abs))
       rs)

let test_argmax_merge_ties =
  (* Values drawn from a tiny set force massive |value| ties — the
     adversarial case for the lowest-index rule. *)
  qtest ~count:500 "tree-merged argmax == sequential scan under ties"
    QCheck.(
      array_of_size Gen.(1 -- 40) (map (fun i -> float_of_int (i - 2)) (int_range 0 4)))
    (fun vals ->
      let reference = seq_argmax vals in
      List.for_all
        (fun shards -> sharded_argmax ~shards vals = reference)
        [ 1; 2; 4; 7 ])

let test_tree_reduce_rejects_empty () =
  check_raises_invalid "empty tree_reduce" (fun () ->
      Shard.tree_reduce ( + ) [||])

(* --- fixtures ------------------------------------------------------ *)

let random_setting seed =
  let rng = Randkit.Prng.create seed in
  let dim = 3 + Randkit.Prng.int rng 2 in
  let basis = Polybasis.Basis.quadratic dim in
  let k = 20 + Randkit.Prng.int rng 12 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng dim) in
  let g =
    Parallel.Pool.with_pool ~domains:1 (fun pool ->
        Polybasis.Design.matrix_rows ~pool basis pts)
  in
  (rng, basis, pts, g)

let sparse_response rng src =
  let k = P.rows src and m = P.cols src in
  let p = 2 + Randkit.Prng.int rng 3 in
  let support = Randkit.Sampling.subsample rng (Array.init m Fun.id) p in
  let f = Array.init k (fun _ -> 0.05 *. Randkit.Gaussian.sample rng) in
  Array.iter
    (fun j ->
      let col = P.column src j in
      for i = 0 to k - 1 do
        f.(i) <- f.(i) +. col.(i)
      done)
    support;
  f

let sweeps = [ Rsm.Corr_sweep.Exact; Rsm.Corr_sweep.incremental ~refresh:3 () ]

let sweep_tag = function
  | Rsm.Corr_sweep.Exact -> "exact"
  | Rsm.Corr_sweep.Incremental _ -> "incremental"

(* --- raw norms ----------------------------------------------------- *)

let test_raw_norms_bitwise () =
  let _, basis, pts, g = random_setting 11 in
  List.iter
    (fun src ->
      let reference = P.column_norms src in
      List.iter
        (fun shards ->
          let e =
            SS.create ~mode:SS.Domains ~shards ~sweep:Rsm.Corr_sweep.Exact src
              ~r0:(Array.make (P.rows src) 0.)
          in
          check_bool
            (Printf.sprintf "raw norms, %d shards" shards)
            true
            (SS.raw_norms e = reference))
        [ 2; 3; 7 ])
    [ P.dense g; P.streamed basis pts ]

(* --- solver parity, Domains mode ----------------------------------- *)

let lars_steps ?(mode = Rsm.Lars.Lar) ?shards ?shard_mode ~sweep src f =
  Rsm.Lars.path_p ~mode ~on_singular:`Fallback ~sweep ?shards ?shard_mode src
    f ~max_steps:12

let test_lars_sharded_bitwise () =
  List.iter
    (fun seed ->
      let rng, basis, pts, g = random_setting seed in
      let f = sparse_response rng (P.dense g) in
      List.iter
        (fun (tag, src) ->
          List.iter
            (fun sweep ->
              List.iter
                (fun mode ->
                  let reference =
                    lars_bits (lars_steps ~mode ~sweep src f)
                  in
                  List.iter
                    (fun shards ->
                      let sharded =
                        lars_bits (lars_steps ~mode ~sweep ~shards src f)
                      in
                      check_bool
                        (Printf.sprintf
                           "lars %s %s seed=%d shards=%d bitwise"
                           tag (sweep_tag sweep) seed shards)
                        true
                        (sharded = reference))
                    shard_counts)
                [ Rsm.Lars.Lar; Rsm.Lars.Lasso ])
            sweeps)
        [ ("dense", P.dense g); ("streamed", P.streamed basis pts) ])
    [ 3; 4 ]

(* Duplicated columns make entering candidates linearly dependent, so
   the `Fallback ban path runs under sharding too. *)
let test_lars_sharded_bans_bitwise () =
  let rng, _, _, g = random_setting 7 in
  let k = Linalg.Mat.rows g in
  let m = Linalg.Mat.cols g in
  let g2 = Linalg.Mat.create k (m + 2) in
  for i = 0 to k - 1 do
    for j = 0 to m - 1 do
      Linalg.Mat.set g2 i j (Linalg.Mat.get g i j)
    done;
    (* duplicates of two early columns *)
    Linalg.Mat.set g2 i m (Linalg.Mat.get g i 1);
    Linalg.Mat.set g2 i (m + 1) (Linalg.Mat.get g i 2)
  done;
  let src = P.dense g2 in
  let f = sparse_response rng src in
  List.iter
    (fun sweep ->
      let reference = lars_bits (lars_steps ~sweep src f) in
      List.iter
        (fun shards ->
          check_bool
            (Printf.sprintf "lars bans %s shards=%d" (sweep_tag sweep) shards)
            true
            (lars_bits (lars_steps ~sweep ~shards src f) = reference))
        shard_counts)
    sweeps

let test_omp_star_sharded_bitwise () =
  let rng, basis, pts, g = random_setting 5 in
  let f = sparse_response rng (P.dense g) in
  List.iter
    (fun (tag, src) ->
      List.iter
        (fun sweep ->
          let omp_ref =
            omp_bits (Rsm.Omp.path_p ~sweep src f ~max_lambda:6)
          in
          let star_ref =
            star_bits (Rsm.Star.path_p ~sweep src f ~max_lambda:6)
          in
          List.iter
            (fun shards ->
              check_bool
                (Printf.sprintf "omp %s %s shards=%d" tag (sweep_tag sweep)
                   shards)
                true
                (omp_bits (Rsm.Omp.path_p ~sweep ~shards src f ~max_lambda:6)
                = omp_ref);
              check_bool
                (Printf.sprintf "star %s %s shards=%d" tag (sweep_tag sweep)
                   shards)
                true
                (star_bits (Rsm.Star.path_p ~sweep ~shards src f ~max_lambda:6)
                = star_ref))
            shard_counts)
        sweeps)
    [ ("dense", P.dense g); ("streamed", P.streamed basis pts) ]

(* --- Procs mode ---------------------------------------------------- *)

let test_lars_process_shards_bitwise () =
  let rng, basis, pts, g = random_setting 9 in
  let f = sparse_response rng (P.dense g) in
  List.iter
    (fun (tag, src) ->
      List.iter
        (fun sweep ->
          let reference = lars_bits (lars_steps ~sweep src f) in
          let recovered = ref 0 in
          let sharded =
            lars_bits
              (Rsm.Lars.path_p ~on_singular:`Fallback ~sweep ~shards:3
                 ~shard_mode:SS.Procs ~recovered src f ~max_steps:12)
          in
          check_bool
            (Printf.sprintf "lars procs %s %s bitwise" tag (sweep_tag sweep))
            true (sharded = reference);
          check_int
            (Printf.sprintf "no recoveries %s %s" tag (sweep_tag sweep))
            0 !recovered)
        sweeps)
    [ ("dense", P.dense g); ("streamed", P.streamed basis pts) ]

let test_omp_process_shards_bitwise () =
  let rng, basis, pts, _ = random_setting 13 in
  let src = P.streamed basis pts in
  let f = sparse_response rng src in
  let reference = omp_bits (Rsm.Omp.path_p src f ~max_lambda:5) in
  let sharded =
    omp_bits
      (Rsm.Omp.path_p ~shards:2 ~shard_mode:SS.Procs src f ~max_lambda:5)
  in
  check_bool "omp procs bitwise" true (sharded = reference)

(* A worker killed mid-fit must be respawned, replay the log, and leave
   the output bitwise unchanged. RSM_SHARD_FAULT makes shard 1 SIGKILL
   itself on its 2nd selection query; the parent strips the variable on
   respawn so the replacement survives. *)
let test_process_shard_kill_recovery () =
  let rng, basis, pts, _ = random_setting 17 in
  let src = P.streamed basis pts in
  let f = sparse_response rng src in
  List.iter
    (fun sweep ->
      let reference = lars_bits (lars_steps ~sweep src f) in
      Unix.putenv "RSM_SHARD_FAULT" "1:2";
      let recovered = ref 0 in
      let killed =
        Fun.protect
          ~finally:(fun () -> Unix.putenv "RSM_SHARD_FAULT" "")
          (fun () ->
            lars_bits
              (Rsm.Lars.path_p ~on_singular:`Fallback ~sweep ~shards:3
                 ~shard_mode:SS.Procs ~recovered src f ~max_steps:12))
      in
      check_bool
        (Printf.sprintf "killed-shard run bitwise (%s)" (sweep_tag sweep))
        true (killed = reference);
      check_bool
        (Printf.sprintf "recovery happened (%s)" (sweep_tag sweep))
        true (!recovered >= 1))
    sweeps

(* Per-fold CV runs its process fleets on several pool domains at
   once, all adding to one recovery counter. With shard 1 killing
   itself on its first selection, every fleet recovers exactly once:
   4 folds plus the refit. *)
let test_cv_fleet_recovery_count () =
  let rng, _, _, g = random_setting 19 in
  let src = P.dense g in
  let f = sparse_response rng src in
  let select ?shards ?shard_mode ?recovered pool =
    let r =
      Rsm.Select.omp_p ~pool ~folds:4 ?shards ?shard_mode ?recovered
        (Randkit.Prng.create 3) ~max_lambda:5 src f
    in
    (r.Rsm.Select.lambda, r.Rsm.Select.curve, model_bits r.Rsm.Select.model)
  in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let reference = select pool in
      Unix.putenv "RSM_SHARD_FAULT" "1:1";
      let recovered = ref 0 in
      let killed =
        Fun.protect
          ~finally:(fun () -> Unix.putenv "RSM_SHARD_FAULT" "")
          (fun () ->
            select ~shards:2 ~shard_mode:SS.Procs ~recovered pool)
      in
      check_bool "killed-shard CV bitwise" true (killed = reference);
      check_int "one recovery per fleet (4 folds + refit)" 5 !recovered)

(* --- checkpoint/resume under sharding ------------------------------ *)

let test_lars_sharded_resume_bitwise () =
  let rng, basis, pts, _ = random_setting 21 in
  let src = P.streamed basis pts in
  let f = sparse_response rng src in
  let sweep = Rsm.Corr_sweep.incremental ~refresh:2 () in
  let reference =
    lars_bits
      (Rsm.Lars.path_p ~on_singular:`Fallback ~sweep ~shards:3 src f
         ~max_steps:10)
  in
  (* Capture a mid-path checkpoint from the sharded run... *)
  let saved = ref None in
  ignore
    (Rsm.Lars.path_p ~on_singular:`Fallback ~sweep ~shards:3
       ~checkpoint_every:2
       ~on_checkpoint:(fun ck -> if !saved = None then saved := Some ck)
       src f ~max_steps:10);
  let ck = Option.get !saved in
  (* ...and resume it sharded: replay + live continuation must equal the
     uninterrupted walk bitwise, except the documented max_corr
     diagnostic on replayed steps (exact replay dots vs the live run's
     delta-maintained vector), which we exclude by comparing models. *)
  let resumed =
    Rsm.Lars.path_p ~on_singular:`Fallback ~sweep ~shards:3 ~resume:ck src f
      ~max_steps:10
  in
  let strip bits =
    Array.map (fun (a, d, _, mb) -> (a, d, mb)) bits
  in
  check_bool "sharded resume bitwise (modulo replayed max_corr)" true
    (strip (lars_bits resumed) = strip reference)

(* Every checkpoint of a ~checkpoint_every:1 walk resumes to the
   uninterrupted steps — Lar/Lasso × Exact/Incremental × shards 1/3, on
   a dictionary with duplicated columns that forces bans. *)
let test_lars_resume_every_checkpoint () =
  let rng, _, _, g = random_setting 7 in
  let src = P.dense (with_duplicate_columns g) in
  let f = sparse_response rng src in
  let banned = ref false in
  List.iter
    (fun mode ->
      List.iter
        (fun sweep ->
          List.iter
            (fun shards ->
              let label =
                Printf.sprintf "%s %s shards=%d"
                  (match mode with Rsm.Lars.Lar -> "lar" | Lasso -> "lasso")
                  (sweep_tag sweep) shards
              in
              let replay_ulps =
                match sweep with Rsm.Corr_sweep.Exact -> 0 | _ -> 1
              in
              let full =
                check_resume_every_checkpoint ~label ~replay_ulps
                  (fun ~on_checkpoint ~resume ->
                    Rsm.Lars.path_p ~mode ~on_singular:`Fallback ~sweep ~shards
                      ~checkpoint_every:1 ~on_checkpoint ?resume src f
                      ~max_steps:12)
              in
              if has_ban full then banned := true)
            [ 1; 3 ])
        sweeps)
    [ Rsm.Lars.Lar; Rsm.Lars.Lasso ];
  check_bool "the duplicated dictionary forces bans" true !banned

let suite =
  ( "shard",
    [
      case "ranges is a covering partition" test_ranges_partition;
      case "ranges validates arguments" test_ranges_rejects;
      test_argmax_merge_ties;
      case "tree_reduce rejects empty input" test_tree_reduce_rejects_empty;
      case "raw_norms gathers bitwise column_norms" test_raw_norms_bitwise;
      slow_case "LAR/LASSO sharded == unsharded (bitwise)"
        test_lars_sharded_bitwise;
      case "LAR sharded ban path bitwise" test_lars_sharded_bans_bitwise;
      slow_case "OMP/STAR sharded == unsharded (bitwise)"
        test_omp_star_sharded_bitwise;
      slow_case "LAR process shards bitwise" test_lars_process_shards_bitwise;
      case "OMP process shards bitwise" test_omp_process_shards_bitwise;
      slow_case "killed process shard recovers bitwise"
        test_process_shard_kill_recovery;
      slow_case "per-fold CV fleets count every recovery"
        test_cv_fleet_recovery_count;
      case "sharded checkpoint resume bitwise" test_lars_sharded_resume_bitwise;
      case "every checkpoint resumes bitwise (bans, 1/3 shards)"
        test_lars_resume_every_checkpoint;
    ] )
