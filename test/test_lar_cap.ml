(* The Lar-mode support cap ([?max_support] on Lars.path_p,
   Lars.Engine.create and, through them, Lars.fit_p and Select's LAR CV).

   Contracts under test:
   - Lar-mode Select.lars_p / lars_multi_p (capped walks) give bitwise
     the λ, curve and model bytes of a generic_p run whose path_models
     calls the uncapped Lars.path_p — fused and per-job grids, dense and
     streamed providers, shards 1 and 3, exact and incremental sweeps,
     1 and 2 domains, with and without banned columns.
   - A capped walk is the uncapped walk's bitwise prefix through the
     first step whose support exceeds the cap. At the boundary the entry
     test runs as before: a dependent entrant keeps its ban step and
     note under `Fallback and its held step under `Stop; a near-dependent
     entrant with an exactly-zero coefficient does not end the walk.
   - Lasso step records are unchanged by the cap.
   - A capped walk's checkpoints (terminal included) pass replay
     validation and resume bitwise, capped or uncapped.
   - fit_p returns the model the uncapped walk selects.
   - Work: an engine halted by the cap issued exactly 2·(movement
     steps) + bans requests; a clean walk at most 2λ+2. *)
open Test_util
module P = Polybasis.Design.Provider
module CS = Rsm.Corr_sweep

let random_setting seed =
  let rng = Randkit.Prng.create seed in
  let dim = 3 + Randkit.Prng.int rng 3 in
  let basis = Polybasis.Basis.quadratic dim in
  let k = 18 + Randkit.Prng.int rng 16 in
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

let bits x = Marshal.to_string x [ Marshal.No_sharing ]

let step_bits (s : Rsm.Lars.step) =
  bits
    ( s.Rsm.Lars.added,
      s.Rsm.Lars.dropped,
      Int64.bits_of_float s.Rsm.Lars.max_corr,
      Rsm.Serialize.to_string s.Rsm.Lars.model,
      Rsm.Model.notes s.Rsm.Lars.model )

let steps_bits steps = Array.map step_bits steps

let result_bits (r : Rsm.Select.result) =
  bits
    ( r.Rsm.Select.lambda,
      Array.map Int64.bits_of_float r.Rsm.Select.curve,
      Rsm.Serialize.to_string r.Rsm.Select.model )

(* The λ-indexed models Select builds from a step sequence: entry λ−1
   is the last step model with between 1 and λ active coefficients. *)
let lambda_models src ~max_lambda (steps : Rsm.Lars.step array) =
  let empty = Rsm.Model.make ~basis_size:(P.cols src) ~support:[||] ~coeffs:[||] in
  let models = Array.make max_lambda empty in
  Array.iter
    (fun (s : Rsm.Lars.step) ->
      let n = Rsm.Model.nnz s.Rsm.Lars.model in
      if n >= 1 && n <= max_lambda then
        for l = n - 1 to max_lambda - 1 do
          models.(l) <- s.Rsm.Lars.model
        done)
    steps;
  if Array.length steps = 0 then [||] else models

(* Select's LAR step budget. *)
let budget max_lambda = min ((2 * max_lambda) + 8) (4 * max_lambda)

(* The uncapped reference: generic_p over full Lar walks. *)
let reference ~pool ~sweep seed ~max_lambda src f =
  Rsm.Select.generic_p ~pool (Randkit.Prng.create seed) ~max_lambda
    ~path_models:(fun ~rng:_ src f ~max_lambda ->
      lambda_models src ~max_lambda
        (Rsm.Lars.path_p ~mode:Rsm.Lars.Lar ~pool ~on_singular:`Fallback
           ~sweep src f ~max_steps:(budget max_lambda)))
    src f

let sweeps = [ ("exact", CS.Exact); ("incremental", CS.incremental ~refresh:3 ()) ]

(* By Select.fused, the unsharded exact arms run the fused grid on the
   streamed provider and for two outputs; every other arm runs per-job
   path_p fits. *)
let prop_cv_parity seed =
  let rng, basis, pts, g = random_setting seed in
  let f = sparse_response rng (P.dense g) in
  let f2 = sparse_response rng (P.dense g) in
  let max_lambda = 6 in
  let sources =
    [
      ("dense", P.dense g);
      ("streamed", P.streamed basis pts);
      ("dense+duplicates", P.dense (with_duplicate_columns g));
    ]
  in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun (name, src) ->
              List.iter
                (fun (stag, sweep) ->
                  let refs =
                    Array.map
                      (fun f ->
                        result_bits
                          (reference ~pool ~sweep (seed + 1) ~max_lambda src f))
                      [| f; f2 |]
                  in
                  List.iter
                    (fun shards ->
                      let tag =
                        Printf.sprintf "seed %d, %s, %s, shards %d, %d domains"
                          seed name stag shards domains
                      in
                      let single =
                        Rsm.Select.lars_p ~pool ~mode:Rsm.Lars.Lar
                          ~on_singular:`Fallback ~sweep ~shards
                          (Randkit.Prng.create (seed + 1))
                          ~max_lambda src f
                      in
                      check_bool (tag ^ ": lars_p == uncapped reference") true
                        (result_bits single = refs.(0));
                      let multi =
                        Rsm.Select.lars_multi_p ~pool ~mode:Rsm.Lars.Lar
                          ~on_singular:`Fallback ~sweep ~shards
                          (Randkit.Prng.create (seed + 1))
                          ~max_lambda src [| f; f2 |]
                      in
                      check_bool
                        (tag ^ ": lars_multi_p == uncapped reference")
                        true
                        (Array.map result_bits multi = refs))
                    [ 1; 3 ])
                sweeps)
            sources))
    [ 1; 2 ];
  true

(* --- the boundary ---------------------------------------------------- *)

let walk ?max_support ?(mode = Rsm.Lars.Lar) ?(on_singular = `Fallback)
    ?(sweep = CS.Exact) ?(shards = 1) ?checkpoint_every ?on_checkpoint
    ?resume src f =
  Rsm.Lars.path_p ~mode ~on_singular ~sweep ~shards ?checkpoint_every
    ?on_checkpoint ?resume ?max_support src f ~max_steps:24

let ban_note = String.starts_with ~prefix:"lars: banned dependent column"

let bans (s : Rsm.Lars.step) =
  List.length (List.filter ban_note (Array.to_list (Rsm.Model.notes s.Rsm.Lars.model)))

let support (s : Rsm.Lars.step) = Rsm.Model.nnz s.Rsm.Lars.model

(* What a walk capped at [cap] must record: the uncapped steps up to and
   including the first whose support exceeds [cap]. *)
let expected_capped ~cap full =
  let n = Array.length full in
  let rec first i = if i >= n || support full.(i) > cap then i else first (i + 1) in
  Array.sub full 0 (min n (first 0 + 1))

let check_capped msg ~cap full capped =
  check_bool (msg ^ ": capped walk == uncapped prefix through the first step past the cap")
    true
    (steps_bits capped = steps_bits (expected_capped ~cap full))

(* Duplicated dictionaries, on all rows and on each CV training fold:
   the first walk whose step [i] satisfies [event full i]. *)
let find_walk ~on_singular event =
  let rec go seed =
    if seed > 400 then Alcotest.fail "no seed reaches the event"
    else
      let rng, _, _, g = random_setting seed in
      let src = P.dense (with_duplicate_columns g) in
      let f = sparse_response rng src in
      let n = P.rows src in
      let plan = Stat.Crossval.make_plan (Randkit.Prng.create seed) ~n ~folds:4 in
      let row_sets =
        Array.init n Fun.id
        :: List.init 4 (fun q -> fst (Stat.Crossval.fold_indices plan q))
      in
      let hit =
        List.find_map
          (fun rows ->
            let src = P.select_rows src rows in
            let f = Array.map (fun i -> f.(i)) rows in
            let full = walk ~on_singular src f in
            let i = ref (-1) in
            Array.iteri (fun k _ -> if !i < 0 && event full k then i := k) full;
            if !i >= 0 then Some (src, f, full, !i) else None)
          row_sets
      in
      match hit with Some h -> h | None -> go (seed + 1)
  in
  go 1

let test_ban_at_boundary () =
  let src, f, full, i =
    find_walk ~on_singular:`Fallback (fun full i ->
        i > 0 && bans full.(i) > bans full.(i - 1)
        && support full.(Array.length full - 1) > support full.(i))
  in
  let cap = support full.(i) in
  let capped = walk ~max_support:cap src f in
  check_capped "`Fallback" ~cap full capped;
  (* The dependent column would have been the (cap+1)-th entrant. *)
  check_bool "ban step and note kept" true
    (Array.length capped > i + 1
    && step_bits capped.(i) = step_bits full.(i)
    && capped.(i).Rsm.Lars.added = None)

let test_hold_at_boundary () =
  let src, f, full, i =
    find_walk ~on_singular:`Stop (fun full i ->
        i > 0 && full.(i).Rsm.Lars.added = None
        && support full.(Array.length full - 1) > support full.(i))
  in
  let cap = support full.(i) in
  let capped = walk ~on_singular:`Stop ~max_support:cap src f in
  check_capped "`Stop" ~cap full capped;
  check_bool "held step at the boundary recorded" true
    (Array.length capped > i + 1 && capped.(i).Rsm.Lars.added = None);
  check_bool "walk halts before the uncapped end" true
    (Array.length capped < Array.length full)

(* A near-dependent entrant can pass the factor append and keep an
   exactly-zero coefficient; the cap counts the support, so such a walk
   is not cut short while a model with the capped support may still
   come. *)
let test_zero_coefficient_entrant () =
  let actives steps =
    let n = ref 0 in
    Array.map
      (fun (s : Rsm.Lars.step) ->
        if s.Rsm.Lars.added <> None then incr n;
        !n)
      steps
  in
  let src, f, full, _ =
    find_walk ~on_singular:`Fallback (fun full i ->
        support full.(i) < (actives full).(i))
  in
  for cap = 1 to support full.(Array.length full - 1) do
    let capped = walk ~max_support:cap src f in
    check_capped (Printf.sprintf "cap %d" cap) ~cap full capped;
    check_bool
      (Printf.sprintf "cap %d: λ-indexed models" cap)
      true
      (bits (lambda_models src ~max_lambda:cap capped)
      = bits (lambda_models src ~max_lambda:cap full))
  done

let test_lasso_unchanged () =
  List.iter
    (fun seed ->
      let rng, _, _, g = random_setting seed in
      let src = P.dense (with_duplicate_columns g) in
      let f = sparse_response rng src in
      List.iter
        (fun (stag, sweep) ->
          let full = walk ~mode:Rsm.Lars.Lasso ~sweep src f in
          List.iter
            (fun cap ->
              check_bool
                (Printf.sprintf "seed %d %s: lasso steps with cap %d" seed stag cap)
                true
                (steps_bits (walk ~mode:Rsm.Lars.Lasso ~sweep ~max_support:cap src f)
                = steps_bits full))
            [ 1; 2; 4 ])
        sweeps;
      let e =
        Rsm.Lars.Engine.create ~mode:Rsm.Lars.Lasso ~on_singular:`Fallback
          ~max_support:2 src f ~max_steps:24
      in
      while not (Rsm.Lars.Engine.finished e) do
        Rsm.Lars.Engine.supply e (CS.gram_tr src (Rsm.Lars.Engine.request e))
      done;
      check_bool
        (Printf.sprintf "seed %d: capped lasso engine == uncapped path_p" seed)
        true
        (steps_bits (Rsm.Lars.Engine.steps e)
        = steps_bits (walk ~mode:Rsm.Lars.Lasso src f)))
    [ 2; 9; 14 ]

let test_capped_resume () =
  let rng, _, _, g = random_setting 6 in
  let src = P.dense (with_duplicate_columns g) in
  let f = sparse_response rng src in
  let full = walk src f in
  List.iter
    (fun (stag, sweep, replay_ulps) ->
      List.iter
        (fun shards ->
          let label = Printf.sprintf "capped %s shards=%d" stag shards in
          let capped =
            check_resume_every_checkpoint ~label ~replay_ulps
              (fun ~on_checkpoint ~resume ->
                walk ~sweep ~shards ~max_support:3 ~checkpoint_every:1
                  ~on_checkpoint ?resume src f)
          in
          if sweep = CS.Exact then begin
            check_capped label ~cap:3 full capped;
            check_bool (label ^ ": the cap ends the walk") true
              (Array.length capped < Array.length full);
            (* The terminal checkpoint of a capped walk resumes uncapped
               to the whole walk. *)
            let last = ref None in
            ignore
              (walk ~sweep ~shards ~max_support:3
                 ~on_checkpoint:(fun c -> last := Some c)
                 src f);
            let ck = Option.get !last in
            check_int (label ^ ": terminal log = capped steps")
              (Array.length capped)
              (Array.length ck.Rsm.Serialize.Checkpoint.Lars.events);
            check_bool (label ^ ": uncapped resume == uncapped walk") true
              (steps_bits (walk ~sweep ~shards ~resume:ck src f)
              = steps_bits full)
          end)
        [ 1; 3 ])
    [ ("exact", CS.Exact, 0); ("incremental", CS.incremental ~refresh:2 (), 1) ]

(* fit_p's model before the cap existed: the last uncapped step model
   with at most λ coefficients. *)
let test_fit_p_unchanged () =
  List.iter
    (fun seed ->
      let rng, basis, pts, g = random_setting seed in
      let f = sparse_response rng (P.dense g) in
      List.iter
        (fun (name, src) ->
          List.iter
            (fun on_singular ->
              List.iter
                (fun lambda ->
                  let steps =
                    Rsm.Lars.path_p ~mode:Rsm.Lars.Lar ~on_singular src f
                      ~max_steps:((2 * lambda) + 8)
                  in
                  let before = ref None in
                  Array.iter
                    (fun (s : Rsm.Lars.step) ->
                      if Rsm.Model.nnz s.Rsm.Lars.model <= lambda then
                        before := Some s.Rsm.Lars.model)
                    steps;
                  let fit =
                    Rsm.Lars.fit_p ~mode:Rsm.Lars.Lar ~on_singular src f ~lambda
                  in
                  check_bool
                    (Printf.sprintf "seed %d %s lambda %d: fit_p bytes" seed name
                       lambda)
                    true
                    (Rsm.Serialize.to_string fit
                    = Rsm.Serialize.to_string (Option.get !before)))
                [ 1; 3; 5 ])
            [ `Stop; `Fallback ])
        [
          ("dense", P.dense g);
          ("streamed", P.streamed basis pts);
          ("duplicates", P.dense (with_duplicate_columns g));
        ])
    [ 3; 8; 11 ]

(* --- work ------------------------------------------------------------- *)

let drive ?max_support src f =
  let e =
    Rsm.Lars.Engine.create ~mode:Rsm.Lars.Lar ~on_singular:`Fallback
      ?max_support src f ~max_steps:40
  in
  let requests = ref 0 in
  while not (Rsm.Lars.Engine.finished e) do
    incr requests;
    Rsm.Lars.Engine.supply e (CS.gram_tr src (Rsm.Lars.Engine.request e))
  done;
  (Rsm.Lars.Engine.steps e, !requests)

let test_request_count () =
  List.iter
    (fun seed ->
      let rng, _, _, g = random_setting seed in
      let clean = P.dense g in
      let dup = P.dense (with_duplicate_columns g) in
      let f = sparse_response rng clean in
      List.iter
        (fun cap ->
          let tag = Printf.sprintf "seed %d cap %d" seed cap in
          let steps, requests = drive ~max_support:cap clean f in
          check_capped tag ~cap (fst (drive clean f)) steps;
          check_bool (tag ^ ": halted by the cap") true
            (support steps.(Array.length steps - 1) > cap);
          check_int (tag ^ ": two requests per step") (2 * Array.length steps)
            requests;
          check_bool (tag ^ ": at most 2·cap + 2 requests") true
            (requests <= (2 * cap) + 2);
          let steps, requests = drive ~max_support:cap dup f in
          let nbans = bans steps.(Array.length steps - 1) in
          let halt =
            if support steps.(Array.length steps - 1) > cap then 0 else 1
          in
          check_int (tag ^ ": duplicates: 2·moves + bans (+ 1 unless capped)")
            ((2 * (Array.length steps - nbans)) + nbans + halt)
            requests)
        [ 1; 3; 5 ])
    [ 4; 7; 19 ]

let test_validation () =
  let rng, _, _, g = random_setting 5 in
  let src = P.dense g in
  let f = sparse_response rng src in
  check_raises_invalid "path_p max_support 0" (fun () ->
      walk ~max_support:0 src f);
  check_raises_invalid "Engine.create max_support -1" (fun () ->
      Rsm.Lars.Engine.create ~max_support:(-1) src f ~max_steps:4)

let suite =
  ( "lar cap",
    [
      qtest ~count:4 "CV: capped == uncapped reference (bitwise)"
        (QCheck.int_range 1 10_000) prop_cv_parity;
      case "CV: capped == uncapped, zero-coefficient fold (seed 9791)"
        (fun () -> ignore (prop_cv_parity 9791));
      case "`Fallback: dependent boundary entrant keeps its ban"
        test_ban_at_boundary;
      case "`Stop: dependent boundary entrant holds" test_hold_at_boundary;
      case "Lasso steps unchanged by the cap" test_lasso_unchanged;
      case "capped checkpoints resume bitwise" test_capped_resume;
      case "fit_p bytes unchanged" test_fit_p_unchanged;
      case "near-dependent zero-coefficient entrant" test_zero_coefficient_entrant;
      case "engine requests: 2·moves + bans" test_request_count;
      case "max_support validation" test_validation;
    ] )
