module Provider = Polybasis.Design.Provider

type rule = Min_error | One_se

type result = { model : Model.t; lambda : int; curve : float array }

(* File-backed fold cache over [Serialize.Checkpoint.Cv]: every finished
   fold writes [<base>.fold<q>]; on resume, files whose shape and plan
   digest match are loaded back and their folds skipped. A checkpoint
   from a different seed, dataset size, fold count or lambda grid is a
   hard error, never silently blended into the average. *)
let fold_cache ~base ~resume ~folds ~n ~max_lambda ~plan_digest =
  let module Cv = Serialize.Checkpoint.Cv in
  let load q =
    if not resume then None
    else
      let path = Cv.fold_file base q in
      if not (Sys.file_exists path) then None
      else
        match Cv.load path with
        | Error e ->
            invalid_arg (Printf.sprintf "Select: fold checkpoint %s: %s" path e)
        | Ok c ->
            if c.Cv.fold <> q then
              invalid_arg
                (Printf.sprintf "Select: fold checkpoint %s is for fold %d"
                   path c.Cv.fold);
            if c.Cv.folds <> folds || c.Cv.n <> n || c.Cv.max_lambda <> max_lambda
            then
              invalid_arg
                (Printf.sprintf
                   "Select: fold checkpoint %s shape (%d folds, n=%d, \
                    max_lambda=%d) disagrees with the sweep (%d folds, n=%d, \
                    max_lambda=%d)"
                   path c.Cv.folds c.Cv.n c.Cv.max_lambda folds n max_lambda);
            if c.Cv.plan_digest <> plan_digest then
              invalid_arg
                (Printf.sprintf
                   "Select: fold checkpoint %s was written for a different \
                    fold plan (different seed or data?)"
                   path);
            Some c.Cv.curve
  in
  let store q curve =
    Cv.save (Cv.fold_file base q)
      { Cv.fold = q; folds; n; max_lambda; plan_digest; curve }
  in
  { Stat.Crossval.load; store }

(* Held-out error curve of a fitted fold path — shared verbatim by the
   per-fold and fused drivers so their curves come from the same float
   sequence. *)
let held_out_curve ~max_lambda src f models held_out =
  if Array.length models = 0 then
    invalid_arg "Select: solver produced an empty path";
  let src_ho = Provider.select_rows src held_out in
  let f_ho = Array.map (fun i -> f.(i)) held_out in
  Array.init max_lambda (fun l ->
      let m = models.(min l (Array.length models - 1)) in
      Model.error_on_p m src_ho f_ho)

(* The CV λ rule: the fold-mean error curve (the paper's
   epsilon(lambda)) and the λ it selects — its minimum, or under One_se
   the smallest λ within one fold-to-fold standard error of the
   minimum. Shared by the single- and multi-output drivers. *)
let choose_lambda ~rule ~folds ~max_lambda fold_curves =
  let fq = float_of_int folds in
  let curve =
    Array.init max_lambda (fun l ->
        Array.fold_left (fun acc fc -> acc +. (fc.(l) /. fq)) 0. fold_curves)
  in
  let best = Stat.Crossval.argmin curve in
  let lambda =
    match rule with
    | Min_error -> best + 1
    | One_se ->
        let at_min = Array.map (fun fc -> fc.(best)) fold_curves in
        let se =
          if folds < 2 then 0. else Stat.Descriptive.std at_min /. sqrt fq
        in
        let threshold = curve.(best) +. se in
        let l = ref best in
        for cand = best - 1 downto 0 do
          if (not (Float.is_nan curve.(cand))) && curve.(cand) <= threshold
          then l := cand
        done;
        !l + 1
  in
  (curve, lambda)

let generic_impl ?(folds = 4) ?(rule = Min_error) ?pool ?checkpoint
    ?(resume = false) ?fused_curves rng ~max_lambda ~path_models src f =
  if max_lambda <= 0 then invalid_arg "Select: max_lambda must be positive";
  let n = Provider.rows src in
  let plan = Stat.Crossval.make_plan rng ~n ~folds in
  (* Per-fold streams are split from the master generator in fold order
     before any fold runs — also before any checkpointed fold is loaded
     and skipped — so a stochastic solver draws the same stream in fold
     q whether the folds run sequentially, in parallel, or resumed. *)
  let fold_rngs = Randkit.Prng.split_n rng folds in
  let refit_rng = Randkit.Prng.split rng in
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let cache =
    match checkpoint with
    | None -> None
    | Some base ->
        let plan_digest =
          Serialize.Checkpoint.Cv.plan_digest plan.Stat.Crossval.assignment
        in
        Some (fold_cache ~base ~resume ~folds ~n ~max_lambda ~plan_digest)
  in
  (* Per-fold error curves: the mean gives the paper's epsilon(lambda),
     the spread gives the standard error the One_se rule needs. In the
     per-fold driver, folds are fitted in parallel (one chunk per
     fold); the fused driver instead runs all fold solvers in lockstep
     sharing one multi-residual sweep per step. Either way each fold
     owns its own slot and the averaging below runs in fold order, so
     the curve is bitwise independent of the driver and domain count. *)
  let fold_curves =
    match fused_curves with
    | Some fit_curves -> Stat.Crossval.run_fold_curves_batch ?cache plan ~fit_curves
    | None ->
        Stat.Crossval.run_fold_curves ~pool ?cache plan
          ~fit_curve:(fun q ~train ~held_out ->
            let src_tr = Provider.select_rows src train in
            let f_tr = Array.map (fun i -> f.(i)) train in
            let models =
              path_models ~rng:fold_rngs.(q) src_tr f_tr ~max_lambda
            in
            held_out_curve ~max_lambda src f models held_out)
  in
  let curve, lambda = choose_lambda ~rule ~folds ~max_lambda fold_curves in
  let final = path_models ~rng:refit_rng src f ~max_lambda:lambda in
  { model = final.(Array.length final - 1); lambda; curve }

let generic_p ?folds ?rule ?pool ?checkpoint ?resume rng ~max_lambda
    ~path_models src f =
  generic_impl ?folds ?rule ?pool ?checkpoint ?resume rng ~max_lambda
    ~path_models src f

let generic ?folds ?rule ?pool rng ~max_lambda ~path_models g f =
  generic_p ?folds ?rule ?pool rng ~max_lambda
    ~path_models:(fun ~rng src f ~max_lambda ->
      path_models ~rng (Provider.to_dense ?pool src) f ~max_lambda)
    (Provider.dense g) f

let clamp_lambda ~max_lambda cap =
  (* Paths cannot exceed the solver's own bound on a fold's training
     rows; the caller's max_lambda is clamped accordingly. *)
  min max_lambda cap

exception Conflict of string

(* Whether a fused lockstep drive applies: fused sweeps require the
   exact correlation engine (the incremental engine maintains per-fold
   state the multi sweep cannot share), and by default they are worth
   it exactly when column generation is the cost being amortized —
   streamed providers. [?fused] overrides the default either way.

   Sharding is the hard case: the sharded engine owns the selection
   sweep per solver run, while fused lockstep CV shares one sweep
   across folds — mutually exclusive. When the caller merely left
   [fused] unset the resolution silently prefers the sharded engine,
   but an {e explicit} [fused = Some true] cannot be honored, and
   silently ignoring an explicit flag once cost a user a day of
   benchmarking the wrong driver — that combination is a typed
   {!Conflict} instead. *)
let resolve_fused ~sweep ~fused ~shards src =
  let sharded = match shards with Some s -> s > 1 | None -> false in
  let exact =
    match sweep with
    | None | Some Corr_sweep.Exact -> true
    | Some (Corr_sweep.Incremental _) -> false
  in
  match fused with
  | Some true when sharded ->
      raise
        (Conflict
           "fused CV conflicts with sharded sweeps: the sharded engine owns \
            the selection sweep of each solver run, while fused CV shares one \
            sweep across all folds; drop --fused-cv or run with --shards 1")
  | Some b -> b && exact && not sharded
  | None -> exact && (not sharded) && Provider.is_streamed src

(* Fused lockstep job fitting: one solver engine per (response,
   training-rows) job — a fold of one output, or any (output, fold)
   cell of a multi-output grid — advanced in lockstep; each round
   computes every live job's selection with a single fused
   multi-residual sweep over the full provider (per-job training rows
   as index sets). A job's sweep accumulates over exactly its training
   rows in ascending order — bitwise the sweep over its [select_rows]
   provider — and the engines replay the monolithic loop bodies, so
   the resulting curves are bitwise identical to job-at-a-time fitting
   while streamed column generation is paid once per round instead of
   once per live job. Jobs are [(f, train, held_out)] with [f] the
   job's full-length response. *)
let fused_jobs ~create ~finished ~round ~models src ~max_lambda jobs =
  let engines =
    Array.map
      (fun (f, train, _) ->
        let src_tr = Provider.select_rows src train in
        let f_tr = Array.map (fun i -> f.(i)) train in
        (create src_tr f_tr, train))
      jobs
  in
  let rec loop () =
    let live =
      Array.of_list
        (List.filter
           (fun (e, _) -> not (finished e))
           (Array.to_list engines))
    in
    if Array.length live > 0 then begin
      round live;
      loop ()
    end
  in
  loop ();
  Array.mapi
    (fun i (f, _, held_out) ->
      held_out_curve ~max_lambda src f (models (fst engines.(i))) held_out)
    jobs

(* The OMP/STAR round: every live job's selection from one fused
   multi-residual argmax. *)
let greedy_round ?pool src ~residual ~skip_mask ~advance live =
  let picks =
    Corr_sweep.argmax_abs_multi ?pool
      ~skips:(Array.map (fun (e, _) -> skip_mask e) live)
      src ~rows:(Array.map snd live)
      (Array.map (fun (e, _) -> residual e) live)
  in
  Array.iteri (fun i (e, _) -> advance e picks.(i)) live

let fused_omp_jobs ?on_singular ?pool src ~max_lambda jobs =
  let module E = Omp.Engine in
  fused_jobs src ~max_lambda jobs
    ~create:(fun src_tr f_tr ->
      let ml =
        min max_lambda (min (Provider.rows src_tr) (Provider.cols src_tr))
      in
      E.create ?on_singular src_tr f_tr ~max_lambda:ml)
    ~finished:E.finished
    ~round:
      (greedy_round ?pool src ~residual:E.residual ~skip_mask:E.skip_mask
         ~advance:(fun e p -> ignore (E.advance e p)))
    ~models:(fun e -> Array.map (fun s -> s.Omp.model) (E.steps e))

let fused_star_jobs ?pool src ~max_lambda jobs =
  let module E = Star.Engine in
  fused_jobs src ~max_lambda jobs
    ~create:(fun src_tr f_tr -> E.create src_tr f_tr ~max_lambda)
    ~finished:E.finished
    ~round:
      (greedy_round ?pool src ~residual:E.residual ~skip_mask:E.skip_mask
         ~advance:(fun e p -> ignore (E.advance e p)))
    ~models:(fun e -> Array.map (fun s -> s.Star.model) (E.steps e))

(* λ-indexed models from a LAR step sequence: entry λ−1 holds the last
   path model with at most λ active coefficients, so curves are indexed
   by support size exactly as for OMP/STAR (lasso drops make steps ≠
   support size). Shared by the per-fold and fused drivers. *)
let lars_lambda_models src ~max_lambda steps =
  if Array.length steps = 0 then [||]
  else begin
    let empty =
      Model.make ~basis_size:(Provider.cols src) ~support:[||] ~coeffs:[||]
    in
    let models = Array.make max_lambda empty in
    Array.iter
      (fun s ->
        let n = Model.nnz s.Lars.model in
        if n >= 1 && n <= max_lambda then
          for l = n - 1 to max_lambda - 1 do
            models.(l) <- s.Lars.model
          done)
      steps;
    models
  end

(* LAR step budget of a path fitted for a support of at most
   [max_lambda]: drops and bans make steps outnumber the support. *)
let lar_step_budget max_lambda = min ((2 * max_lambda) + 8) (4 * max_lambda)

(* Smallest fold training size, n − ceil(n/Q): the row cap on a CV
   path's support. *)
let min_train_rows ?(folds = 4) n = n - ((n + folds - 1) / folds)

(* The LAR walk needs two sweeps per movement step, so its lockstep
   round feeds each live engine's requested vector — residual or
   equiangular direction, the engines are mutually independent — into
   one [gram_tr_multi] pass. *)
let fused_lars_jobs ?mode ?on_singular ?pool src ~max_lambda jobs =
  let module E = Lars.Engine in
  fused_jobs src ~max_lambda jobs
    ~create:(fun src_tr f_tr ->
      E.create ?mode ?pool ?on_singular src_tr f_tr
        ~max_steps:(lar_step_budget max_lambda))
    ~finished:E.finished
    ~round:(fun live ->
      let sweeps =
        Corr_sweep.gram_tr_multi ?pool src ~rows:(Array.map snd live)
          (Array.map (fun (e, _) -> E.request e) live)
      in
      Array.iteri (fun i (e, _) -> E.supply e sweeps.(i)) live)
    ~models:(fun e -> lars_lambda_models src ~max_lambda (E.steps e))

let single_output_jobs f pending =
  Array.map (fun (_, train, held_out) -> (f, train, held_out)) pending

let fused_omp_curves ?on_singular ?pool src f ~max_lambda pending =
  fused_omp_jobs ?on_singular ?pool src ~max_lambda
    (single_output_jobs f pending)

let fused_star_curves ?pool src f ~max_lambda pending =
  fused_star_jobs ?pool src ~max_lambda (single_output_jobs f pending)

let fused_lars_curves ?mode ?on_singular ?pool src f ~max_lambda pending =
  fused_lars_jobs ?mode ?on_singular ?pool src ~max_lambda
    (single_output_jobs f pending)

let omp_p ?folds ?rule ?pool ?on_singular ?sweep ?shards ?shard_mode
    ?recovered ?fused ?checkpoint ?resume rng ~max_lambda src f =
  let max_lambda =
    clamp_lambda ~max_lambda
      (min (min_train_rows ?folds (Provider.rows src)) (Provider.cols src))
  in
  let fused_curves =
    if resolve_fused ~sweep ~fused ~shards src then
      Some (fused_omp_curves ?on_singular ?pool src f ~max_lambda)
    else None
  in
  generic_impl ?folds ?rule ?pool ?checkpoint ?resume ?fused_curves rng
    ~max_lambda
    ~path_models:(fun ~rng:_ src f ~max_lambda ->
      let max_lambda =
        min max_lambda (min (Provider.rows src) (Provider.cols src))
      in
      Array.map
        (fun s -> s.Omp.model)
        (Omp.path_p ?pool ?on_singular ?sweep ?shards ?shard_mode ?recovered
           src f ~max_lambda))
    src f

let star_p ?folds ?rule ?pool ?sweep ?shards ?shard_mode ?recovered ?fused
    ?checkpoint ?resume rng ~max_lambda src f =
  let max_lambda = clamp_lambda ~max_lambda (Provider.cols src) in
  let fused_curves =
    if resolve_fused ~sweep ~fused ~shards src then
      Some (fused_star_curves ?pool src f ~max_lambda)
    else None
  in
  generic_impl ?folds ?rule ?pool ?checkpoint ?resume ?fused_curves rng
    ~max_lambda
    ~path_models:(fun ~rng:_ src f ~max_lambda ->
      Array.map
        (fun s -> s.Star.model)
        (Star.path_p ?pool ?sweep ?shards ?shard_mode ?recovered src f
           ~max_lambda))
    src f

let lars_p ?folds ?rule ?mode ?pool ?on_singular ?sweep ?shards ?shard_mode
    ?recovered ?fused ?checkpoint ?resume rng ~max_lambda src f =
  let max_lambda =
    clamp_lambda ~max_lambda
      (min (min_train_rows ?folds (Provider.rows src)) (Provider.cols src))
  in
  let fused_curves =
    if resolve_fused ~sweep ~fused ~shards src then
      Some (fused_lars_curves ?mode ?on_singular ?pool src f ~max_lambda)
    else None
  in
  generic_impl ?folds ?rule ?pool ?checkpoint ?resume ?fused_curves rng
    ~max_lambda
    ~path_models:(fun ~rng:_ src f ~max_lambda ->
      let steps =
        Lars.path_p ?mode ?pool ?on_singular ?sweep ?shards ?shard_mode
          ?recovered src f ~max_steps:(lar_step_budget max_lambda)
      in
      lars_lambda_models src ~max_lambda steps)
    src f

(* Multi-output driver resolution: like [resolve_fused], but without
   the streamed-provider default — the fused grid amortizes each sweep
   across R×Q solvers, so it pays for dense providers too. Same typed
   conflict on an explicit fused request under sharding. *)
let resolve_fused_multi ~sweep ~fused ~shards =
  let sharded = match shards with Some s -> s > 1 | None -> false in
  let exact =
    match sweep with
    | None | Some Corr_sweep.Exact -> true
    | Some (Corr_sweep.Incremental _) -> false
  in
  match fused with
  | Some true when sharded ->
      raise
        (Conflict
           "fused multi-output fitting conflicts with sharded sweeps: the \
            sharded engine owns the selection sweep of each solver run, while \
            the fused driver shares one sweep across every output and fold; \
            drop --fused-outputs or run with --shards 1")
  | Some b -> b && exact && not sharded
  | None -> exact && not sharded

(* Multi-output λ selection: R responses share one fold plan, one
   fused lockstep grid of R×Q fold solvers, and R per-output refits.
   The PRNG draws mirror [generic_impl] exactly — one plan, Q fold
   streams, one refit stream, all from the caller's generator — and
   the path solvers ignore their fold streams, so output [r]'s result
   is bitwise the single-output run of [generic_impl] on [fs.(r)] with
   a copy of the same generator. *)
let generic_multi_impl ?(folds = 4) ?(rule = Min_error) ?checkpoint
    ?(resume = false) ~fit_jobs ~path_models rng ~max_lambda src fs =
  if max_lambda <= 0 then invalid_arg "Select: max_lambda must be positive";
  let outputs = Array.length fs in
  if outputs = 0 then invalid_arg "Select: at least one output required";
  let n = Provider.rows src in
  Array.iter
    (fun f ->
      if Array.length f <> n then
        invalid_arg "Select: response length mismatch")
    fs;
  let plan = Stat.Crossval.make_plan rng ~n ~folds in
  let _fold_rngs = Randkit.Prng.split_n rng folds in
  let refit_rng = Randkit.Prng.split rng in
  let caches =
    match checkpoint with
    | None -> None
    | Some base ->
        let module M = Serialize.Checkpoint.Multi in
        let plan_digest =
          Serialize.Checkpoint.Cv.plan_digest plan.Stat.Crossval.assignment
        in
        let manifest = { M.outputs; folds; n; max_lambda; plan_digest } in
        let mpath = M.manifest_file base in
        (if resume && Sys.file_exists mpath then
           match M.load mpath with
           | Error e ->
               invalid_arg
                 (Printf.sprintf "Select: multi checkpoint %s: %s" mpath e)
           | Ok m ->
               if m <> manifest then
                 invalid_arg
                   (Printf.sprintf
                      "Select: multi checkpoint %s grid (%d outputs, %d \
                       folds, n=%d, max_lambda=%d) disagrees with the sweep \
                       (%d outputs, %d folds, n=%d, max_lambda=%d) or was \
                       written for a different fold plan"
                      mpath m.M.outputs m.M.folds m.M.n m.M.max_lambda outputs
                      folds n max_lambda));
        M.save mpath manifest;
        Some
          (Array.init outputs (fun r ->
               Some
                 (fold_cache ~base:(M.output_base base r) ~resume ~folds ~n
                    ~max_lambda ~plan_digest)))
  in
  let grid =
    Stat.Crossval.run_fold_curves_multi ?caches ~outputs plan
      ~fit_curves:fit_jobs
  in
  Array.init outputs (fun r ->
      let curve, lambda = choose_lambda ~rule ~folds ~max_lambda grid.(r) in
      let final = path_models ~rng:refit_rng src fs.(r) ~max_lambda:lambda in
      { model = final.(Array.length final - 1); lambda; curve })

(* The grid's fused fitter: map each (output, fold) cell to a lockstep
   job carrying that output's response. *)
let grid_jobs fs jobs =
  Array.map (fun (r, _, train, held_out) -> (fs.(r), train, held_out)) jobs

let omp_multi_p ?folds ?rule ?pool ?on_singular ?checkpoint ?resume rng
    ~max_lambda src fs =
  let max_lambda =
    clamp_lambda ~max_lambda
      (min (min_train_rows ?folds (Provider.rows src)) (Provider.cols src))
  in
  generic_multi_impl ?folds ?rule ?checkpoint ?resume
    ~fit_jobs:(fun jobs ->
      fused_omp_jobs ?on_singular ?pool src ~max_lambda (grid_jobs fs jobs))
    ~path_models:(fun ~rng:_ src f ~max_lambda ->
      let max_lambda =
        min max_lambda (min (Provider.rows src) (Provider.cols src))
      in
      Array.map
        (fun s -> s.Omp.model)
        (Omp.path_p ?pool ?on_singular src f ~max_lambda))
    rng ~max_lambda src fs

let star_multi_p ?folds ?rule ?pool ?checkpoint ?resume rng ~max_lambda src
    fs =
  let max_lambda = clamp_lambda ~max_lambda (Provider.cols src) in
  generic_multi_impl ?folds ?rule ?checkpoint ?resume
    ~fit_jobs:(fun jobs ->
      fused_star_jobs ?pool src ~max_lambda (grid_jobs fs jobs))
    ~path_models:(fun ~rng:_ src f ~max_lambda ->
      Array.map (fun s -> s.Star.model) (Star.path_p ?pool src f ~max_lambda))
    rng ~max_lambda src fs

let lars_multi_p ?folds ?rule ?mode ?pool ?on_singular ?checkpoint ?resume
    rng ~max_lambda src fs =
  let max_lambda =
    clamp_lambda ~max_lambda
      (min (min_train_rows ?folds (Provider.rows src)) (Provider.cols src))
  in
  generic_multi_impl ?folds ?rule ?checkpoint ?resume
    ~fit_jobs:(fun jobs ->
      fused_lars_jobs ?mode ?on_singular ?pool src ~max_lambda
        (grid_jobs fs jobs))
    ~path_models:(fun ~rng:_ src f ~max_lambda ->
      let steps =
        Lars.path_p ?mode ?pool ?on_singular src f
          ~max_steps:(lar_step_budget max_lambda)
      in
      lars_lambda_models src ~max_lambda steps)
    rng ~max_lambda src fs

let omp ?folds ?rule ?pool ?on_singular rng ~max_lambda g f =
  omp_p ?folds ?rule ?pool ?on_singular rng ~max_lambda (Provider.dense g) f

let star ?folds ?rule ?pool rng ~max_lambda g f =
  star_p ?folds ?rule ?pool rng ~max_lambda (Provider.dense g) f

let lars ?folds ?rule ?mode ?pool ?on_singular rng ~max_lambda g f =
  lars_p ?folds ?rule ?mode ?pool ?on_singular rng ~max_lambda
    (Provider.dense g) f
