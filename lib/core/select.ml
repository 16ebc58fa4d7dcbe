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

let rows_of f rows = Array.map (fun i -> f.(i)) rows

(* Held-out error curve of a fitted fold path — shared verbatim by the
   per-job and fused modes so their curves come from the same float
   sequence. *)
let held_out_curve ~max_lambda src f models held_out =
  if Array.length models = 0 then
    invalid_arg "Select: solver produced an empty path";
  let src_ho = Provider.select_rows src held_out in
  let f_ho = rows_of f held_out in
  Array.init max_lambda (fun l ->
      let m = models.(min l (Array.length models - 1)) in
      Model.error_on_p m src_ho f_ho)

(* The CV λ rule: the fold-mean error curve (the paper's
   epsilon(lambda)) and the λ it selects — its minimum, or under One_se
   the smallest λ within one fold-to-fold standard error of the
   minimum. *)
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

(* The one driver rule. The fused lockstep grid shares one exact
   multi-residual sweep across its jobs, so it needs the exact sweep on
   one shard (incremental state belongs to one path, and a sharded
   fleet owns its path's sweep); it pays off when column generation is
   the cost it amortizes — a streamed provider — or when R ≥ 2 outputs
   share every sweep. Either mode gives the same bits. *)
let fused ~sweep ~shards ~streamed ~outputs =
  (match sweep with Corr_sweep.Exact -> true | Incremental _ -> false)
  && shards <= 1
  && (streamed || outputs >= 2)

(* A path solver as the CV grid drives it: a lockstep engine for the
   fused mode — [create] on a job's training rows, [round] advancing
   every live engine (paired with its training rows) from one fused
   sweep over the full provider, [models] the λ-indexed path — and
   [path], the whole-path fit of per-job mode and of the final refit. *)
type 'e solver = {
  create : Provider.t -> Linalg.Vec.t -> 'e;
  finished : 'e -> bool;
  round : ('e * int array) array -> unit;
  models : 'e -> Model.t array;
  path : Provider.t -> Linalg.Vec.t -> max_lambda:int -> Model.t array;
}

(* Fused mode: one engine per pending job, advanced in lockstep. A
   job's sweep accumulates over exactly its training rows in ascending
   order — bitwise the sweep over its [select_rows] provider — and the
   engines replay the path loop bodies, so every curve is bitwise the
   per-job one while streamed column generation is paid once per round
   instead of once per live job. A job's curve is handed on the moment
   its engine finishes. *)
let fused_fitter s src fs ~max_lambda jobs ~finish =
  let open Stat.Crossval in
  let engines =
    Array.map
      (fun j ->
        let f = fs.(j.output) in
        s.create (Provider.select_rows src j.train) (rows_of f j.train))
      jobs
  in
  let rec loop live =
    let live =
      List.filter
        (fun i ->
          let j = jobs.(i) and e = engines.(i) in
          if not (s.finished e) then true
          else begin
            finish i
              (held_out_curve ~max_lambda src fs.(j.output) (s.models e)
                 j.held_out);
            false
          end)
        live
    in
    if live <> [] then begin
      let with_rows i = (engines.(i), jobs.(i).train) in
      s.round (Array.of_list (List.map with_rows live));
      loop live
    end
  in
  loop (List.init (Array.length jobs) Fun.id)

(* Fold caches of a checkpointed grid. One output checkpoints fold q at
   [<base>.fold<q>]; a multi-output grid writes a manifest at
   [<base>.multi] and output r's folds under [<base>.out<r>]. *)
let grid_caches ~multi ~resume ~outputs ~folds ~n ~max_lambda plan base =
  let plan_digest =
    Serialize.Checkpoint.Cv.plan_digest plan.Stat.Crossval.assignment
  in
  let cache base =
    Some (fold_cache ~base ~resume ~folds ~n ~max_lambda ~plan_digest)
  in
  if not multi then [| cache base |]
  else begin
    let module M = Serialize.Checkpoint.Multi in
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
                  "Select: multi checkpoint %s grid (%d outputs, %d folds, \
                   n=%d, max_lambda=%d) disagrees with the sweep (%d outputs, \
                   %d folds, n=%d, max_lambda=%d) or was written for a \
                   different fold plan"
                  mpath m.M.outputs m.M.folds m.M.n m.M.max_lambda outputs
                  folds n max_lambda));
    M.save mpath manifest;
    Array.init outputs (fun r -> cache (M.output_base base r))
  end

(* The CV driver: R responses share one fold plan, one (output × fold)
   job grid and R refits. The plan, the Q fold streams and the refit
   stream are drawn from [rng] before any job runs — also before any
   checkpointed job is loaded and skipped — so a stochastic
   [path_models] draws the same stream in fold q whichever mode fits
   the grid, at any domain count, resumed or not; output [r]'s result is
   bitwise the single-output run on [fs.(r)] from a copy of [rng]. The
   fold-mean curve is averaged in fold order, so it is bitwise
   independent of the mode and the domain count. *)
let cv ?(folds = 4) ?(rule = Min_error) ?pool ?(sweep = Corr_sweep.Exact)
    ?(shards = 1) ?checkpoint ?(resume = false) ?solver ~multi rng ~max_lambda
    ~path_models src fs =
  if max_lambda <= 0 then invalid_arg "Select: max_lambda must be positive";
  let outputs = Array.length fs in
  if outputs = 0 then invalid_arg "Select: at least one output required";
  let n = Provider.rows src in
  if Array.exists (fun f -> Array.length f <> n) fs then
    invalid_arg "Select: response length mismatch";
  let plan = Stat.Crossval.make_plan rng ~n ~folds in
  let fold_rngs = Randkit.Prng.split_n rng folds in
  let refit_rng = Randkit.Prng.split rng in
  let caches =
    Option.map
      (grid_caches ~multi ~resume ~outputs ~folds ~n ~max_lambda plan)
      checkpoint
  in
  let fit =
    match solver with
    | Some s
      when fused ~sweep ~shards ~streamed:(Provider.is_streamed src) ~outputs
      ->
        fused_fitter s src fs ~max_lambda
    | _ ->
        let pool =
          match pool with Some p -> p | None -> Parallel.Pool.default ()
        in
        Stat.Crossval.each ~pool (fun j ->
            let f = fs.(j.output) in
            let models =
              path_models ~rng:fold_rngs.(j.fold)
                (Provider.select_rows src j.train)
                (rows_of f j.train) ~max_lambda
            in
            held_out_curve ~max_lambda src f models j.held_out)
  in
  Array.mapi
    (fun r fold_curves ->
      let curve, lambda = choose_lambda ~rule ~folds ~max_lambda fold_curves in
      let final = path_models ~rng:refit_rng src fs.(r) ~max_lambda:lambda in
      { model = final.(Array.length final - 1); lambda; curve })
    (Stat.Crossval.run_grid ?caches ~outputs plan ~fit)

let generic_p ?folds ?rule ?pool ?checkpoint ?resume rng ~max_lambda
    ~path_models src f =
  (cv ?folds ?rule ?pool ?checkpoint ?resume ~multi:false rng ~max_lambda
     ~path_models src [| f |]).(0)

let generic ?folds ?rule ?pool rng ~max_lambda ~path_models g f =
  generic_p ?folds ?rule ?pool rng ~max_lambda
    ~path_models:(fun ~rng src f ~max_lambda ->
      path_models ~rng (Provider.to_dense ?pool src) f ~max_lambda)
    (Provider.dense g) f

(* A path solver's CV over its [solver] record: the solver's own path
   fit serves per-job mode and the refit. *)
let solver_cv ?folds ?rule ?pool ?sweep ?shards ?checkpoint ?resume ~multi rng
    ~max_lambda src fs s =
  cv ?folds ?rule ?pool ?sweep ?shards ?checkpoint ?resume ~solver:s ~multi
    rng ~max_lambda
    ~path_models:(fun ~rng:_ src f ~max_lambda -> s.path src f ~max_lambda)
    src fs

(* The OMP/STAR round: every live engine's selection from one fused
   multi-residual argmax. *)
let greedy_round ?pool src ~residual ~skip_mask ~advance live =
  let picks =
    Corr_sweep.argmax_abs_multi ?pool
      ~skips:(Array.map (fun (e, _) -> skip_mask e) live)
      src ~rows:(Array.map snd live)
      (Array.map (fun (e, _) -> residual e) live)
  in
  Array.iteri (fun i (e, _) -> advance e picks.(i)) live

(* Cap on a CV path's support: the smallest fold training size,
   n − ceil(n/Q), and the column count. *)
let path_cap ?(folds = 4) src ~max_lambda =
  let n = Provider.rows src in
  min max_lambda (min (n - ((n + folds - 1) / folds)) (Provider.cols src))

let omp_cv ?folds ?rule ?pool ?on_singular ?sweep ?shards ?shard_mode
    ?recovered ?checkpoint ?resume ~multi rng ~max_lambda src fs =
  let module E = Omp.Engine in
  let max_lambda = path_cap ?folds src ~max_lambda in
  let cap p ~max_lambda =
    min max_lambda (min (Provider.rows p) (Provider.cols p))
  in
  let models steps = Array.map (fun s -> s.Omp.model) steps in
  solver_cv ?folds ?rule ?pool ?sweep ?shards ?checkpoint ?resume ~multi rng
    ~max_lambda src fs
    {
      create =
        (fun p f -> E.create ?on_singular p f ~max_lambda:(cap p ~max_lambda));
      finished = E.finished;
      round =
        greedy_round ?pool src ~residual:E.residual ~skip_mask:E.skip_mask
          ~advance:(fun e p -> ignore (E.advance e p));
      models = (fun e -> models (E.steps e));
      path =
        (fun p f ~max_lambda ->
          models
            (Omp.path_p ?pool ?on_singular ?sweep ?shards ?shard_mode
               ?recovered p f ~max_lambda:(cap p ~max_lambda)));
    }

let star_cv ?folds ?rule ?pool ?sweep ?shards ?shard_mode ?recovered
    ?checkpoint ?resume ~multi rng ~max_lambda src fs =
  let module E = Star.Engine in
  let max_lambda = min max_lambda (Provider.cols src) in
  let models steps = Array.map (fun s -> s.Star.model) steps in
  solver_cv ?folds ?rule ?pool ?sweep ?shards ?checkpoint ?resume ~multi rng
    ~max_lambda src fs
    {
      create = (fun p f -> E.create p f ~max_lambda);
      finished = E.finished;
      round =
        greedy_round ?pool src ~residual:E.residual ~skip_mask:E.skip_mask
          ~advance:(fun e p -> ignore (E.advance e p));
      models = (fun e -> models (E.steps e));
      path =
        (fun p f ~max_lambda ->
          models
            (Star.path_p ?pool ?sweep ?shards ?shard_mode ?recovered p f
               ~max_lambda));
    }

(* λ-indexed models from a LAR step sequence: entry λ−1 holds the last
   path model with at most λ active coefficients, so curves are indexed
   by support size exactly as for OMP/STAR (lasso drops make steps ≠
   support size). *)
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

(* The LAR walk needs two sweeps per movement step, so its lockstep
   round feeds each live engine's requested vector — residual or
   equiangular direction, the engines are mutually independent — into
   one [gram_tr_multi] pass. Every walk is capped at the support its
   λ-indexed models can use ([max_support], Lar mode only): a Lar
   support never shrinks, so the steps after the first one past λ
   coefficients feed no entry of the curve or the refit. *)
let lars_cv ?folds ?rule ?mode ?pool ?on_singular ?sweep ?shards ?shard_mode
    ?recovered ?checkpoint ?resume ~multi rng ~max_lambda src fs =
  let module E = Lars.Engine in
  let max_lambda = path_cap ?folds src ~max_lambda in
  solver_cv ?folds ?rule ?pool ?sweep ?shards ?checkpoint ?resume ~multi rng
    ~max_lambda src fs
    {
      create =
        (fun p f ->
          E.create ?mode ?pool ?on_singular ~max_support:max_lambda p f
            ~max_steps:(lar_step_budget max_lambda));
      finished = E.finished;
      round =
        (fun live ->
          let sweeps =
            Corr_sweep.gram_tr_multi ?pool src ~rows:(Array.map snd live)
              (Array.map (fun (e, _) -> E.request e) live)
          in
          Array.iteri (fun i (e, _) -> E.supply e sweeps.(i)) live);
      models = (fun e -> lars_lambda_models src ~max_lambda (E.steps e));
      path =
        (fun p f ~max_lambda ->
          lars_lambda_models p ~max_lambda
            (Lars.path_p ?mode ?pool ?on_singular ?sweep ?shards ?shard_mode
               ?recovered ~max_support:max_lambda p f
               ~max_steps:(lar_step_budget max_lambda)));
    }

let omp_p ?folds ?rule ?pool ?on_singular ?sweep ?shards ?shard_mode
    ?recovered ?checkpoint ?resume rng ~max_lambda src f =
  (omp_cv ?folds ?rule ?pool ?on_singular ?sweep ?shards ?shard_mode
     ?recovered ?checkpoint ?resume ~multi:false rng ~max_lambda src [| f |]).(0)

let star_p ?folds ?rule ?pool ?sweep ?shards ?shard_mode ?recovered
    ?checkpoint ?resume rng ~max_lambda src f =
  (star_cv ?folds ?rule ?pool ?sweep ?shards ?shard_mode ?recovered
     ?checkpoint ?resume ~multi:false rng ~max_lambda src [| f |]).(0)

let lars_p ?folds ?rule ?mode ?pool ?on_singular ?sweep ?shards ?shard_mode
    ?recovered ?checkpoint ?resume rng ~max_lambda src f =
  (lars_cv ?folds ?rule ?mode ?pool ?on_singular ?sweep ?shards ?shard_mode
     ?recovered ?checkpoint ?resume ~multi:false rng ~max_lambda src [| f |]).(0)

let omp_multi_p = omp_cv ~multi:true
let star_multi_p = star_cv ~multi:true
let lars_multi_p = lars_cv ~multi:true

let omp ?folds ?rule ?pool ?on_singular rng ~max_lambda g f =
  omp_p ?folds ?rule ?pool ?on_singular rng ~max_lambda (Provider.dense g) f

let star ?folds ?rule ?pool rng ~max_lambda g f =
  star_p ?folds ?rule ?pool rng ~max_lambda (Provider.dense g) f

let lars ?folds ?rule ?mode ?pool ?on_singular rng ~max_lambda g f =
  lars_p ?folds ?rule ?mode ?pool ?on_singular rng ~max_lambda
    (Provider.dense g) f
