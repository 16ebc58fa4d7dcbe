module Provider = Polybasis.Design.Provider

type screen_space = Response | Factor | Both

let screen_space_to_string = function
  | Response -> "response"
  | Factor -> "factor"
  | Both -> "both"

let screen_space_of_string s =
  match String.lowercase_ascii s with
  | "response" | "value" -> Some Response
  | "factor" | "point" -> Some Factor
  | "both" -> Some Both
  | _ -> None

let default_quorum = 0.9

type config = {
  method_ : Rsm.Solver.method_;
  folds : int;
  max_lambda : int;
  samples : int;
  screen : bool;
  screen_threshold : float;
  screen_space : screen_space;
  screen_confidence : float;
  faults : Circuit.Simulator.fault_plan;
  retry : Circuit.Simulator.retry_policy;
  adaptive : Retry.policy option;
  min_samples : int;
  quorum : float;
  streamed : bool;
  checkpoint : string option;
  resume : bool;
  sweep : Rsm.Corr_sweep.sweep;
  shards : int;
  shard_mode : Rsm.Shard_sweep.mode;
  rescreen : bool;
}

let config ?(method_ = Rsm.Solver.Omp) ?(folds = 4) ?(max_lambda = 100)
    ?(samples = 1000) ?(screen = true)
    ?(screen_threshold = Screen.default_threshold)
    ?(screen_space = Response)
    ?(screen_confidence = Screen.default_confidence)
    ?(faults = Circuit.Simulator.no_faults)
    ?(retry = Circuit.Simulator.retry_policy ()) ?adaptive
    ?(min_samples = 30) ?(quorum = default_quorum)
    ?(streamed = false) ?checkpoint ?(resume = false)
    ?(sweep = Rsm.Corr_sweep.Exact) ?(shards = 1)
    ?(shard_mode = Rsm.Shard_sweep.Domains) ?(rescreen = false) () =
  let fail fmt = Printf.ksprintf (fun m -> Error (Error.Invalid_input m)) fmt in
  if folds < 2 then fail "folds must be at least 2, got %d" folds
  else if
    match sweep with
    | Rsm.Corr_sweep.Incremental { refresh } -> refresh < 0
    | Rsm.Corr_sweep.Exact -> false
  then fail "incremental sweep refresh cadence must be non-negative"
  else if shards < 1 then fail "shards must be positive, got %d" shards
  else if max_lambda < 1 then fail "max_lambda must be positive, got %d" max_lambda
  else if samples < 1 then fail "samples must be positive, got %d" samples
  else if screen_threshold <= 0. then
    fail "screen threshold must be positive, got %g" screen_threshold
  else if not (screen_confidence > 0. && screen_confidence < 1.) then
    fail "screen confidence must lie in (0, 1), got %g" screen_confidence
  else if min_samples < 1 then
    fail "min_samples must be positive, got %d" min_samples
  else if min_samples > samples then
    fail "min_samples (%d) exceeds the requested sample count (%d)" min_samples
      samples
  else if not (quorum > 0. && quorum <= 1.) then
    fail "quorum must lie in (0, 1], got %g" quorum
  else if resume && checkpoint = None then
    fail "resume requires a checkpoint path"
  else if
    checkpoint <> None
    && not
         (match method_ with
         | Rsm.Solver.Star | Rsm.Solver.Lar | Rsm.Solver.Lasso | Rsm.Solver.Omp
           ->
             true
         | _ -> false)
  then
    fail "checkpointing supports the star, lar, lasso and omp methods only"
  else
    Ok
      {
        method_;
        folds;
        max_lambda;
        samples;
        screen;
        screen_threshold;
        screen_space;
        screen_confidence;
        faults;
        retry;
        adaptive;
        min_samples;
        quorum;
        streamed;
        checkpoint;
        resume;
        sweep;
        shards;
        shard_mode;
        rescreen;
      }

let ( let* ) = Result.bind

(* Residual rescreen after a warm-start fit: score each row's residual
   on the robust MAD scale and, when rows cross the threshold, repair
   the active-set normal equations by *down-dating* the Gram factor one
   dropped row at a time (O(d·p²), [Cholesky.Grow.downdate_row]) instead
   of refactorizing from the surviving rows (O(K·p² + p³)). The support
   is kept; only the coefficients move. If the down-dated factor loses
   positive definiteness — too few surviving rows, near-duplicate
   support columns — the refit falls back to a cold [Rsm.Refit] solve on
   the kept rows, which always succeeds (ridge rung). *)
let screen_refit ?(threshold = Screen.default_threshold) src f model =
  if threshold <= 0. then
    invalid_arg "Pipeline.screen_refit: threshold must be positive";
  let n = Provider.rows src in
  if Array.length f <> n then
    invalid_arg "Pipeline.screen_refit: response length mismatch";
  let support = model.Rsm.Model.support in
  let p = Array.length support in
  if p = 0 then (model, [||])
  else begin
    let pred = Rsm.Model.predict_p model src in
    let res = Array.init n (fun i -> f.(i) -. pred.(i)) in
    let med = Stat.Descriptive.median res in
    let dev = Array.map (fun r -> Float.abs (r -. med)) res in
    let sigma = Screen.mad_consistency *. Stat.Descriptive.median dev in
    let dropped = ref [] in
    if sigma > 0. then
      for i = n - 1 downto 0 do
        if Float.abs (res.(i) -. med) /. sigma > threshold then
          dropped := i :: !dropped
      done;
    let dropped = Array.of_list !dropped in
    let d = Array.length dropped in
    if d = 0 then (model, [||])
    else if n - d < p then
      (* Fewer surviving rows than support columns: no refit can be
         better-determined than the warm start — keep it, annotated. *)
      ( Rsm.Model.add_note model
          (Printf.sprintf
             "rescreen: %d of %d rows flagged, too few left for the %d-column \
              support; model kept"
             d n p),
        dropped )
    else begin
      let cols = Array.map (fun j -> Provider.column src j) support in
      let is_dropped = Array.make n false in
      Array.iter (fun i -> is_dropped.(i) <- true) dropped;
      let coeffs, how =
        match
          let g = Linalg.Cholesky.Grow.create p in
          let b = Array.make p 0. in
          for q = 0 to p - 1 do
            let v =
              Array.init q (fun a -> Linalg.Vec.dot cols.(a) cols.(q))
            in
            Linalg.Cholesky.Grow.append g v (Linalg.Vec.dot cols.(q) cols.(q));
            b.(q) <- Linalg.Vec.dot cols.(q) f
          done;
          Array.iter
            (fun i ->
              let x = Array.map (fun col -> col.(i)) cols in
              Linalg.Cholesky.Grow.downdate_row g x;
              Array.iteri
                (fun q col -> b.(q) <- b.(q) -. (f.(i) *. col.(i)))
                cols)
            dropped;
          Linalg.Cholesky.Grow.solve g b
        with
        | coeffs -> (coeffs, "gram downdate")
        | exception Linalg.Cholesky.Not_positive_definite _ ->
            (* Down-dated Gram went indefinite: cold LS on the kept rows
               through the fallback ladder (ridge rung never fails). *)
            let kept = ref [] in
            for i = n - 1 downto 0 do
              if not is_dropped.(i) then kept := i :: !kept
            done;
            let kept = Array.of_list !kept in
            let gather col = Array.map (fun i -> col.(i)) kept in
            let f_kept = gather f in
            let coeffs, rung =
              Rsm.Refit.solve_cols (Array.map gather cols) f_kept
            in
            ( coeffs,
              match Rsm.Refit.note rung with
              | None -> "cold refit"
              | Some note -> Printf.sprintf "cold refit, %s" note )
      in
      let refit =
        Rsm.Model.make ~basis_size:model.Rsm.Model.basis_size ~support
          ~coeffs
      in
      let refit =
        Array.fold_left Rsm.Model.add_note refit (Rsm.Model.notes model)
      in
      ( Rsm.Model.add_note refit
          (Printf.sprintf "rescreen: dropped %d of %d rows (%s)" d n how),
        dropped )
    end
  end

(* The provenance line a quorum-degraded fit carries on the model
   itself: what was lost, where, and under which outage windows. One
   line, because notes serialize as single [#note] lines. *)
let degraded_note ~requested ~survived ~quorum
    (run : Circuit.Simulator.run_report) =
  let delivery_lost = run.Circuit.Simulator.requested - run.delivered in
  let screened = run.delivered - survived in
  let burst =
    if run.burst_windows > 0 then
      Printf.sprintf "; %d burst window(s) over %d sample(s)"
        run.burst_windows run.burst_samples
    else ""
  in
  let breaker =
    if run.breaker_trips > 0 then
      Printf.sprintf "; %d breaker trip(s)" run.breaker_trips
    else ""
  in
  Printf.sprintf
    "degraded: kept %d of %d requested rows (%d lost in delivery, %d \
     screened) above quorum %g%%%s%s"
    survived requested delivery_lost screened (100. *. quorum) burst breaker

type prepared = {
  datasets : Circuit.Simulator.dataset array;
  run_report : Circuit.Simulator.run_report;
  screen_reports : Screen.report option array;
  point_report : Screen.point_report option;
  adaptive_report : Retry.report option;
  notes : string array;
  src : Provider.t;
}

(* Intersect per-output kept sets: a row survives only when every
   output's screen kept it, so all outputs keep one shared row set —
   and hence one design matrix. [kepts] are ascending index arrays in
   the same (delivered-row) index space. *)
let intersect_kept ~n kepts =
  let count = Array.make n 0 in
  Array.iter (Array.iter (fun i -> count.(i) <- count.(i) + 1)) kepts;
  let r = Array.length kepts in
  let shared = ref [] in
  for i = n - 1 downto 0 do
    if count.(i) = r then shared := i :: !shared
  done;
  Array.of_list !shared

(* Keep rows [kept] of every output, gathering the points once so the
   surviving point array stays physically shared across outputs. *)
let keep_rows datasets kept =
  let points =
    Array.map (fun i -> datasets.(0).Circuit.Simulator.points.(i)) kept
  in
  Array.map
    (fun d ->
      {
        Circuit.Simulator.points;
        values = Array.map (fun i -> d.Circuit.Simulator.values.(i)) kept;
      })
    datasets

let prepare ?pool cfg sims basis rng =
  let outputs = Array.length sims in
  if outputs = 0 then
    Error (Error.Invalid_input "prepare: at least one simulator required")
  else if cfg.adaptive <> None && outputs > 1 then
    Error
      (Error.Config
         "adaptive retry is not available for multi-output fits: the breaker \
          driver owns the per-sample retry loop of a single simulator; use \
          the fixed retry policy or fit each output separately")
  else
    let* datasets, run_report, adaptive_report =
      Error.guard (fun () ->
          match cfg.adaptive with
          | Some policy ->
              let d, r =
                Retry.run ?pool ~faults:cfg.faults policy sims.(0) rng
                  ~k:cfg.samples
              in
              ([| d |], r.Retry.run, Some r)
          | None ->
              let ds, r =
                Circuit.Simulator.run_robust_multi ?pool ~faults:cfg.faults
                  ~retry:cfg.retry sims rng ~k:cfg.samples
              in
              (ds, r, None))
    in
    let screen_response =
      cfg.screen
      && match cfg.screen_space with Response | Both -> true | Factor -> false
    in
    let screen_factor =
      cfg.screen
      && match cfg.screen_space with Factor | Both -> true | Response -> false
    in
    let* datasets, screen_reports =
      if not screen_response then Ok (datasets, Array.make outputs None)
      else
        (* Each output is screened on its own center/spread (a gain
           outlier says nothing about the power scale), then the kept
           sets are intersected so the surviving rows are shared. *)
        let rec screen_all r acc =
          if r = outputs then Ok (Array.of_list (List.rev acc))
          else
            let* _, rep =
              Result.join
                (Error.guard (fun () ->
                     Screen.screen ~threshold:cfg.screen_threshold
                       datasets.(r)))
            in
            screen_all (r + 1) (rep :: acc)
        in
        let* reports = screen_all 0 [] in
        let n = Circuit.Simulator.dataset_size datasets.(0) in
        let shared =
          intersect_kept ~n (Array.map (fun r -> r.Screen.kept) reports)
        in
        Ok (keep_rows datasets shared, Array.map Option.some reports)
    in
    let* datasets, point_report =
      if not screen_factor then Ok (datasets, None)
      else
        (* The factor points are shared across outputs, so the point
           screen runs once and its verdict applies to every output. *)
        let* _, rep =
          Result.join
            (Error.guard (fun () ->
                 Screen.mahalanobis ~confidence:cfg.screen_confidence
                   datasets.(0)))
        in
        Ok (keep_rows datasets rep.Screen.p_kept, Some rep)
    in
    let n = Circuit.Simulator.dataset_size datasets.(0) in
    let quorum_floor =
      int_of_float (Float.ceil (cfg.quorum *. float_of_int cfg.samples))
    in
    if n < cfg.min_samples then
      Error
        (Error.Simulation
           (Printf.sprintf
              "only %d of %d requested samples survived delivery and \
               screening (minimum %d); raise the sample count, the retry \
               budget, or the screen threshold"
              n cfg.samples cfg.min_samples))
    else if n < quorum_floor then
      Error
        (Error.Simulation
           (Printf.sprintf
              "quorum lost: only %d of %d requested samples survived \
               delivery and screening, below the %g%% quorum (%d); raise the \
               sample count or the retry budget, or lower --quorum to accept \
               a degraded fit"
              n cfg.samples (100. *. cfg.quorum) quorum_floor))
    else
      let notes =
        if n >= cfg.samples then [||]
        else
          [|
            degraded_note ~requested:cfg.samples ~survived:n ~quorum:cfg.quorum
              run_report;
          |]
      in
      let* src =
        Error.guard (fun () ->
            let pts = datasets.(0).Circuit.Simulator.points in
            if cfg.streamed then Provider.streamed basis pts
            else Provider.dense (Polybasis.Design.matrix_rows ?pool basis pts))
      in
      Ok
        {
          datasets;
          run_report;
          screen_reports;
          point_report;
          adaptive_report;
          notes;
          src;
        }

let rescreen_all cfg src fs models =
  if not cfg.rescreen then Ok models
  else
    Error.guard (fun () ->
        Array.mapi
          (fun r m ->
            fst (screen_refit ~threshold:cfg.screen_threshold src fs.(r) m))
          models)

type outcome = {
  model : Rsm.Model.t;
  dataset : Circuit.Simulator.dataset;
  run_report : Circuit.Simulator.run_report;
  screen_report : Screen.report option;
  point_report : Screen.point_report option;
  adaptive_report : Retry.report option;
}

let fit ?pool ?recovered cfg sim basis rng =
  let* p = prepare ?pool cfg [| sim |] basis rng in
  let fs = Array.map (fun d -> d.Circuit.Simulator.values) p.datasets in
  let* model =
    Error.guard (fun () ->
        Rsm.Solver.fit_cv_p ~folds:cfg.folds ~max_lambda:cfg.max_lambda
          ~on_singular:`Fallback ~sweep:cfg.sweep ~shards:cfg.shards
          ~shard_mode:cfg.shard_mode ?recovered ?cv_checkpoint:cfg.checkpoint
          ~cv_resume:cfg.resume ~notes:p.notes rng p.src fs.(0) cfg.method_)
  in
  let* models = rescreen_all cfg p.src fs [| model |] in
  Ok
    {
      model = models.(0);
      dataset = p.datasets.(0);
      run_report = p.run_report;
      screen_report = p.screen_reports.(0);
      point_report = p.point_report;
      adaptive_report = p.adaptive_report;
    }

type multi_outcome = {
  models : Rsm.Model.t array;
  datasets : Circuit.Simulator.dataset array;
  m_run_report : Circuit.Simulator.run_report;
  screen_reports : Screen.report option array;
  m_point_report : Screen.point_report option;
}

let fit_multi ?pool ?recovered cfg sims basis rng =
  let* p = prepare ?pool cfg sims basis rng in
  let fs = Array.map (fun d -> d.Circuit.Simulator.values) p.datasets in
  let* models =
    Error.guard (fun () ->
        Rsm.Solver.fit_multi_p ~folds:cfg.folds ~max_lambda:cfg.max_lambda
          ~on_singular:`Fallback ~sweep:cfg.sweep ~shards:cfg.shards
          ~shard_mode:cfg.shard_mode ?recovered ?cv_checkpoint:cfg.checkpoint
          ~cv_resume:cfg.resume
          ~notes:(Array.map (fun _ -> p.notes) sims)
          rng p.src fs cfg.method_)
  in
  let* models = rescreen_all cfg p.src fs models in
  Ok
    {
      models;
      datasets = p.datasets;
      m_run_report = p.run_report;
      screen_reports = p.screen_reports;
      m_point_report = p.point_report;
    }

(* The hygiene lines both summaries open with, each newline-terminated:
   delivery, adaptive retry, then every output's response screen
   (prefixed by [label r]) and the factor screen. *)
let hygiene_lines buf ?adaptive ~label run screen_reports point =
  let line s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
  line (Circuit.Simulator.report_summary run);
  Option.iter
    (fun r ->
      line
        (Printf.sprintf
           "adaptive retry: %d event(s), %d retr%s granted, %d denied"
           (Array.length r.Retry.events)
           r.Retry.retries_granted
           (if r.Retry.retries_granted = 1 then "y" else "ies")
           r.Retry.retries_denied))
    adaptive;
  if Array.for_all Option.is_none screen_reports && point = None then
    line "screen: off"
  else begin
    Array.iteri
      (fun r ->
        Option.iter (fun rep -> line (label r ^ Screen.report_summary rep)))
      screen_reports;
    Option.iter (fun rep -> line (Screen.point_report_summary rep)) point
  end

let outcome_summary o =
  let buf = Buffer.create 256 in
  hygiene_lines buf ?adaptive:o.adaptive_report ~label:(fun _ -> "")
    o.run_report [| o.screen_report |] o.point_report;
  Buffer.add_string buf
    (Printf.sprintf "model: %d bases selected from %d rows"
       (Rsm.Model.nnz o.model)
       (Circuit.Simulator.dataset_size o.dataset));
  Array.iter
    (fun note -> Buffer.add_string buf (Printf.sprintf "\nnote: %s" note))
    (Rsm.Model.notes o.model);
  Buffer.contents buf

let multi_outcome_summary ?names o =
  let outputs = Array.length o.models in
  let name r =
    match names with
    | Some ns when Array.length ns = outputs -> ns.(r)
    | _ -> Printf.sprintf "output %d" r
  in
  let buf = Buffer.create 256 in
  hygiene_lines buf ~label:(fun r -> name r ^ " ") o.m_run_report
    o.screen_reports o.m_point_report;
  let rows = Circuit.Simulator.dataset_size o.datasets.(0) in
  let model_lines r m =
    String.concat "\n"
      (Printf.sprintf "%s: %d bases selected from %d rows" (name r)
         (Rsm.Model.nnz m) rows
      :: List.map
           (Printf.sprintf "%s note: %s" (name r))
           (Array.to_list (Rsm.Model.notes m)))
  in
  (* No trailing newline, so the summary composes like
     [outcome_summary]'s. *)
  Buffer.add_string buf
    (String.concat "\n" (Array.to_list (Array.mapi model_lines o.models)));
  Buffer.contents buf

(* --- serving bridge ---------------------------------------------------

   A pipeline outcome is not the end of the line: the fitted model's
   whole purpose is to be evaluated at Monte-Carlo scale. [serve_yield]
   compiles the outcome's model to an instruction tape and streams the
   yield estimate through [Serve.Stream], threading the sampler and
   projection choices; failures surface as typed [Error.t] values like
   every other pipeline stage, never as escaping exceptions. *)

let serve_yield ?pool ?batch ?sampler ?project ?(samples = 100_000) o basis rng
    spec =
  if samples <= 0 then
    Error (Error.Invalid_input "serve_yield: samples must be positive")
  else if
    project = Some true && sampler <> Some Randkit.Gaussian.Ziggurat
  then
    Error
      (Error.Config
         "serve_yield: projection requires the ziggurat (counter) sampler")
  else
    match Serve.Eval.compile o.model basis with
    | exception Invalid_argument m -> Error (Error.Invalid_input m)
    | tape -> (
        match
          Serve.Stream.estimate ?pool ?batch ?sampler ?project ~samples tape
            rng spec
        with
        | e -> Ok e
        | exception Invalid_argument m -> Error (Error.Invalid_input m)
        | exception e -> Error (Error.Internal (Printexc.to_string e)))
