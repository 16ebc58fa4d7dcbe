(** The fault-tolerant end-to-end fit: simulate (with retries), screen,
    build the design, fit with numerical fallbacks — one call, one
    structured result.

    Every fit gets its training rows from one data stage, {!prepare}:
    {!Circuit.Simulator.run_robust_multi} (or {!Retry.run}) retries
    detectable failures and drops samples that never deliver,
    {!Screen.screen} removes non-finite and outlier rows before any
    basis function is evaluated, and the solver runs with
    [~on_singular:`Fallback] so a degenerate active-set Gram matrix
    degrades through the {!Rsm.Refit} ladder instead of aborting.
    Nothing in this module raises on the expected failure paths —
    everything is an {!Error.t}. *)

(** Which space the hygiene screens examine. [Response] is the MAD
    screen on simulated values ({!Screen.screen}); [Factor] is the
    robust-Mahalanobis screen on sample points ({!Screen.mahalanobis});
    [Both] composes them, response first. *)
type screen_space = Response | Factor | Both

val screen_space_to_string : screen_space -> string

val screen_space_of_string : string -> screen_space option
(** Case-insensitive; accepts ["response"]/["value"],
    ["factor"]/["point"], ["both"]. *)

val default_quorum : float
(** 0.9 — a fit silently missing more than a tenth of its requested
    samples is a different experiment, not a degraded one. *)

type config = {
  method_ : Rsm.Solver.method_;
  folds : int;  (** CV folds for the λ selection *)
  max_lambda : int;  (** sparsity-search upper bound *)
  samples : int;  (** Monte-Carlo samples to request *)
  screen : bool;  (** run the hygiene screens at all *)
  screen_threshold : float;  (** robust z-score cut (response screen) *)
  screen_space : screen_space;  (** which screens run; default [Response] *)
  screen_confidence : float;
      (** χ² confidence of the factor screen's distance cut *)
  faults : Circuit.Simulator.fault_plan;  (** injected failure model *)
  retry : Circuit.Simulator.retry_policy;
  adaptive : Retry.policy option;
      (** adaptive retry (backoff + breaker, {!Retry.run}) instead of
          the fixed policy; [retry] is ignored when set *)
  min_samples : int;  (** fewest surviving rows acceptable for a fit *)
  quorum : float;
      (** fraction of [samples] that must survive delivery and
          screening, in (0, 1]; a shortfall above the quorum degrades
          the fit (noted on the model), below it fails typed *)
  streamed : bool;  (** matrix-free design instead of materialized *)
  checkpoint : string option;
      (** base path for per-fold CV checkpoints ({!Rsm.Select}) *)
  resume : bool;  (** load matching fold checkpoints before fitting *)
  sweep : Rsm.Corr_sweep.sweep;
      (** correlation engine for the path solvers ({!Rsm.Corr_sweep}) *)
  shards : int;
      (** column shards for the selection sweeps ({!Rsm.Shard_sweep});
          1 = unsharded. Fits are bitwise identical at every count. *)
  shard_mode : Rsm.Shard_sweep.mode;
      (** [Domains] in-image slabs, [Procs] re-exec'd worker processes
          with crash recovery *)
  rescreen : bool;  (** residual rescreen + down-date refit after the fit *)
}

val config :
  ?method_:Rsm.Solver.method_ ->
  ?folds:int ->
  ?max_lambda:int ->
  ?samples:int ->
  ?screen:bool ->
  ?screen_threshold:float ->
  ?screen_space:screen_space ->
  ?screen_confidence:float ->
  ?faults:Circuit.Simulator.fault_plan ->
  ?retry:Circuit.Simulator.retry_policy ->
  ?adaptive:Retry.policy ->
  ?min_samples:int ->
  ?quorum:float ->
  ?streamed:bool ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?sweep:Rsm.Corr_sweep.sweep ->
  ?shards:int ->
  ?shard_mode:Rsm.Shard_sweep.mode ->
  ?rescreen:bool ->
  unit ->
  (config, Error.t) result
(** Validated constructor. Defaults: OMP, 4 folds, [max_lambda = 100],
    1000 samples, screening on at {!Screen.default_threshold} in
    [Response] space with {!Screen.default_confidence}, no injected
    faults, the default fixed retry policy
    ({!Circuit.Simulator.retry_policy}) and no adaptive policy,
    [min_samples = 30], [quorum = 0.9], dense design, no checkpointing,
    exact sweep, no rescreen. Returns
    [Error (Invalid_input _)] on non-positive counts or thresholds, a
    confidence or quorum outside its range, a negative incremental
    refresh cadence, [min_samples > samples], [resume] without
    [checkpoint], or [checkpoint] with a method that has no λ sweep
    (LS/StOMP/CoSaMP). *)

(** {2 Data stage} *)

type prepared = {
  datasets : Circuit.Simulator.dataset array;
      (** the surviving rows, one dataset per simulator, in order; the
          point arrays are physically shared across outputs *)
  run_report : Circuit.Simulator.run_report;
      (** one delivery/retry account for the whole batch *)
  screen_reports : Screen.report option array;
      (** per-output response-screen reports (indices in delivered-row
          space, {e before} the kept-set intersection); [None] entries
          when the response screen did not run *)
  point_report : Screen.point_report option;
      (** the shared factor-space verdict; [None] when it did not run *)
  adaptive_report : Retry.report option;
      (** the adaptive driver's event log; [None] under the fixed
          policy *)
  notes : string array;
      (** provenance notes every fitted model must carry: the single
          ["degraded: ..."] line ({!degraded_note}) when fewer than
          [config.samples] rows survived, else empty *)
  src : Polybasis.Design.Provider.t;
      (** the design over the surviving points: matrix-free when
          [config.streamed], else materialized over the pool *)
}

val prepare :
  ?pool:Parallel.Pool.t ->
  config ->
  Circuit.Simulator.t array ->
  Polybasis.Basis.t ->
  Randkit.Prng.t ->
  (prepared, Error.t) result
(** [prepare cfg sims basis rng] turns [config.samples] simulations into
    the training rows every fit consumes — the one place that decides
    how they are obtained:
    + simulate: {!Circuit.Simulator.run_robust_multi} under the fixed
      retry policy (every sample evaluated by every simulator, delivered
      only when all outputs are finite), or {!Retry.run} when
      [config.adaptive] is set (one simulator only);
    + screen (when [config.screen]): each output's response screen
      ({!Screen.screen}) on its own center and spread, the kept sets
      intersected; then one factor screen ({!Screen.mahalanobis}) on
      the shared points, per [config.screen_space];
    + enforce [min_samples] and the quorum on the surviving row count
      [n]: [n < min_samples] or [n < ceil(quorum·samples)] fails with
      [Simulation _]; [n < samples] above both floors sets [notes] to the
      degraded note;
    + build the design provider.

    The generator [rng] is advanced by the simulation stage only, so a
    fit that continues from it (the CV fold plan, a test set) sees the
    same stream whichever fit consumes the rows. Deterministic at every
    domain count. Fails with [Invalid_input _] on an empty simulator
    array, [Config _] for [config.adaptive] with more than one
    simulator, and [Invalid_input _] / [Numerical _] / [Internal _] when
    a stage raises. *)

type outcome = {
  model : Rsm.Model.t;
      (** the fitted model; {!Rsm.Model.notes} records any numerical
          fallbacks that fired *)
  dataset : Circuit.Simulator.dataset;  (** the rows the fit actually used *)
  run_report : Circuit.Simulator.run_report;  (** delivery/retry accounting *)
  screen_report : Screen.report option;
      (** [None] when the response screen did not run *)
  point_report : Screen.point_report option;
      (** [None] when the factor screen did not run *)
  adaptive_report : Retry.report option;
      (** the adaptive driver's event log; [None] under the fixed
          policy. [run_report] is its [run] field in that case. *)
}

val degraded_note :
  requested:int ->
  survived:int ->
  quorum:float ->
  Circuit.Simulator.run_report ->
  string
(** The single-line ["degraded: ..."] provenance note a quorum-degraded
    fit records in {!Rsm.Model.notes}: rows kept vs requested, split
    into delivery losses ([requested − run.delivered]) and screened rows
    ([run.delivered − survived]), plus burst windows and breaker trips
    when present. {!prepare} stamps it; exported so staged
    decompositions of the pipeline can rebuild the same bytes. *)

val screen_refit :
  ?threshold:float ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  Rsm.Model.t ->
  Rsm.Model.t * int array
(** [screen_refit src f model] rescreens a fitted model's residuals on
    the robust MAD scale ([Screen.mad_consistency]·MAD, the same scale
    as the pre-fit value screen) and, when rows cross [threshold]
    (default {!Screen.default_threshold}), re-solves the active-set
    normal equations with those rows removed. The Gram factor of the
    support columns is {e down-dated} one dropped row at a time
    ({!Linalg.Cholesky.Grow.downdate_row}, O(d·p²) for d drops and p
    support columns) instead of refactorized from the surviving rows —
    the warm-start-then-screen path the roadmap called for. The support
    is unchanged; only coefficients move. Returns the refit model (with
    a note recording the drop count and repair path) and the dropped
    row indices, ascending; [(model, [||])] when nothing crosses the
    threshold, the residual MAD is zero, or the support is empty. If
    the down-dated factor loses positive definiteness, the refit falls
    back to a cold {!Rsm.Refit} solve on the kept rows; if fewer rows
    than support columns survive, the original model is kept (noted).
    @raise Invalid_argument on a non-positive threshold or a response
    length mismatch. *)

val fit :
  ?pool:Parallel.Pool.t ->
  ?recovered:int ref ->
  config ->
  Circuit.Simulator.t ->
  Polybasis.Basis.t ->
  Randkit.Prng.t ->
  (outcome, Error.t) result
(** Run the full pipeline: {!prepare} on [[| sim |]], then the
    cross-validated fit ({!Rsm.Solver.fit_cv_p}) and, with
    [config.rescreen], {!screen_refit}. Deterministic for a fixed seed
    at every domain count (the underlying stages all pre-split their
    PRNG streams). [recovered] (with [config.shards > 1] in [Procs]
    mode) accumulates worker-process crash recoveries across the fold
    fits and the refit.

    Quorum semantics are {!prepare}'s: a sub-floor survival fails with
    [Simulation _] (the typed one-line diagnostic in the CLI); a
    shortfall above both floors proceeds {e degraded}, recording the
    single-line ["degraded: ..."] note — rows lost in delivery vs
    screening, burst windows, breaker trips — in {!Rsm.Model.notes},
    where it survives serialization. A full-delivery fit carries no
    note. Fails with [Invalid_input _] / [Numerical _] / [Internal _]
    when a stage raises. *)

val outcome_summary : outcome -> string
(** Multi-line human-readable account: delivery, hygiene, model size and
    any fallback notes. *)

(** {2 Multi-output pipeline}

    R performance metrics of one circuit — the op-amp's gain, bandwidth,
    power and offset — share their Monte-Carlo points, their fault
    history, their hygiene verdicts and their design matrix; only the
    response vectors differ. {!fit_multi} runs the whole pipeline once
    for all of them: one {!prepare} (one simulation batch, one shared
    kept-row set, one design provider) and one {!Rsm.Solver.fit_multi_p}
    call whose fused grid generates each streamed column once per
    greedy step for every output and fold. *)

type multi_outcome = {
  models : Rsm.Model.t array;  (** one fitted model per simulator, in order *)
  datasets : Circuit.Simulator.dataset array;
      (** the rows each fit used; the point arrays are physically
          shared across outputs (one kept-row set) *)
  m_run_report : Circuit.Simulator.run_report;
      (** one delivery/retry account for the shared batch *)
  screen_reports : Screen.report option array;
      (** per-output response-screen reports (indices in delivered-row
          space, {e before} the kept-set intersection); [None] entries
          when the response screen did not run *)
  m_point_report : Screen.point_report option;
      (** the shared factor-space verdict; [None] when it did not run *)
}

val fit_multi :
  ?pool:Parallel.Pool.t ->
  ?recovered:int ref ->
  config ->
  Circuit.Simulator.t array ->
  Polybasis.Basis.t ->
  Randkit.Prng.t ->
  (multi_outcome, Error.t) result
(** Run the full pipeline for every simulator at once: {!prepare},
    then one {!Rsm.Solver.fit_multi_p} call and the optional rescreen.
    The simulators must agree on [dim]; [config.adaptive] needs a
    single simulator (the breaker driver owns one simulator's retry
    loop — with more it fails with [Config _], as does an empty
    simulator array with [Invalid_input _]).

    Quorum/degradation semantics are {!fit}'s, applied to the shared
    surviving row count; a degraded delivery stamps the same
    ["degraded: ..."] note on {e every} model. The fit is
    {!Rsm.Solver.fit_multi_p}: output [r] checkpoints under
    [Serialize.Checkpoint.Multi.output_base config.checkpoint r], and
    its model is bitwise identical to a single-output fit of that
    metric, whichever mode the CV grid runs in, at every domain and
    shard count, dense or streamed. *)

val multi_outcome_summary : ?names:string array -> multi_outcome -> string
(** Multi-line account of a multi-output run: one delivery line, the
    per-output hygiene lines, and one model line per output. [names]
    labels the outputs (e.g. metric names); defaults to
    ["output <r>"]. *)

(** {2 Serving bridge}

    The fit is not the product — the evaluations are. [serve_yield]
    takes a pipeline {!outcome} straight to a streamed yield estimate:
    the model is compiled to an instruction tape ([Serve.Eval.compile])
    and [samples] standard-normal points flow through
    [Serve.Stream.estimate] over the pool. *)

val serve_yield :
  ?pool:Parallel.Pool.t ->
  ?batch:int ->
  ?sampler:Randkit.Gaussian.sampler ->
  ?project:bool ->
  ?samples:int ->
  outcome ->
  Polybasis.Basis.t ->
  Randkit.Prng.t ->
  Rsm.Yield.spec ->
  (Serve.Stream.estimate, Error.t) result
(** [serve_yield outcome basis rng spec] estimates the yield of the
    fitted model against [spec] from [samples] (default 100 000)
    streamed Monte-Carlo points. [?sampler] and [?project] are
    [Serve.Stream.estimate]'s: the default polar sampler keeps the
    historical bit stream; [Ziggurat] switches to the counter-mode
    engine whose estimate is invariant to batch size and domain count,
    with the draw projected onto the tape's touched variables (bitwise
    equal to the full draw). Returns [Error (Config _)] when
    [~project:true] is requested without the ziggurat sampler,
    [Error (Invalid_input _)] on a non-positive sample count or a
    model/basis disagreement — the same typed-error discipline as
    {!fit}. *)
