(** Cross-validated choice of the sparsity level λ (Section IV-C).

    For each fold, the solver's whole path (λ = 1 … max_lambda) is fit
    on the training groups and scored on the held-out group, giving the
    per-run error {e function} ε_q(λ); the averaged curve ε(λ) is
    minimized over λ and the winning λ is refit on the full data — the
    exact procedure of Fig. 2 and the surrounding text.

    The [_p] variants consume a {!Polybasis.Design.Provider}, so the
    whole CV loop runs matrix-free: fold providers are row-subset
    rebuilds (no K×M gather), held-out scoring streams only the support
    columns. Dense and matrix-free runs select the same λ and model,
    bit for bit.

    {2 Parallelism and determinism}

    The Q fold fits are independent and run fold-parallel over [?pool]
    (default: {!Parallel.Pool.default}); the underlying solvers also
    parallelize their own Gᵀ·r correlation sweeps over the same pool.
    Each fold receives its own PRNG stream, split from the master
    generator {e in fold order before any fold runs}
    ({!Randkit.Prng.split_n}), and the fold curves are averaged in fold
    order after all folds complete. The selected λ, the curve and the
    refit model are therefore bitwise identical to a sequential run for
    a fixed seed, at {e every} domain count. *)

type rule =
  | Min_error  (** λ at the minimum of ε(λ) — the paper's choice *)
  | One_se
      (** the smallest λ whose ε(λ) is within one fold-to-fold standard
          error of the minimum — the classic parsimony-biased variant
          (Hastie et al. §7.10); picks visibly sparser models when the
          CV curve has a flat valley *)

type result = {
  model : Model.t;  (** refit on all data at the chosen λ *)
  lambda : int;  (** chosen sparsity level (1-based) *)
  curve : float array;  (** ε(λ) for λ = 1 … max_lambda *)
}

val fused :
  sweep:Corr_sweep.sweep -> shards:int -> streamed:bool -> outputs:int ->
  bool
(** The one rule that picks how the CV grid fits its (output × fold)
    jobs: [fused ~sweep ~shards ~streamed ~outputs] holds exactly when
    [sweep = Exact], [shards <= 1], and the provider is streamed or
    [outputs >= 2].

    - {e Fused} mode advances one solver engine per job in lockstep and
      serves every live job's step from one multi-residual sweep
      ({!Corr_sweep.argmax_abs_multi}, {!Corr_sweep.gram_tr_multi}), so
      each streamed column is generated once per round for the whole
      grid. It needs the exact sweep on one shard: incremental state
      belongs to one path, and a sharded fleet owns its path's sweep.
    - {e Per-job} mode fits each job's whole path on its own
      ({!Omp.path_p}, {!Star.path_p}, {!Lars.path_p} on the
      {!Shard_sweep} backend), one pool chunk per job.

    Both modes give bitwise-identical curves, λ and models; the rule
    only picks the faster one. *)

val omp_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t -> result
(** Default [folds = 4] (the paper's Fig. 2 setting) and
    [rule = Min_error]. [on_singular] is forwarded to {!Omp.path_p} for
    every fold fit and the final refit. [checkpoint]/[resume] as in
    {!generic_p}.

    [sweep] (default [Exact]) and [shards]/[shard_mode]/[recovered]
    (see {!Omp.path_p}) are forwarded to every per-job fold fit and the
    final refit; with the provider form they also pick the grid's mode
    by {!fused} (one output). The selected λ, curve and model are
    bitwise identical in either mode and at every shard count.
    @raise Invalid_argument when [Array.length f] differs from the
    provider's row count, before any fold runs. *)

val star_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t -> result
(** [sweep]/[shards]/[shard_mode]/[recovered] as in {!omp_p}. *)

val lars_p :
  ?folds:int -> ?rule:rule -> ?mode:Lars.mode -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?checkpoint:string -> ?resume:bool ->
  Randkit.Prng.t -> max_lambda:int -> Polybasis.Design.Provider.t ->
  Linalg.Vec.t -> result
(** [on_singular] is forwarded to {!Lars.path_p} for every fold fit and
    the final refit. [checkpoint]/[resume] as in {!generic_p}; [sweep]
    and [shards]/[shard_mode]/[recovered] as in {!omp_p}. In fused mode
    each fold's walk runs on a {!Lars.Engine}, and each lockstep round
    serves both of its per-step sweeps from one
    {!Corr_sweep.gram_tr_multi} pass.

    In [Lar] mode every walk — fold engines, per-job {!Lars.path_p}
    fits and the final refit — runs with [~max_support] set to the
    largest λ it can feed ([max_lambda] on the folds, the chosen λ on
    the refit), so it stops right after its first step past that
    support instead of spending the rest of the [2λ + 8] step budget;
    a clean walk then needs at most [2λ + 2] sweeps. The λ, curve and
    model are bitwise those of uncapped walks. [Lasso] walks, whose
    drops can shrink the support, run the whole budget. *)

val generic_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int ->
  path_models:
    (rng:Randkit.Prng.t -> Polybasis.Design.Provider.t -> Linalg.Vec.t ->
     max_lambda:int -> Model.t array) ->
  Polybasis.Design.Provider.t -> Linalg.Vec.t -> result
(** The underlying driver: [path_models] maps a training design/response
    to the per-λ models (an array shorter than [max_lambda] is padded by
    repeating its last model — an early-stopped path keeps its final
    error for larger λ). Exposed for user-supplied solvers; their folds
    always run in per-job mode.

    [path_models] may be called concurrently from several domains (one
    per fold) and must not share mutable state across calls; the [rng]
    it receives is the fold's own deterministic stream (the final refit
    gets one more dedicated stream), so stochastic solvers stay
    reproducible under fold-parallel execution.

    With [checkpoint = base], every finished fold writes a
    {!Serialize.Checkpoint.Cv} file at [base.fold<q>] (atomic rename).
    With [resume = true] (requires [checkpoint]), matching fold files
    are loaded back and their fits skipped, so a killed sweep resumes at
    the first unfinished fold; per-fold PRNG streams are split before
    any fold runs either way, and loaded curves round-trip at full
    precision, so the selected λ, curve and refit model are bitwise
    identical to an uninterrupted run at every domain count. A fold file
    whose shape or fold-plan digest disagrees with the sweep (different
    seed, data size, fold count or λ grid) raises [Invalid_argument]
    rather than polluting the average.
    @raise Invalid_argument if a fold produces an empty path, or when
    [Array.length f] differs from the provider's row count. *)

(** {2 Multi-output selection}

    R performance metrics of one circuit share the design matrix; the
    [_multi_p] drivers share everything else too: one fold plan, one
    (output × fold) job grid of R×Q fold fits — fused by default, so a
    single multi-residual sweep per round serves every output and fold
    (see {!fused}) — and R per-output refits. Output [r]'s result — λ,
    curve, model — is bitwise identical to the corresponding
    single-output [_p] call on [fs.(r)] with a {!Randkit.Prng.copy} of
    the same generator, in either mode. *)

val omp_multi_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t array ->
  result array
(** Multi-output OMP selection, one {!result} per response in order.
    The labels are {!omp_p}'s; the grid's mode is {!fused} with
    [outputs = Array.length fs].

    [checkpoint]/[resume]: with [checkpoint = base], the grid writes a
    {!Serialize.Checkpoint.Multi} manifest at [base.multi] and each
    finished (output, fold) cell as an ordinary Cv fold file at
    [base.out<r>.fold<q>]; with [resume], matching cell files are
    loaded and their fits skipped — bitwise identical to an
    uninterrupted run, whichever mode wrote or resumes them. A manifest
    or cell file disagreeing with the grid shape or fold plan raises
    [Invalid_argument].
    @raise Invalid_argument when [fs] is empty or a response's length
    differs from the provider's row count, before any fold runs. *)

val star_multi_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t array ->
  result array
(** As {!omp_multi_p} for STAR. *)

val lars_multi_p :
  ?folds:int -> ?rule:rule -> ?mode:Lars.mode -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t array ->
  result array
(** As {!omp_multi_p} for the LAR/lasso walk. *)

val omp :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] -> Randkit.Prng.t ->
  max_lambda:int -> Linalg.Mat.t -> Linalg.Vec.t -> result
(** {!omp_p} over [Provider.dense g]. *)

val star :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t -> Randkit.Prng.t ->
  max_lambda:int -> Linalg.Mat.t -> Linalg.Vec.t -> result

val lars :
  ?folds:int -> ?rule:rule -> ?mode:Lars.mode -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  Randkit.Prng.t -> max_lambda:int -> Linalg.Mat.t -> Linalg.Vec.t -> result

val generic :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t -> Randkit.Prng.t ->
  max_lambda:int ->
  path_models:
    (rng:Randkit.Prng.t -> Linalg.Mat.t -> Linalg.Vec.t -> max_lambda:int ->
     Model.t array) ->
  Linalg.Mat.t -> Linalg.Vec.t -> result
(** {!generic_p} over [Provider.dense g]; [path_models] receives each
    fold's materialized training matrix (free for a dense provider). *)
