(** Q-fold cross-validation (Section IV-C, Fig. 2 of the paper).

    The driver is generic: a [fit] function is trained on the union of
    Q−1 groups and an [error] function scores it on the held-out group;
    the per-fold errors are averaged. For λ-sweeps the fit returns a
    whole curve (error as a function of λ), matching the paper's
    description that "εq is not simply a value, but a 1-D function
    of λ". *)

type plan = { folds : int; assignment : int array }
(** A fold assignment over [n] sample indices. *)

val make_plan : Randkit.Prng.t -> n:int -> folds:int -> plan
(** Balanced random assignment (Fig. 2's partition into Q groups). *)

val fold_indices : plan -> int -> int array * int array
(** [fold_indices plan q] is [(train, held_out)] for run [q]. *)

val run :
  ?pool:Parallel.Pool.t -> plan -> fit:(train:int array -> 'model) ->
  error:('model -> held_out:int array -> float) -> float
(** [run plan ~fit ~error] executes the Q runs and returns the average
    held-out error [ (ε₁ + … + ε_Q)/Q ].

    With [?pool] the Q runs execute fold-parallel (one fold per chunk);
    [fit] and [error] are then called from several domains concurrently
    and must not share mutable state (capture a per-fold
    {!Randkit.Prng.split_n} stream, never one shared generator). The
    per-fold errors are summed in fold order after all folds complete,
    so the average is bitwise identical to the sequential run for every
    domain count. Without [?pool] the folds run sequentially, exactly as
    before — side-effecting closures remain safe. *)

type fold_cache = {
  load : int -> float array option;
      (** [load q] returns fold [q]'s previously computed curve, or
          [None] to fit it. Called sequentially, in fold order, before
          any job runs. *)
  store : int -> float array -> unit;
      (** [store q curve] persists a freshly fitted fold curve; called
          as soon as the job finishes (possibly from a worker domain —
          stores for distinct folds must not share unsynchronized
          state). *)
}
(** Hook for per-fold checkpointing of a λ-sweep: a killed CV run
    resumes at the first fold [load] cannot supply. The IO itself (file
    naming, validation against the plan) lives with the caller — see
    [Rsm.Select]. *)

type job = {
  output : int;  (** response index [r] *)
  fold : int;  (** fold index [q] *)
  train : int array;  (** training rows of fold [q], ascending *)
  held_out : int array;  (** held-out rows of fold [q], ascending *)
}
(** One (output, fold) cell of a CV grid. *)

type fitter = job array -> finish:(int -> float array -> unit) -> unit
(** How a grid's pending jobs are fitted: [fit jobs ~finish] must call
    [finish i curve] exactly once per job [jobs.(i)], as soon as that
    job's held-out error curve is known. A fitter may fit the jobs one
    by one ({!each}) or advance them together and share per-step work
    (the fused lockstep fitter in [Rsm.Select]). *)

val each : ?pool:Parallel.Pool.t -> (job -> float array) -> fitter
(** [each fit_curve] is the per-job fitter: every job is fitted on its
    own, one pool chunk per job when [?pool] is given (sequentially
    otherwise). [fit_curve] is then called from several domains
    concurrently and must not share mutable state across jobs. *)

val run_grid :
  ?caches:fold_cache option array ->
  outputs:int ->
  plan ->
  fit:fitter ->
  float array array array
(** [run_grid ~outputs plan ~fit] is the CV fold-curve grid: [R =
    outputs] responses share one fold plan, and every (output, fold)
    cell whose curve is not cached becomes a {!job} (output-major, folds
    ascending within each output), all handed to {e one} [fit] call.
    The result is indexed [.(r).(q)]; each cell holds exactly the curve
    its job produced, so any fitter whose per-job curves equal
    independent fits yields the same grid, at every domain count.

    [?caches] supplies one optional {!fold_cache} per output: loads
    happen sequentially before fitting, and a job's curve is stored the
    moment the fitter finishes it — a fitter that raises part-way leaves
    every finished job stored. Because a stored curve is the bitwise
    result of the fit (text checkpoints must round-trip at full
    precision, e.g. ["%.17g"]), a resumed grid equals an uninterrupted
    one bit for bit.
    @raise Invalid_argument when [outputs < 1], when [caches] has the
    wrong length, or when [fit] returns without finishing every job. *)

val run_curves :
  ?pool:Parallel.Pool.t -> plan ->
  fit_curve:(train:int array -> held_out:int array -> float array) ->
  float array
(** [run_curves plan ~fit_curve] supports λ-sweeps: each run returns the
    error at every candidate λ measured on its held-out group; the
    result is the pointwise average curve ε(λ). All runs must return
    curves of equal length. [?pool] has the same contract and
    determinism guarantee as in {!run}: fold-parallel fits, fold-order
    averaging, bitwise-stable result.
    @raise Invalid_argument on curves of different lengths. *)

val argmin : float array -> int
(** Index of the smallest entry (first on ties); NaNs are ignored unless
    all entries are NaN, in which case index 0 is returned. *)
