(** The sweep backend of the OMP, STAR and LAR path drivers, at every
    shard count.

    It owns the Exact | Incremental choice ({!Corr_sweep.sweep}), the
    incremental refresh cadence and the checkpoint-aligned refresh, so
    the drivers hold only their engine calls.  One shard is the
    unsharded fit: an in-image window over the whole dictionary, no
    copy.

    Partitions the dictionary's columns into contiguous shards; each
    shard owns a {!Polybasis.Design.Provider.window} of the design
    source, its own column norms and skip masks, and (incremental
    mode) its own Gram-cache slab keyed by global column index.  The
    per-step O(K·M) sweeps of LAR/OMP/STAR then decompose into
    shard-local scans whose results merge through fixed-shape,
    left-biased tree reductions — bitwise identical to the sequential
    full-dictionary scan at {e any} shard count, because every local
    kernel runs the exact per-column float sequence of the full kernel
    and every combine (max, min, lowest-index argmax) is exact.

    Two execution modes:

    - {!Domains}: shards live in the calling image, driven in shard
      order.  Cheap; memory is the same as the unsharded fit.
    - {!Procs}: each shard is this same executable re-exec'd
      ([fork]+[exec] immediately, safe under OCaml 5 domains) with
      [RSM_SHARD_WORKER=1], talking Marshal over its stdin/stdout.
      Each worker's peak memory is its own window plus its slab —
      O(K·N·(order+1) + p·M/S) floats — which is what lets an M = 10⁶
      fit clear a single-image memory ceiling.  The parent keeps a
      replay log of every state-changing command; a worker that dies
      (crash, OOM kill) is respawned, replays the log, and rejoins the
      fleet bitwise — fits survive shard loss with identical output.

    Host executables that use [Procs] mode {b must} call
    {!worker_entry_if_requested} before anything else in [main]. *)

type mode = Domains | Procs

val mode_of_string : string -> mode option
(** ["domain"]/["domains"] and ["process"]/["procs"]. *)

val mode_to_string : mode -> string

(** Merged result of a LARS selection scan: C over non-banned columns,
    the entering candidate (lowest global index on ties), its
    normalized correlation value, and the correlation values at every
    active column (shard-ascending, hence global-ascending, order). *)
type pick = {
  big_c : float;
  enter : int;
  enter_abs : float;
  enter_val : float;
  act_c : (int * float) array;
}

type t

val create :
  ?pool:Parallel.Pool.t ->
  mode:mode ->
  shards:int ->
  sweep:Corr_sweep.sweep ->
  Polybasis.Design.Provider.t ->
  r0:Linalg.Vec.t ->
  t
(** [create ~mode ~shards ~sweep src ~r0] partitions [src]'s columns
    into [min shards (cols src)] contiguous shards and initializes
    every shard against the starting residual [r0] (incremental mode
    runs each window's initial exact sweep).  [pool] is used by
    in-image shards; process workers run single-domain pools of their
    own.  @raise Invalid_argument on [shards < 1], a negative refresh
    cadence or a residual length mismatch. *)

val run :
  ?pool:Parallel.Pool.t ->
  ?recovered:int ref ->
  mode:mode ->
  shards:int ->
  sweep:Corr_sweep.sweep ->
  Polybasis.Design.Provider.t ->
  r0:Linalg.Vec.t ->
  (t -> 'a) ->
  'a
(** [run ~mode ~shards ~sweep src ~r0 f] is [f] applied to a fresh
    backend ([shards = 1] always runs in-image), shut down however [f]
    returns; [recovered] (when given) accumulates its worker
    recoveries — atomically, so fleets running on several domains may
    share one counter. *)

val shutdown : t -> unit
(** Quit and reap process workers; no-op for in-image shards.  Wrap
    fits in [Fun.protect] so abandoned fleets never leak processes. *)

val shards : t -> int
(** Actual shard count after clamping to the column count. *)

val recovered : t -> int
(** Number of worker respawn+replay recoveries performed so far. *)

val raw_norms : t -> Linalg.Vec.t
(** Column norms gathered from the shards, without the [<= 0 → 1]
    fixup — bitwise [Provider.column_norms] of the full source.  Shards
    compute them on first use (the LARS scans or this call). *)

val activate : t -> int -> Linalg.Vec.t -> unit
(** [activate t j col] marks global column [j] active (it leaves the
    entering scans) and, in incremental mode, has {e every} shard
    build its slab slice v_j = Gᵀ_win·[col] — the O(K·M) build,
    sharded, that later delta updates amortize. *)

val deactivate : t -> int -> unit
(** Lasso drop: [j] re-enters the entering scans.  Slab slices are
    retained (re-entry is free). *)

val ban : t -> int -> unit
(** Exclude [j] from every later scan (dependent-column fallback). *)

val apply_deltas :
  t -> (int * float) array -> residual:(unit -> Linalg.Vec.t) -> unit
(** Incremental OMP/STAR movement step: c ← c − Σ Δβ_j·v_j on every
    shard's slice, then an exact re-sweep of [residual ()] when the
    refresh cadence is due.  No-op in exact mode. *)

val refresh : t -> Linalg.Vec.t -> unit
(** Exact re-sweep of the given residual on every shard (the
    checkpoint-aligned and post-resume refresh); restarts the cadence.
    No-op in exact mode. *)

val select : t -> r:Linalg.Vec.t -> int * float
(** OMP/STAR selection: argmax of |⟨g_j, r⟩| over non-active,
    non-banned columns ([r] is ignored by incremental shards, which
    scan their maintained vectors).  Ties keep the lowest global
    index; [(-1, 0.)] when nothing is eligible. *)

val lars_select : t -> r:Linalg.Vec.t -> pick
(** LARS step-2 scan (see {!pick}); each shard retains its normalized
    correlation slice for the same step's {!lars_gamma}. *)

val lars_gamma :
  t ->
  cc:float ->
  a_a:float ->
  u:Linalg.Vec.t ->
  weights:(int * float) array ->
  float
(** Minimum γ candidate over all shards ([infinity] when none) for the
    equiangular direction [u = Σ wₚ·g_{jₚ}] ([weights] are the
    (column, wₚ) pairs): exact shards sweep [u], incremental shards
    combine their Gram slabs at O(p·M/S).  The caller folds the bound
    against the saturation step C/A and the lasso drop scan.  Shards
    retain the direction image Gᵀ·u for {!commit}. *)

val commit : t -> gamma:float -> residual:(unit -> Linalg.Vec.t) -> unit
(** Advance every shard's maintained correlations by the committed
    step: c ← c − γ·(Gᵀu), plus the exact re-sweep of [residual ()]
    when the cadence is due.  The direction travels with the (logged)
    command so a respawned worker recomputes the identical Gᵀu slice
    from its replayed slab.  No-op in exact mode. *)

val checkpoints :
  t ->
  every:int ->
  on_checkpoint:('c -> unit) option ->
  capture:(unit -> 'c) ->
  residual:(unit -> Linalg.Vec.t) ->
  start:int ->
  (int -> unit) * (int -> unit)
(** The path drivers' checkpoint cadence: [(stepped, finish)].  After
    the [n]-th recorded step, [stepped n] hands [capture ()] to
    [on_checkpoint] when [every > 0] divides [n]; [finish n] does so
    once more when steps were recorded since the last emission (or
    since [start], the resumed count).  Every emission is followed by
    an exact {!refresh} of [residual ()], so a resumed incremental run
    — whose backend starts from an exact sweep there — stays bitwise
    equal to the uninterrupted one.  Without [on_checkpoint] both are
    no-ops. *)

val scan_pick :
  base:int ->
  norms:Linalg.Vec.t ->
  active:bool array ->
  banned:bool array ->
  Linalg.Vec.t ->
  Linalg.Vec.t * pick
(** [scan_pick ~base ~norms ~active ~banned g] normalizes the raw
    correlations [g] of a column window starting at global index [base]
    and reduces them to a {!pick}; returns the normalized vector too,
    for the same step's {!scan_gamma}.  The one LARS correlation scan:
    every shard and the full-vector [Lars.Engine.supply] run it.
    @raise Invalid_argument on a length mismatch. *)

val scan_gamma :
  norms:Linalg.Vec.t ->
  active:bool array ->
  banned:bool array ->
  c:Linalg.Vec.t ->
  cc:float ->
  a_a:float ->
  Linalg.Vec.t ->
  float
(** [scan_gamma ~norms ~active ~banned ~c ~cc ~a_a gu] is the minimum
    step-length candidate over the window's inactive, non-banned
    columns given the raw direction sweep [gu] ([infinity] when none) —
    the one LARS γ scan.  @raise Invalid_argument on a length
    mismatch. *)

val peak_rss_kb : t -> float array
(** Per-shard VmHWM from /proc/self/status, in kB (process mode; the
    parent's own value per shard in domain mode).  0 where
    unavailable. *)

val worker_entry_if_requested : unit -> unit
(** When RSM_SHARD_WORKER=1 is set, runs the worker protocol loop on
    stdin/stdout and exits — never returns.  Otherwise does nothing.
    Call it as the first statement of any [main] that may drive
    process shards.

    The RSM_SHARD_FAULT environment variable (format ["<shard>:<n>"])
    makes that worker SIGKILL itself on its [n]-th selection query —
    the deterministic crash hook behind the recovery tests and the CI
    kill smoke.  Parents strip it when respawning, so the replacement
    survives. *)
