(** Unified solver front-end: the four techniques compared throughout
    the paper's Section V, behind one dispatch type. The benches,
    examples and CLI all go through this module so that every experiment
    treats the methods symmetrically. *)

type method_ =
  | Ls  (** least-squares fitting [21] — needs K ≥ M *)
  | Star  (** statistical regression, DAC 2008 [1] *)
  | Lar  (** least angle regression, DAC 2009 [2] *)
  | Lasso  (** LARS with the lasso modification (extension) *)
  | Omp  (** orthogonal matching pursuit (the TCAD paper's method) *)
  | Stomp  (** stagewise OMP (extension) *)
  | Cosamp  (** CoSaMP with support pruning (extension) *)

val all : method_ list
(** The paper's four, in table order: [Ls; Star; Lar; Omp]. *)

val name : method_ -> string

val of_name : string -> method_ option
(** Case-insensitive parse of [name]; ["lar"], ["lars"], ["lasso"],
    ["stomp"] and ["cosamp"] are all understood. *)

val needs_overdetermined : method_ -> bool
(** True only for [Ls]. *)

val fit :
  ?lambda:int -> Linalg.Mat.t -> Linalg.Vec.t -> method_ -> Model.t
(** [fit g f m] with a fixed sparsity budget [lambda] (ignored by [Ls]).
    Default [lambda] is [min(K, M)/2] — prefer {!fit_cv} in real use.
    @raise Invalid_argument when [Ls] is asked to fit an
    underdetermined system. *)

val fit_cv :
  ?folds:int -> ?max_lambda:int -> Randkit.Prng.t -> Linalg.Mat.t ->
  Linalg.Vec.t -> method_ -> Model.t
(** Cross-validated fit: sparsity chosen per Section IV-C for the path
    methods; plain LS for [Ls] (λ is meaningless there). Default
    [max_lambda] is [min(K/2, M, 200)]. *)

val fit_cv_p :
  ?folds:int -> ?max_lambda:int -> ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?cv_checkpoint:string -> ?cv_resume:bool -> ?notes:string array ->
  Randkit.Prng.t ->
  Polybasis.Design.Provider.t -> Linalg.Vec.t -> method_ -> Model.t
(** {!fit_cv} over a design provider. The greedy path methods (STAR,
    LAR, LASSO, OMP) run fully matrix-free on a streamed provider,
    bitwise matching the dense run; [Ls], [Stomp] and [Cosamp]
    materialize the matrix (free when the provider is dense).

    [on_singular] selects the degenerate-Gram policy for the OMP and
    LAR/LASSO fits (see {!Omp.path_p} and {!Lars.path_p}); [`Fallback]
    routes singular active-set re-fits through the {!Refit} ladder
    instead of stopping, recording the rung in {!Model.notes}. Ignored
    by the other methods.

    [sweep] selects the correlation engine for the path methods (default
    {!Corr_sweep.Exact}); [shards]/[shard_mode]/[recovered] route their
    selection sweeps through the column-sharded engine ({!Shard_sweep}).
    Both are forwarded to the {!Select} [_p] entry points, whose CV grid
    picks fused or per-job fitting from them and the provider form
    ({!Select.fused}); selections stay bitwise identical in either mode
    and at every shard count. Ignored by [Ls]/[Stomp]/[Cosamp].

    [cv_checkpoint]/[cv_resume] enable per-fold CV checkpointing for the
    path methods (STAR, LAR, LASSO, OMP) — see {!Select.generic_p}.
    Ignored by [Ls]/[Stomp]/[Cosamp], which have no λ sweep to
    checkpoint.

    [notes] are provenance lines appended to the fitted model's
    {!Model.notes} (deduplicated by {!Model.add_note}) — how the
    pipeline records a quorum-degraded delivery on the artifact itself,
    so the note survives serialization and serving. *)

val fit_multi_p :
  ?folds:int -> ?max_lambda:int -> ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?cv_checkpoint:string -> ?cv_resume:bool -> ?notes:string array array ->
  Randkit.Prng.t ->
  Polybasis.Design.Provider.t -> Linalg.Vec.t array -> method_ ->
  Model.t array
(** [fit_multi_p rng src fs m] fits one model per response in [fs] over
    the shared design — the multi-output extension of {!fit_cv_p}, one
    model per output in order.

    The path methods select every output's λ from one (output × fold)
    grid ({!Select.omp_multi_p} and siblings), fused whenever the rule
    {!Select.fused} holds — each streamed column then generated once
    per greedy step for the whole grid — and per-job otherwise. Output
    [r]'s model is bitwise identical to {!fit_cv_p} on [fs.(r)] with a
    {!Randkit.Prng.copy} of [rng], in either mode, at every domain and
    shard count and in both provider forms. Non-path methods
    ([Ls]/[Stomp]/[Cosamp]) fit each output from a copy of [rng].

    [cv_checkpoint = base] writes a manifest at [base.multi] and
    checkpoints output [r] under
    {!Serialize.Checkpoint.Multi.output_base}[ base r], so a run
    interrupted in one mode resumes bitwise in the other.

    [notes] supplies one provenance-note array per output.
    @raise Invalid_argument when [fs] is empty or [notes] disagrees in
    length. *)
