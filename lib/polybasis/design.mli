(** Design-matrix assembly.

    Builds the matrix [G] of eq. (6)–(8): [G(k, m) = g_m(ΔY^{(k)})] for
    [K] sample rows and [M] basis functions. For the paper's large cases
    the dense matrix is the dominant memory cost (e.g. 1000 × 21 311 ≈
    170 MB), so two forms exist: the materialized [Mat.t] built here,
    and the matrix-free {!Provider} that streams column blocks on demand
    from per-sample Hermite tables (peak memory [O(K·B)] scratch plus
    [O(K·N·(order+1))] tables, independent of [M]). *)

val matrix : ?pool:Parallel.Pool.t -> Basis.t -> Linalg.Mat.t -> Linalg.Mat.t
(** [matrix b samples] for [samples] of shape [K×N] is the [K×M] design
    matrix. Rows are evaluated in parallel over [pool] (default: the
    shared {!Parallel.Pool.default} pool); each chunk fills a disjoint
    row block from its own Hermite tables, so the result is bitwise
    identical to the sequential evaluation for every domain count.
    Terms are compiled once to offsets into a flat per-row Hermite
    table, and each entry is the product [1 · a · b …] of
    {!Term.eval_tables} in the same order, bitwise {!Basis.eval_point}
    of the row. No entry is boxed, and the matrix is not zero-filled
    first, so the row chunks are the first to touch its pages.
    @raise Invalid_argument when [N ≠ Basis.dim b]. *)

val matrix_rows :
  ?pool:Parallel.Pool.t -> Basis.t -> Linalg.Vec.t array -> Linalg.Mat.t
(** Same, from an array of sample vectors; identical parallelism and
    determinism guarantee as {!matrix}. A design of 2²³ entries (64 MB)
    or more runs [Gc.full_major] first, so a previous fit's dead matrix
    is returned before this one is touched and repeated fits in one
    process peak at one matrix. *)

val row : Basis.t -> Linalg.Vec.t -> Linalg.Vec.t
(** [row b dy] is one design row (alias of [Basis.eval_point]). *)

val column_norms : ?pool:Parallel.Pool.t -> Linalg.Mat.t -> Linalg.Vec.t
(** Euclidean norm of every column — used by LAR's normalization and to
    sanity-check conditioning of the sampled dictionary. Columns are
    chunked over [pool]; each column's sum of squares accumulates over
    rows in ascending order, so the result is bitwise identical to the
    sequential loop for every domain count. *)

(** A design-matrix source the solvers consume without knowing whether
    the matrix is materialized.

    [Dense] is a row-mapped view of an existing [Mat.t]: a list of its
    rows and a range of its columns. {!Provider.select_rows} and
    {!Provider.window} compose that map and share the matrix, so the CV
    folds, held-out sets and in-process shard windows of a dense fit all
    read one [K×M] matrix — peak memory is that one matrix, not one copy
    per fold. Only {!Provider.to_dense} and {!Provider.spec} materialize
    a view (a proper sub-view is copied; the full view returns the
    matrix itself); they serve process shards and solvers that need a
    plain [Mat.t].

    [Streamed] generates any column on demand from cached 1-D Hermite
    value tables — [K·N·(order+1)] floats built once per fit by the
    same three-term recurrence as
    {!Basis.fill_tables}, laid out sample-innermost so per-column sweeps
    read contiguous memory. Every term is pre-compiled to absolute
    table offsets, so the correlation sweep's inner loop is pure float
    loads and multiplies.

    {b Bitwise contract}: every streamed entry equals the dense entry
    produced by {!matrix_rows} bit for bit (same recurrence, same
    product order as [Term.eval_tables]), and every kernel below
    accumulates whole columns over rows in ascending order — on a dense
    view, over the view's local rows, so each column is the float
    sequence of the equivalent copied matrix. Dense views, their
    copies, and streamed providers therefore yield bitwise-identical
    sweeps, norms, dots — and hence identical solver paths — at every
    domain count. *)
module Provider : sig
  type t

  val dense : Linalg.Mat.t -> t
  (** The full view of a materialized design matrix (identity row map,
      all columns). The matrix is shared, not copied: do not mutate it
      while the provider or any view of it is in use. *)

  val streamed : ?tile_cols:int -> Basis.t -> Linalg.Vec.t array -> t
  (** [streamed b samples] is the matrix-free provider for the design
      matrix {!matrix_rows}[ b samples], built without materializing
      it. [tile_cols] (default 256) bounds the width of column blocks
      materialized at a time by {!with_tile} and consumers that batch
      columns; it does not affect results.
      @raise Invalid_argument on sample-dimension mismatch or
      non-positive [tile_cols]. *)

  val rows : t -> int
  (** Sample count [K]. *)

  val cols : t -> int
  (** Basis-function count [M]. *)

  val tile_cols : t -> int

  val is_streamed : t -> bool

  val to_dense : ?pool:Parallel.Pool.t -> t -> Linalg.Mat.t
  (** The full [K×M] matrix. Free for the full view of a dense matrix;
      copies the viewed block for a proper dense view; materializes (via
      {!matrix_rows}) for [Streamed] — only call this on paths that
      genuinely need the dense form. *)

  val select_rows : t -> int array -> t
  (** Row-subset provider (the CV folds): local row [i] is row
      [idx.(i)] of [p]. [Dense] composes the row maps in O(|idx|) and
      shares the matrix — no row is copied; [Streamed] rebuilds the
      Hermite tables over the sample subset. Both are bitwise identical
      to gathering rows of the materialized matrix. Indices may repeat
      and need not be sorted.
      @raise Invalid_argument on an out-of-range index, with the message
      of {!Linalg.Mat.select_rows} for [Dense]. *)

  val window : t -> jlo:int -> jhi:int -> t
  (** [window p ~jlo ~jhi] is the column-range view [jlo, jhi) of [p],
      reindexed to local columns [0 … jhi−jlo−1] — the per-shard unit
      of the sharded sweep engine. [Streamed] windows share the
      parent's Hermite value table (K·N·(order+1) floats, independent
      of M) and slice the compiled terms, so S windows cost O(M)
      pointer copies total; [Dense] shifts the view's column offset and
      shares the matrix, so a fleet of in-process dense shards holds one
      matrix. Window
      column [j] is generated by exactly the float sequence of parent
      column [jlo + j], so every kernel on the window is bitwise equal
      to the corresponding slice of the full-provider kernel.
      @raise Invalid_argument on an empty or out-of-bounds range. *)

  val spec : t -> [ `Dense of Linalg.Mat.t | `Streamed of Basis.t * Linalg.Vec.t array ]
  (** The construction recipe — basis and samples for [Streamed], the
      matrix for [Dense]. Process-sharded fitting ships a term slice of
      the recipe to each worker, which rebuilds its window from scratch
      (bitwise-identical Hermite recurrences) in its own address
      space. A dense view is materialized as in {!to_dense}. *)

  val column : t -> int -> Linalg.Vec.t
  (** [column p j] is a fresh copy of column [j]. *)

  val column_into : t -> int -> Linalg.Vec.t -> unit
  (** [column_into p j buf] writes column [j] into the caller's reusable
      [K]-length buffer. *)

  val columns : t -> int array -> Linalg.Mat.t
  (** [columns p idx] materializes the listed columns as a small
      [K×|idx|] matrix (the active-set cache of the matrix-free
      solvers). *)

  val col_dot : t -> int -> Linalg.Vec.t -> float
  (** [col_dot p j x] is [⟨column j, x⟩], rows ascending — bitwise
      [Mat.col_dot] on the dense form. *)

  val col_col_dot : t -> int -> int -> float
  (** [⟨column i, column j⟩] — bitwise [Mat.col_col_dot] on the dense
      form. *)

  val with_tile : t -> jlo:int -> jhi:int -> (float array -> 'a) -> 'a
  (** [with_tile p ~jlo ~jhi f] materializes the column block
      [jlo, jhi) into a reusable row-major [K×(jhi−jlo)] scratch tile
      and applies [f]. The tile is recycled after [f] returns; do not
      retain it. This is the bounded-memory unit for dense-block
      consumers: at most [K·tile_cols] floats live per consumer. *)

  val column_norms : ?pool:Parallel.Pool.t -> t -> Linalg.Vec.t
  (** Euclidean norm of every column; bitwise equal to
      {!column_norms} of the dense form at every domain count. *)

  val gram_tr : ?pool:Parallel.Pool.t -> t -> Linalg.Vec.t -> Linalg.Vec.t
  (** [gram_tr p r] is the full correlation sweep [Gᵀ·r] (OMP step 3 /
      LAR step 2), column-chunked over [pool]. Streamed providers fuse
      generation into the dot product — each column is never stored.
      Bitwise identical dense vs streamed at every domain count. *)

  val argmax_abs :
    ?pool:Parallel.Pool.t -> skip:bool array -> t -> Linalg.Vec.t -> int * float
  (** [argmax_abs ~skip p r] is [(j*, |⟨g_{j*}, r⟩|)] over columns with
      [skip.(j) = false], or [(-1, 0.)] when all are skipped. Ties keep
      the lowest column index (strict [>] scan; earlier chunk wins the
      combine), matching a sequential left-to-right scan. *)

  val gram_tr_multi :
    ?pool:Parallel.Pool.t ->
    t ->
    rows:int array array ->
    Linalg.Vec.t array ->
    Linalg.Vec.t array
  (** [gram_tr_multi p ~rows rs] is the fused multi-residual sweep: for
      each fold [q], the correlation vector
      [gram_tr (select_rows p rows.(q)) rs.(q)] — but every column is
      generated (streamed) or read (dense) exactly {e once} and dotted
      against all Q fold residuals, so matrix-free CV pays column
      generation once per step instead of once per fold. Each fold's
      dots accumulate over its rows in ascending order, so the result is
      bitwise identical to the Q independent sweeps at every domain
      count. Row sets must be strictly ascending (what
      {!Stat.Crossval.fold_indices} produces).
      @raise Invalid_argument on empty input, count/length mismatches,
      or non-ascending/out-of-range rows. *)

  val argmax_abs_multi :
    ?pool:Parallel.Pool.t ->
    skips:bool array array ->
    t ->
    rows:int array array ->
    Linalg.Vec.t array ->
    (int * float) array
  (** [argmax_abs_multi ~skips p ~rows rs] is per-fold
      {!argmax_abs}[ ~skip:skips.(q) (select_rows p rows.(q)) rs.(q)]
      with the same single-generation fusion and the same bitwise
      guarantee as {!gram_tr_multi} (strict [>], earlier chunk wins
      ties). This is the selection kernel of the fused lockstep CV
      driver in [Rsm.Select]. *)

  (** Per-fit cache of materialized active-set columns. The greedy
      solvers touch a few hundred columns out of up to ~10⁵; caching
      them (K floats each) keeps the active-set work (cross products,
      re-fit residuals, direction updates) dense-speed without the full
      matrix. Not thread-safe — one cache per solver invocation. *)
  module Cache : sig
    type provider := t

    type t

    val create : provider -> t

    val column : t -> int -> Linalg.Vec.t
    (** Materialize-once copy of column [j]; later calls return the same
        array. Treat it as read-only. *)

    val col_dot : t -> int -> Linalg.Vec.t -> float
    (** [Vec.dot] of the cached column against [x] — bitwise
        {!Provider.col_dot}. *)

    val col_col_dot : t -> int -> int -> float
    (** [Vec.dot] of two cached columns — bitwise
        {!Provider.col_col_dot}. *)
  end
end
