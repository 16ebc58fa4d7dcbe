(** Dense row-major matrices of floats.

    The representation is a flat [float array] of length [rows·cols]; entry
    [(i, j)] lives at index [i·cols + j]. Row-major layout keeps the inner
    loops of the regression kernels (correlations of one column against a
    residual, Gram-matrix assembly) cache-friendly for tall design matrices.

    Dimensions are validated on every operation; mismatches raise
    [Invalid_argument]. *)

type t = private { rows : int; cols : int; data : float array }

val create : int -> int -> t
(** [create r c] is the zero matrix of shape [r×c]. *)

val uninit : int -> int -> t
(** [uninit r c] is an [r×c] matrix with unspecified entries: there is
    no zero-fill pass, so a parallel builder is the first to touch its
    pages. Every entry must be written before it is read. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init r c f] fills entry [(i, j)] with [f i j]. *)

val of_arrays : float array array -> t
(** [of_arrays rows] builds a matrix from an array of equal-length rows. *)

val to_arrays : t -> float array array

val identity : int -> t

val copy : t -> t

val dims : t -> int * int
(** [dims a] is [(rows, cols)]. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val unsafe_get : t -> int -> int -> float

val unsafe_set : t -> int -> int -> float -> unit

val row : t -> int -> Vec.t
(** [row a i] is a fresh copy of row [i]. *)

val col : t -> int -> Vec.t
(** [col a j] is a fresh copy of column [j]. *)

val set_row : t -> int -> Vec.t -> unit

val set_col : t -> int -> Vec.t -> unit

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val smul : float -> t -> t

val mul : t -> t -> t
(** [mul a b] is the matrix product [a·b]. *)

val mulv : t -> Vec.t -> Vec.t
(** [mulv a x] is [a·x]. *)

val tmulv : t -> Vec.t -> Vec.t
(** [tmulv a x] is [aᵀ·x], computed without forming the transpose. *)

val gram : t -> t
(** [gram a] is [aᵀ·a], exploiting symmetry (only the upper triangle is
    computed and mirrored). *)

val col_dot : t -> int -> Vec.t -> float
(** [col_dot a j x] is [⟨column j of a, x⟩] without copying the column. *)

val col_col_dot : t -> int -> int -> float
(** [col_col_dot a i j] is [⟨column i, column j⟩], accumulated over rows
    in ascending order — the one shared kernel behind the greedy
    solvers' active-set cross products (OMP steps 4–5, LARS Gram
    updates). Bitwise identical to [Vec.dot (col a i) (col a j)]. *)

val col_sub_dot : t -> int -> int -> Vec.t -> float
(** [col_sub_dot a j k x] is [Σ_{i<k} a(i,j)·x(i)]: the dot product of the
    first [k] entries of column [j] against the first [k] entries of [x]. *)

val cols_gram : t -> int array -> t
(** [cols_gram a idx] is the Gram matrix of the columns of [a] selected by
    [idx] (shape [|idx|×|idx|]). *)

val select_cols : t -> int array -> t
(** [select_cols a idx] is the submatrix of the columns listed in [idx]. *)

val select_rows : t -> int array -> t
(** [select_rows a idx] is the submatrix of the rows listed in [idx]
    (rows are block-copied). *)

val frobenius : t -> float
(** [frobenius a] is the Frobenius norm. *)

val max_abs : t -> float
(** [max_abs a] is [max |a(i,j)|]. *)

val approx_equal : ?tol:float -> t -> t -> bool

val is_symmetric : ?tol:float -> t -> bool

val pp : Format.formatter -> t -> unit
(** Pretty-printer; abbreviates matrices larger than 8×8. *)
