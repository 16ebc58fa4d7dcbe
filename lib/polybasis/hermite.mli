(** Normalized probabilists' Hermite polynomials.

    These are the 1-D building blocks of the paper's basis (Section II,
    eq. (3)): polynomials [He_n] orthogonal under the standard normal
    weight, normalized so that [E[gᵢ(y)·gⱼ(y)] = δᵢⱼ] for [y ~ N(0,1)].

    The normalized family is [g_n(y) = He_n(y)/√(n!)]:
    [g_0 = 1], [g_1 = y], [g_2 = (y² − 1)/√2], [g_3 = (y³ − 3y)/√6], … *)

val eval : int -> float -> float
(** [eval n y] is the normalized polynomial [g_n(y)].
    Computed by the stable three-term recurrence
    [g_{n+1} = (y·g_n − √n·g_{n-1})/√(n+1)].
    @raise Invalid_argument for negative [n]. *)

val eval_all : int -> float -> float array
(** [eval_all n y] is [| g_0(y); …; g_n(y) |] in one recurrence pass. *)

val eval_all_into : float array -> pos:int -> deg:int -> float -> unit
(** [eval_all_into out ~pos ~deg y] writes [g_0(y) … g_deg(y)] into
    [out.(pos) … out.(pos + deg)] by the same recurrence as {!eval_all}
    — the shared primitive behind {!Basis.fill_tables} and the design
    builders, which pack the per-variable tables of several variables
    into one flat buffer. The compiled evaluator tapes of [Serve.Eval]
    run the same recurrence in their own loop. Values are bitwise equal
    to {!eval} at every degree.
    @raise Invalid_argument for negative [deg]. *)

val unnormalized : int -> float -> float
(** [unnormalized n y] is the classical probabilists' [He_n(y)]
    ([He_2 = y² − 1], no 1/√n! factor). *)

val coefficients : int -> float array
(** [coefficients n] is the monomial coefficient vector of [He_n]:
    entry [k] multiplies [y^k]. Exact in float for moderate [n]. *)
