(** Pluggable cut separation (first-class modules, mirroring
    [Mm_mapping.Formulation]).

    A separator reads a fractional point of a problem — and, for
    tableau-based families, the {!Simplex} instance that produced it —
    and emits violated inequalities valid for every integer-feasible
    point. Ranking, deduplication, naming and lifecycle management
    belong to {!Cut_pool}; separators only generate. *)

type cut = {
  family : string;  (** separator tag: ["cover"], ["lcover"], ["gmi"] *)
  terms : (int * float) list;  (** structural-variable coefficients *)
  lb : float;
  ub : float;
}

type ctx = {
  p : Problem.t;
  x : float array;  (** the fractional point, length [ncols] *)
  sx : Simplex.t option;
      (** the freshly optimal instance behind [x]; [None] makes
          tableau-based separators pass *)
}

module type S = sig
  val name : string

  val bound_free : bool
  (** Cuts stay valid whatever the current variable bounds are, so the
      family may separate at branch-and-bound nodes (tightened bounds)
      and share its cuts globally. Tableau-derived families bake the
      current bounds into the cut and must say [false] — they are
      root-only. *)

  val separate : ctx -> cut list
end

type t = (module S)

val name : t -> string
val bound_free : t -> bool
val separate : t -> ctx -> cut list

val viol_tol : float
(** Minimum violation for a cut to be worth emitting. *)

val activity : (int * float) list -> float array -> float

val violation : cut -> float array -> float
(** Positive when the point violates the cut. *)

val cover : t
(** Knapsack cover cuts from all-binary rows (greedy covers on the
    complemented normalization), the historical root separator. *)

val lifted_cover : t
(** Sequence-lifted covers: the cover inequality strengthened by exact
    sequential lifting of the non-cover items (min-weight knapsack DP
    per candidate). Emits only when at least one lifting coefficient is
    nonzero — the unlifted case is {!cover}'s. *)

val gomory : t
(** Gomory mixed-integer cuts read off fractional integer basic rows of
    the optimal tableau ({!Simplex.tableau_row} over
    {!Lu.btran_unit}). Not [bound_free]: separated only at the root. *)

val of_string : string -> t option
