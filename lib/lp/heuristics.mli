(** GUB-aware primal heuristics: diving and rounding over
    generalized-upper-bound rows.

    The paper's ILPs carry one equality [sum_t Z[d,t] = 1] per segment
    (the [uniq_%d] uniqueness rows); an integer solution is one winner
    per such GUB set. {!run} solves the relaxation, repeatedly fixes
    the most nearly decided fractional GUB set to its largest variable
    and re-optimizes with the warm dual simplex — O(segments) dives —
    while a GUB-aware rounding of every intermediate point keeps the
    best feasible incumbent seen. The incumbent is handed to
    {!Branch_bound} (published through its atomic-incumbent path)
    before the tree starts. *)

type result = {
  incumbent : (float array * float) option;
      (** feasible point and its objective in the internal minimization
          sense ([obj_const] included) *)
  dives : int;  (** LP re-solves performed after the root solve *)
  lp : Simplex.stats;
  lp_time : float;
}

val gub_rows : Problem.t -> int list
(** Rows reading [sum_j x_j = 1] over two or more binaries with unit
    coefficients. *)

val round_point :
  Problem.t -> gubs:int list -> ints:int list -> float array -> float array option
(** GUB-aware rounding of a fractional point: one winner (largest
    value) per GUB row, remaining integer variables to the nearest
    in-bounds integer. [None] when the result is infeasible. *)

val run :
  ?deadline:float ->
  ?lu_kernel:Lu.kernel ->
  snk:Mm_obs.Trace.sink ->
  Problem.t ->
  result
(** Runs the diving heuristic on (a presolved, possibly cut-extended)
    [p]. Never raises on infeasible dives — they just end the dive with
    the best rounding found so far. *)
