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
    before the tree starts, and so is the solved root LP: the tree's
    root node adopts it instead of solving the same LP again. *)

type result = {
  incumbent : (float array * float) option;
      (** feasible point and its objective in the internal minimization
          sense ([obj_const] included) *)
  dives : int;  (** LP re-solves performed after the root solve *)
  lp : Simplex.stats;  (** every pivot of the run, the root solve included *)
  lp_time : float;
  root_lp : Simplex.t option;
      (** a {!Simplex.copy} of the instance taken right after the root
          solve, before any dive fixes a bound — [None] when that solve
          was not optimal. Its counters already hold the root solve
          (counted in [lp]); pass it to {!Branch_bound.solve}'s [?root]
          together with the same problem. *)
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
