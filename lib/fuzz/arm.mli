(** One configuration arm of the differential matrix.

    Every arm must prove the same objective and status on every
    instance; a disagreement between any arm and the reference is a
    solver bug by construction. The matrix spans [parallelism] (1, 2,
    4), the cut configuration (full pool, cuts off, pre-pool baseline),
    warm vs cold starts, and the LU triangular-solve kernel. Fuzz
    instances sit below the [Auto] kernel's size floor, so the
    forced-Sparse [-slu] arms are what exercises the hypersparse path
    and the forced-Dense [-dlu] arms pin the baseline — every kernel
    must reproduce the reference's trajectory pivot for pivot, so any
    numeric divergence between the kernels surfaces as an objective or
    status disagreement. *)

type t = {
  name : string;
      (** [j<parallelism>-<full|nocuts|baseline>[-warm]], then
          [-slu] for a forced-[Sparse] kernel or [-dlu] for a
          forced-[Dense] one *)
  config : Mm_lp.Config.t;
      (** the solver configuration; its [time_limit] is replaced by
          {!solve}'s *)
  warm : bool;
      (** solve twice through one {!Mm_lp.Solver.warm} state and report
          the second (warm-started) result *)
}

val reference : t
(** The anchor arm every other arm is compared against: serial, full
    cut pool, cold. *)

val matrix : t list
(** The non-reference arms, in rotation order. A campaign runs the
    reference plus a per-case rotating subset, so all arms accumulate
    coverage across a few thousand cases without solving every instance
    under every arm. *)

val solve : ?time_limit:float -> t -> Mm_lp.Problem.t -> Mm_lp.Solver.result
(** Solves under this arm's configuration; for a [warm] arm this is two
    chained solves through one warm state, returning the second. *)
