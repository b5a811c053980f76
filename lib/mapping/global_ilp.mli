(** The global memory-mapping ILP (Section 4.1): assign every data
    structure to exactly one bank type using only the [Z_dt] variables.

    Constraints (4.1.2):
    - uniqueness: each segment on exactly one type;
    - ports: Σ_d Z_dt · CP_dt <= Pt · It per type;
    - capacity: Σ_d Z_dt · CW_dt · CD_dt <= It · capacity per type —
      applied per lifetime clique when lifetime information is present,
      which is the paper's "slightly modified" overlap-aware variant.

    Objective (4.1.3): weighted latency + pin-delay + pin-I/O cost.

    Infeasible (segment, type) pairs get their [Z] fixed to 0, and
    assignments already rejected by a failed detailed-mapping attempt
    can be excluded with no-good cuts ([~forbidden]), implementing the
    paper's global/detailed retry loop. *)

type assignment = int array
(** [a.(d)] is the bank-type index segment [d] is mapped to. *)

type build = {
  model : Mm_lp.Model.t;
  problem : Mm_lp.Problem.t;
  z : Mm_lp.Model.var array array;  (** [z.(d).(t)] *)
  coeffs : Preprocess.t array array;  (** [coeffs.(d).(t)] *)
}

val build :
  ?weights:Cost.weights ->
  ?access_model:Cost.access_model ->
  ?port_model:Preprocess.port_model ->
  ?arbitration:bool ->
  ?forbidden:assignment list ->
  Mm_arch.Board.t ->
  Mm_design.Design.t ->
  (build, string) result
(** Builds the ILP. [Error] when some segment fits no bank type (its
    uniqueness row would be unsatisfiable).

    [port_model] selects the Fig. 3 (default) or improved consumed-port
    charge. [arbitration] (default false) implements the paper's
    Section 6 future-work item: lifetime-disjoint segments may share
    ports, so the port constraints are generated per lifetime clique
    (like the overlap-aware capacity constraints) instead of globally;
    the detailed mapper must then be run with port sharing enabled. *)

type error =
  | No_feasible_type of int  (** segment index with no fitting type *)
  | Ilp_infeasible
  | Ilp_limit  (** solver hit a limit before an incumbent *)

type stats = Formulation.stats = {
  ilp : Mm_lp.Solver.result;
  build_seconds : float;
  solve_seconds : float;
}

val solve :
  ?weights:Cost.weights ->
  ?access_model:Cost.access_model ->
  ?port_model:Preprocess.port_model ->
  ?arbitration:bool ->
  ?solver_options:Mm_lp.Config.t ->
  ?forbidden:assignment list ->
  Mm_arch.Board.t ->
  Mm_design.Design.t ->
  (assignment * stats, error * stats option) result

val assignment_of_solution : build -> float array -> assignment
(** Decodes a 0/1 solution vector into an assignment. *)

module F : Formulation.S with type solution = assignment
(** The global model as a generic {!Formulation}; {!solve} is a thin
    wrapper over [Formulation.solve (module F)] that restores the
    historical {!error} decoding. *)

val assignment_cost :
  ?weights:Cost.weights ->
  ?access_model:Cost.access_model ->
  ?port_model:Preprocess.port_model ->
  Mm_arch.Board.t ->
  Mm_design.Design.t ->
  assignment ->
  float
(** Objective value of an assignment (recomputed independently of the
    ILP — used to cross-check global vs complete formulations). *)

val capacity_cliques : Mm_design.Design.t -> int list list
(** The segment groups over which capacity constraints are generated:
    exact maximal cliques with lifetimes, greedy maximal cliques with
    pair conflicts, a single all-segments group when everything
    conflicts. *)
