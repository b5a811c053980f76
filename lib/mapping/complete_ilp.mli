(** The complete ("flat view") memory-mapping ILP — the baseline the
    paper compares against (their earlier DATE'01 formulation, ref [9]).

    The paper deliberately omits the full mathematical formulation; this
    is a faithful reconstruction from the variable sets it names:

    - [Z_dt] — segment [d] assigned to type [t];
    - [X_dtip] — segment [d] consumes port [p] of instance [i] of type
      [t];
    - [Y_tipc] — configuration [c] selected for port [p] of instance
      [i] of a multi-configuration type [t].

    Constraints: uniqueness over types; per-(d,t) port demand
    (Σ_ip X = CP_dt · Z_dt); per-port exclusivity (no arbitration); per-
    instance capacity (each consumed port charged the segment's average
    bits-per-port); per-port configuration activation (a used port must
    have a configuration selected). The objective is identical to the
    global model's and depends only on [Z], so both formulations share
    their optimum — the invariant the whole global/detailed split rests
    on (tested in the suite).

    What makes this model slow is exactly what the paper describes: the
    X/Y variable counts scale with instances × ports × configurations,
    and instance interchangeability floods branch-and-bound with
    symmetric subtrees. *)

type build = {
  model : Mm_lp.Model.t;
  problem : Mm_lp.Problem.t;
  z : Mm_lp.Model.var array array;  (** [z.(d).(t)] *)
  num_x : int;  (** number of X variables created *)
  num_y : int;  (** number of Y variables created *)
}

val build :
  ?weights:Cost.weights ->
  ?access_model:Cost.access_model ->
  ?port_model:Preprocess.port_model ->
  ?disaggregated_linking:bool ->
  Mm_arch.Board.t ->
  Mm_design.Design.t ->
  (build, string) result
(** [disaggregated_linking] (default false) additionally emits one
    [X_dtip <= Z_dt] row per X variable. The LP relaxation gets tighter
    at the price of a much larger row count — the classic
    aggregated-vs-disaggregated linking trade-off, measured by the
    [ablation-link] benchmark. *)

type stats = {
  ilp : Mm_lp.Solver.result;
  build_seconds : float;
  solve_seconds : float;
  num_x : int;
  num_y : int;
}

val solve :
  ?weights:Cost.weights ->
  ?access_model:Cost.access_model ->
  ?port_model:Preprocess.port_model ->
  ?solver_options:Mm_lp.Config.t ->
  ?disaggregated_linking:bool ->
  Mm_arch.Board.t ->
  Mm_design.Design.t ->
  (Global_ilp.assignment * stats, Global_ilp.error * stats option) result
(** Solves the flat model and projects the solution onto the type
    assignment (the [Z] variables). *)

module F : Formulation.S with type solution = Formulation.assignment
(** The flat model as a generic {!Formulation} (no [forbidden]
    support: the baseline has no global/detailed retry loop). *)
