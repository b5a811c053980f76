(** End-to-end mapping pipeline.

    [Global_detailed] (the paper's contribution) runs the global ILP,
    then the detailed placer; when detailed mapping fails — the paper's
    Section 4.1 acknowledges this can require iterating — the failing
    assignment is excluded with a no-good cut and the global ILP is
    re-solved, up to [max_retries] times.

    [Complete_flat] runs the baseline flat ILP (the earlier "complete
    memory mapper" the paper compares against) and places with the same
    detailed machinery for reporting purposes. *)

type method_ = Global_detailed | Complete_flat

type detailed_engine = Greedy | Ilp

type options = {
  weights : Cost.weights;
  access_model : Cost.access_model;
  port_model : Preprocess.port_model;  (** default [Fig3] *)
  arbitration : bool;
      (** Section 6 extension: lifetime-disjoint segments may share
          ports (global port constraints per clique, detailed port
          sharing). Default false — the paper's model. *)
  solver_options : Mm_lp.Config.t;
  max_retries : int;  (** global/detailed retry budget, default 5 *)
  allow_overlap : bool;  (** lifetime-aware storage sharing, default true *)
  detailed : detailed_engine;  (** default Greedy *)
  trace : Mm_obs.Trace.t;
      (** structured tracing (default disabled), handed to every ILP
          solve: the mapper records ["ilp"] and ["detailed"] spans per
          attempt plus the placer's per-bank-type events on the trace's
          root sink *)
}

val default_options : options

val options :
  ?weights:Cost.weights ->
  ?access_model:Cost.access_model ->
  ?port_model:Preprocess.port_model ->
  ?arbitration:bool ->
  ?solver_options:Mm_lp.Config.t ->
  ?trace:Mm_obs.Trace.t ->
  ?max_retries:int ->
  ?allow_overlap:bool ->
  ?detailed:detailed_engine ->
  unit ->
  options
(** Builder for {!options}; prefer this over record literals so future
    fields stay non-breaking. [?solver_options] (default
    {!Mm_lp.Config.default}) configures every ILP solve. *)

type attempt = {
  index : int;  (** 0 is the first global solve *)
  ilp_status : Mm_lp.Branch_bound.status;
  ilp_objective : float option;  (** ILP incumbent of this attempt *)
  ilp_nodes : int;
  ilp_seconds : float;  (** build + solve of this attempt alone *)
  detailed_failure : string option;
      (** why the detailed placer rejected this attempt's assignment;
          [None] on the attempt that produced the final mapping *)
}
(** One global-solve/detailed-place iteration of the retry loop. *)

type outcome = {
  method_ : method_;
  assignment : Global_ilp.assignment;
  mapping : Detailed.t;
  objective : float;  (** cost of the assignment under the options' weights *)
  retries : int;  (** global/detailed iterations beyond the first *)
  attempts : attempt list;
      (** chronological per-attempt record; the last entry is the
          attempt whose assignment the final mapping came from *)
  ilp_seconds : float;  (** ILP build + solve time (the Table 3 metric) *)
  detailed_seconds : float;
  total_seconds : float;
  ilp_result : Mm_lp.Solver.result;
}

type error =
  | Unmappable of string  (** a segment fits nowhere, or ILP infeasible *)
  | Retries_exhausted of int  (** detailed mapping kept failing *)
  | Solver_limit  (** hit a time/node budget before an incumbent *)

val formulation : method_ -> Formulation.assignment Formulation.t
(** The assignment-producing formulation behind each method —
    {!Global_ilp.F} or {!Complete_ilp.F}. [run] dispatches through this;
    exposed so harnesses (bench, tests) can solve the same models
    directly via {!Formulation.solve}. *)

val run :
  ?method_:method_ ->
  ?options:options ->
  ?warm:Mm_lp.Solver.warm ->
  Mm_arch.Board.t ->
  Mm_design.Design.t ->
  (outcome, error) result
(** Both methods share one loop: build the method's formulation, solve,
    run the detailed placer, and — only when the formulation supports
    no-good cuts (i.e. [Global_detailed]) — retry with the failing
    assignment forbidden, up to [max_retries] times.

    [?warm] is solver warm-start state for repeat runs of the same
    board/design/options (the mapping service's cache); it is consumed
    on the {e first} attempt only — retries extend the ILP with no-good
    cut rows, and training the cache on that extended problem would
    poison later first attempts. *)

val error_to_string : error -> string
