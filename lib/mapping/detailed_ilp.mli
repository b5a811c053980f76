(** ILP-based detailed mapper (Section 4.2's "an ILP-based formulation
    for the detailed memory mapper was developed").

    One ILP per bank type: binary [A_fi] places fragment [f] on instance
    [i] subject to per-instance port and capacity budgets; binary
    [used_i] marks occupied instances. The objective minimizes the
    number of instances touched (a proxy for on-chip interconnection
    congestion) — by the paper's argument this cannot change the global
    cost, only secondary quality. Storage overlap between
    lifetime-disjoint segments is not modeled here; when the ILP comes
    out infeasible the caller should fall back to the greedy placer,
    whose overlap support is strictly more permissive. *)

type options = {
  solver_options : Mm_lp.Config.t;
  symmetry_breaking : bool;  (** order used-instance variables; default true *)
  port_model : Preprocess.port_model;  (** default [Fig3] *)
}

val default_options : options

val options :
  ?solver_options:Mm_lp.Config.t ->
  ?symmetry_breaking:bool ->
  ?port_model:Preprocess.port_model ->
  unit ->
  options
(** Builder for {!options}; prefer this over record literals so future
    fields stay non-breaking. *)

module F : Formulation.S with type solution = Detailed.placement list
(** The per-type placement ILP as a {!Formulation}. Requires
    [ctx.assignment] and [ctx.type_index]; honours [ctx.port_model]
    (defaulting to [Fig3]) and [ctx.symmetry_breaking]. The solution is
    the placement list for that type's instances only. *)

val run :
  ?trace:Mm_obs.Trace.t ->
  ?options:options ->
  Mm_arch.Board.t ->
  Mm_design.Design.t ->
  Global_ilp.assignment ->
  (Detailed.t, Detailed.failure) result
(** Solves one placement ILP per bank type ({!F} under the hood) and
    assembles placements (offsets and ports assigned per instance in
    decreasing fragment order, as in the greedy placer). [?trace] is
    handed to every placement ILP solve. *)
