(** Branch-and-bound mixed-integer solver on top of {!Simplex}.

    Search: best-bound node queue with depth-first plunging, pseudocost
    branching (initialized most-fractional), a nearest-integer rounding
    heuristic at every node, and warm-started node relaxations: every
    node carries an explicit {!Simplex.basis} snapshot of its parent's
    optimal basis (shared by both children), restored before the node
    LP is solved.

    When a {!Cut_pool} is supplied ([?cuts]), shallow nodes can
    re-separate bound-free cut families on their fractional optimum:
    accepted cuts enter the pool's global activation list and every
    worker appends the same row sequence to its private LP (lazily, on
    first contact with a node that needs them), which keeps basis
    snapshots exchangeable across workers with different cut counts.

    With [parallelism > 1] the tree is explored by that many OCaml
    domains sharing a {!Node_pool}: each domain owns a private
    {!Simplex} workspace (and its LU factors) plus private pseudocost
    statistics; the incumbent is published through an [Atomic] and
    bound pruning is re-checked at dequeue time. Determinism contract:
    [parallelism = 1] runs the historical serial schedule node for
    node, and any [parallelism] proves the same optimal objective. *)

type status =
  | Optimal  (** incumbent proved optimal *)
  | Feasible  (** limit hit with an incumbent *)
  | Infeasible
  | Unbounded
  | Unknown  (** limit hit before any incumbent *)

type par_stats = {
  domains_used : int;  (** worker domains actually spawned *)
  nodes_stolen : int;  (** nodes migrated across per-domain deques *)
  idle_seconds : float;  (** total seconds workers blocked for work *)
  domain_pivots : int array;  (** simplex pivots per domain *)
}

val serial_par_stats : par_stats
(** The trivial stats of a one-domain run with no search: placeholder
    for results synthesized without entering the tree search. *)

type incumbent_source =
  | No_incumbent
  | Heuristic  (** seeded by the pre-tree diving heuristic *)
  | Rounding  (** the per-node nearest-integer rounding *)
  | Node_integral  (** a node relaxation solved integral *)

val incumbent_source_to_string : incumbent_source -> string

type pseudocosts
(** Immutable snapshot of the branching pseudocost statistics merged
    across worker domains — the per-variable up/down objective
    degradation averages the tree search learns. A snapshot from one
    solve can seed the next solve of the {e same} problem (see
    {!solve}'s [?warm_pc]), which is how a warm-start cache amortizes
    branching knowledge across repeat requests. *)

val empty_pseudocosts : pseudocosts
(** The untrained snapshot (also what synthesized results carry). *)

val pseudocosts_observations : pseudocosts -> int
(** Total branching observations recorded (up and down combined);
    [0] for {!empty_pseudocosts}. *)

val pseudocosts_export :
  pseudocosts -> float array * int array * float array * int array
(** Plain-data view for persistence:
    [(up_sum, up_count, down_sum, down_count)], one entry per column.
    Arrays are copies. *)

val pseudocosts_import :
  up_sum:float array ->
  up_cnt:int array ->
  dn_sum:float array ->
  dn_cnt:int array ->
  (pseudocosts, string) Stdlib.result
(** Rebuilds a snapshot from {!pseudocosts_export} data. Rejects
    mismatched array lengths, negative observation counts and
    non-finite sums — the validation a persisted cache file needs. *)

type result = {
  status : status;
  solution : float array option;  (** structural values of the incumbent *)
  objective : float option;  (** incumbent objective, user sense *)
  best_bound : float;  (** proved bound on the optimum, user sense *)
  nodes : int;
  simplex_iterations : int;
      (** summed across all domains; an adopted [?root] solve is not
          counted (its pivots belong to the heuristic that ran it) *)
  time : float;  (** wall-clock seconds spent *)
  lp_time : float;
      (** seconds inside node LP solves, summed across domains (may
          exceed [time] when [parallelism > 1]) *)
  max_node_lp_time : float;
      (** slowest single node relaxation solved here (an adopted
          [?root] is not solved here, so it does not count) *)
  lp_stats : Simplex.stats;
      (** simplex instrumentation, merged; counts exclude an adopted
          [?root] solve, like [simplex_iterations] *)
  par : par_stats;  (** parallel-search instrumentation *)
  incumbent_source : incumbent_source;
      (** which mechanism produced the final incumbent *)
  pseudocosts : pseudocosts;
      (** branching statistics trained by this solve, merged across
          domains — feed back via [?warm_pc] on a repeat solve *)
}

val gap : result -> float option
(** Relative gap between incumbent and bound; [None] without incumbent. *)

val solve :
  ?trace:Mm_obs.Trace.t ->
  ?options:Config.t ->
  ?cuts:Cut_pool.t ->
  ?initial:float array * float ->
  ?warm_pc:pseudocosts ->
  ?root:Simplex.t ->
  Problem.t ->
  result
(** [solve ?options ?cuts ?initial p] explores [p]'s tree under the
    limits, tolerances, worker count, LU kernel and node-cut
    gating of [options] (default {!Config.default}); its cut-loop
    fields are the pool's business. [?trace] (default disabled)
    gets one registered sink per worker domain, recording node,
    incumbent, steal and idle events plus pivot/refactorization
    latency histograms. [?cuts] is the pool whose
    {!Cut_pool.root_problem} is [p]; it enables node separation (see
    {!Config.t.node_cut_depth}). [?initial] is a known
    integer-feasible point with its internal (minimization-sense,
    [obj_const]-inclusive) objective — typically {!Heuristics.run}'s
    incumbent — validated against [p] and used to seed the atomic
    incumbent before the root node is solved. [?warm_pc] seeds every
    worker's pseudocost statistics from a previous solve of the same
    problem (silently ignored when the column count differs); seeded
    branching changes the node order, so it is opt-in — the
    [parallelism = 1] determinism contract only covers unseeded
    runs. [?root] is [p]'s root LP already solved to optimality —
    typically {!Heuristics.result.root_lp}, the instance the diving
    heuristic solved before its first dive. Worker 0 adopts it (it must
    not be used elsewhere afterwards) and its root node skips the LP
    solve: reduced-cost fixing, rounding and branching start from the
    adopted optimum, which is bit-identical to solving [p] from the
    slack basis here. A root built on any problem other than [p]
    (physically) is ignored. Its inherited counters are left out of
    [simplex_iterations] and [lp_stats]; its time is not in [lp_time].
    If a worker domain cannot be spawned, the helpers already
    running are stopped and joined before the exception escapes. *)
