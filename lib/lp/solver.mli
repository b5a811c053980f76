(** High-level solve facade: presolve, root cutting planes (via
    {!Cut_pool} over pluggable {!Separator} families), GUB diving
    heuristics, then branch-and-bound with node-level re-separation.
    This is the entry point the memory mapper uses. *)

type options = {
  presolve : bool;  (** default true *)
  cuts : bool;  (** master switch for all cutting planes, default true *)
  cut_rounds : int;  (** root separation rounds, default 3 *)
  max_cuts_per_round : int;  (** default 50 *)
  cut_max_age : int;
      (** root-loop activity aging threshold (see {!Cut_pool.options}),
          default 8; [max_int] disables aging *)
  separators : Separator.t list;
      (** cut families to run, default {!Separator.default} (knapsack
          covers, sequence-lifted covers, Gomory mixed-integer) *)
  heuristics : bool;
      (** GUB diving/rounding incumbent before the tree, default true *)
  parallelism : int;
      (** worker domains for the branch-and-bound tree search, default 1
          (deterministic serial schedule); overrides [bb.parallelism] *)
  pricing : Simplex.pricing;
      (** simplex pricing strategy for the root cut loop and every
          branch-and-bound workspace, default {!Simplex.Devex};
          overrides [bb.pricing] *)
  lu_kernel : Lu.kernel;
      (** triangular-solve kernel for every simplex workspace (root cut
          loop, heuristics, branch-and-bound), default {!Lu.Auto}
          (hypersparse on large bases with automatic dense fallback);
          {!Lu.Sparse}/{!Lu.Dense} force one path, for A/B runs;
          overrides [bb.lu_kernel] *)
  trace : Mm_obs.Trace.t;
      (** structured tracing (default disabled): the facade records
          presolve/cuts/heuristic/bb/solve phase spans and cut counters
          on the trace's root sink and hands the trace down to
          {!Branch_bound}; overrides [bb.trace] *)
  bb : Branch_bound.options;
      (** node-cut gating ([node_cut_depth], [node_cut_freq]) rides
          here *)
}

val default_options : options

val options :
  ?presolve:bool ->
  ?cuts:bool ->
  ?cut_rounds:int ->
  ?max_cuts_per_round:int ->
  ?cut_max_age:int ->
  ?separators:Separator.t list ->
  ?heuristics:bool ->
  ?parallelism:int ->
  ?pricing:Simplex.pricing ->
  ?lu_kernel:Lu.kernel ->
  ?trace:Mm_obs.Trace.t ->
  ?bb:Branch_bound.options ->
  unit ->
  options
(** Builder for {!options}; prefer this over record literals so future
    fields stay non-breaking. When [?parallelism], [?pricing],
    [?lu_kernel] or [?trace] is omitted it is taken from [bb]
    (defaults: 1, Devex, {!Lu.Auto}, disabled). *)

val quick_options :
  ?time_limit:float ->
  ?parallelism:int ->
  ?pricing:Simplex.pricing ->
  ?lu_kernel:Lu.kernel ->
  ?trace:Mm_obs.Trace.t ->
  unit ->
  options
(** Options with a wall-clock limit, for benchmark harnesses. *)

val baseline_options :
  ?time_limit:float ->
  ?parallelism:int ->
  ?pricing:Simplex.pricing ->
  ?lu_kernel:Lu.kernel ->
  ?trace:Mm_obs.Trace.t ->
  unit ->
  options
(** The pre-pool root behavior as a degenerate configuration: knapsack
    cover cuts only, no aging, no node separation, no heuristics —
    reproduces the historical cut loop pivot for pivot. Benchmark A/B
    cells use this as the baseline arm. *)

type stats = {
  presolved_from : int * int;  (** columns, rows before presolve *)
  presolved_to : int * int;
  cuts_added : int;  (** cuts accepted by the root loop *)
  node_cuts_added : int;  (** cuts separated at tree nodes *)
  cuts_dropped : int;  (** cuts aged out of the root LP *)
  cuts_by_family : (string * int) list;
      (** live accepted cuts per family ([cover] / [lcover] / [gmi]),
          root and node combined, sorted by family name *)
  heuristic_obj : float option;
      (** objective of the GUB diving incumbent (user sense, original
          variable space), when one was found *)
  heuristic_dives : int;
  lp : Simplex.stats;
      (** simplex instrumentation accumulated across the root cut loop,
          the diving heuristic and the branch-and-bound run (all domains
          merged) *)
  lp_time : float;  (** seconds spent inside LP solves *)
  parallel : Branch_bound.par_stats;
      (** parallel tree-search instrumentation: domains used, nodes
          stolen, idle seconds, per-domain pivot counts *)
  warm_applied : string list;
      (** warm-start components consumed by this solve, in application
          order (["presolve"], ["basis"], ["pseudocosts"]); empty on a
          cold solve *)
}

type result = { mip : Branch_bound.result; stats : stats }

(** {2 Warm-start state}

    Repeat solves of the {e same} problem — the mapping service's
    workload — can amortize solver state: the presolve fixpoint, the
    pre-cut root optimum's basis (restored via the same
    {!Simplex.restore_basis} path the cut loop warm restart uses) and
    the branching pseudocosts trained by the tree search. A {!warm}
    value carries all three between solves; {!solve} consumes whatever
    components match the problem's dimensions and re-trains the state
    for the next solve. Dimension guards make stale state degrade to a
    cold solve, but the contract is one [warm] per identical problem
    (key your cache accordingly). Not thread-safe — lease a [warm] to
    one solve at a time. *)

type warm

val warm : unit -> warm
(** A fresh, untrained warm-start state (the first solve fills it). *)

val warm_solves : warm -> int
(** Number of completed solves that re-trained this state. *)

val warm_has_basis : warm -> bool

val warm_observations : warm -> int
(** Pseudocost branching observations carried ([0] when untrained). *)

val warm_to_json : warm -> Mm_obs.Json.t
(** Serializes the plain-data components — solve count, original
    dimensions, root basis, pseudocosts — for cross-process cache
    persistence. The presolve component (a recovery closure) is not
    serializable and is dropped: the first solve after
    {!warm_of_json} re-runs presolve (deterministic for the identical
    problem the cache contract guarantees), after which basis and
    pseudocosts apply exactly as they would in-process. *)

val warm_of_json : Mm_obs.Json.t -> (warm, string) Stdlib.result
(** Inverse of {!warm_to_json}, validating array lengths, status
    characters and count signs so a corrupt or hand-edited file
    surfaces as [Error] (the caller degrades to a cold start) rather
    than undefined solver behavior. *)

val solve : ?options:options -> ?warm:warm -> Problem.t -> result
(** Solves to proven optimality unless limits are set. The solution in
    [mip.solution] is expressed in the {e original} variable space
    (presolve recovery already applied). [?warm] consumes and re-trains
    warm-start state (see above); [stats.warm_applied] records which
    components were actually used. Warm-started runs may visit a
    different node order than cold runs (same proven objective). *)

val solve_model : ?options:options -> ?warm:warm -> Model.t -> result
(** [solve_model m] freezes and solves the model. *)
