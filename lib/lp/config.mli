(** The solver configuration: every knob of the MIP stack, declared
    once.

    One flat record of plain data, comparable with [=], consumed
    directly by {!Solver.solve}, {!Branch_bound.solve} and
    {!Cut_pool.create}. The CLI flags, the service's per-request
    [knobs] object, the fuzz arms and the bench harnesses all build a
    [t]; {!default} is the only place a default value is written.

    One per-field table drives the JSON codec ({!to_json}/{!of_json}),
    the warm-cache key ({!fingerprint_string}) and the
    ["Solver config: ..."] echo line ({!echo}), so a knob added to the
    record and the table shows up on every surface at once. *)

type t = {
  presolve : bool;
  cuts : bool;  (** master switch for all cutting planes, root and node *)
  cut_rounds : int;  (** root separation rounds *)
  max_cuts_per_round : int;  (** acceptance cap per separation call *)
  cut_max_age : int;
      (** consecutive loose root LP solves before a cut is dropped from
          the root LP; [max_int] disables aging *)
  separators : string list;
      (** cut families to run, by {!Separator.name} (["cover"],
          ["lcover"], ["gmi"]); resolved with {!separator_modules} *)
  heuristics : bool;  (** GUB diving incumbent before the tree *)
  parallelism : int;
      (** branch-and-bound worker domains; [1] is the deterministic
          serial schedule, [<= 0] asks the runtime for
          [Domain.recommended_domain_count ()] *)
  lu_kernel : Lu.kernel;
      (** FTRAN/BTRAN kernel of every simplex workspace; {!Lu.Auto}
          picks per basis size, {!Lu.Sparse}/{!Lu.Dense} force one path
          for A/B runs (the pivot trajectory is the same) *)
  time_limit : float option;
      (** wall-clock seconds for the whole solve (presolve, cuts,
          heuristics and tree); the service's request timeout rides
          this *)
  node_limit : int option;
  gap_tol : float;  (** relative gap for early optimality *)
  int_tol : float;  (** integrality tolerance *)
  log_every : int option;  (** log tree progress every N nodes via [Logs] *)
  node_cut_depth : int;
      (** deepest tree node allowed to run a separation round; [0]
          disables node cuts *)
  node_cut_freq : int;
      (** a tree worker separates at every [freq]-th node it processes
          within the depth window *)
}

val default : t
(** Presolve on; covers, lifted covers and GMI cuts, 3 root rounds of
    at most 50 cuts, aging after 8 loose solves; heuristics on; serial,
    with the {!Lu.Auto} kernel; no limits; [gap_tol = 1e-9],
    [int_tol = 1e-6]; node cuts down to depth 2 at every 4th node. *)

val make :
  ?presolve:bool ->
  ?cuts:bool ->
  ?cut_rounds:int ->
  ?max_cuts_per_round:int ->
  ?cut_max_age:int ->
  ?separators:string list ->
  ?heuristics:bool ->
  ?parallelism:int ->
  ?lu_kernel:Lu.kernel ->
  ?time_limit:float ->
  ?node_limit:int ->
  ?gap_tol:float ->
  ?int_tol:float ->
  ?log_every:int ->
  ?node_cut_depth:int ->
  ?node_cut_freq:int ->
  unit ->
  t
(** {!default} with the given fields replaced. Does not validate; see
    {!check}. *)

val max_parallelism : int
(** Upper bound {!of_json} accepts for [parallelism] (64): far below
    the runtime's domain limit, so a request cannot exhaust it. *)

val separator_modules : t -> Separator.t list
(** The configured families, resolved through {!Separator.of_string}.
    Raises [Invalid_argument] on an unknown name (which {!of_json}
    and {!check} reject). *)

val to_json : t -> Mm_obs.Json.t

val of_json : Mm_obs.Json.t -> (t, string) result
(** Decodes a configuration object: absent fields take {!default}'s
    values, and an unknown key is the error [unknown field "<key>"], so
    a misspelt or retired knob never runs silently at its default.
    Malformed or out-of-range fields
    are errors naming the field — among them [parallelism] outside
    [0 .. max_parallelism], negative [cut_rounds] or
    [max_cuts_per_round], [node_cut_freq < 1], [gap_tol] outside
    [[0, 1]] and [int_tol] outside [(0, 1e-3]].
    [of_json (to_json c) = Ok c] for every valid [c]. *)

val check : t -> (t, string) result
(** [Ok c] iff [c] passes {!of_json}'s validation. *)

val fingerprint_string : t -> string
(** Canonical rendering of every field that shapes the ILP or the
    search order, for warm-cache keys. [time_limit] is excluded — it
    truncates the search without changing the problem, so warm state
    transfers across budgets — and so is [log_every], which only
    logs. *)

val echo : t -> string
(** The one-line ["Solver config: cuts=... parallelism=N"] summary the
    CLI prints before a solve. *)
