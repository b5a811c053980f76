let src = Logs.Src.create "mm_lp.cuts" ~doc:"cut pool"

module Log = (val Logs.src_log src : Logs.LOG)

(* One accepted cut: its row name carries the family prefix and a
   per-pool counter ("cover:12"), so traces never collide across
   rounds or nodes. *)
type entry = {
  cut : Separator.cut;
  name : string;
  key : string;
  mutable age : int;  (* consecutive root LP solves spent loose *)
}

type t = {
  config : Config.t;
  separators : Separator.t list;
  base : Problem.t;
  seen : (string, unit) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;  (* per-family naming counter *)
  accepted : (string, int ref) Hashtbl.t;  (* per-family accepted total *)
  mutable root_entries : entry list;  (* LP row order, after [base]'s rows *)
  mutable root : Problem.t;  (* base + surviving root cuts *)
  mutable ndropped : int;
  lock : Mutex.t;
  ncount : int Atomic.t;  (* activated node-cut rows, appended after root *)
  mutable node_rows_rev : (string * (int * float) list * float * float) list;
}

let create ?(options = Config.default) base =
  {
    config = options;
    separators = Config.separator_modules options;
    base;
    seen = Hashtbl.create 64;
    counters = Hashtbl.create 8;
    accepted = Hashtbl.create 8;
    root_entries = [];
    root = base;
    ndropped = 0;
    lock = Mutex.create ();
    ncount = Atomic.make 0;
    node_rows_rev = [];
  }

let bump tbl fam n =
  match Hashtbl.find_opt tbl fam with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl fam (ref n)

let fresh_name t (c : Separator.cut) =
  let r =
    match Hashtbl.find_opt t.counters c.Separator.family with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace t.counters c.Separator.family r;
        r
  in
  let name = Printf.sprintf "%s:%d" c.Separator.family !r in
  incr r;
  name

(* Deduplication key: terms sorted by variable and scaled by the L∞
   norm, bounds scaled alike — cuts identical up to positive scaling
   hash equal. *)
let key_of (c : Separator.cut) =
  let terms =
    List.sort (fun (a, _) (b, _) -> compare (a : int) b) c.Separator.terms
  in
  let scale =
    List.fold_left (fun m (_, a) -> Float.max m (Float.abs a)) 0.0 terms
  in
  let scale = if scale = 0.0 then 1.0 else scale in
  let buf = Buffer.create 64 in
  List.iter
    (fun (j, a) -> Buffer.add_string buf (Printf.sprintf "%d:%.9g;" j (a /. scale)))
    terms;
  Buffer.add_string buf
    (Printf.sprintf "|%.9g;%.9g" (c.Separator.lb /. scale)
       (c.Separator.ub /. scale));
  Buffer.contents buf

(* Violation scoring: raw violation over the L∞ norm of the row, so
   families with different coefficient scales rank comparably. Cover
   cuts have unit norm, which keeps the historical pure-cover ordering
   bit for bit. *)
let score x (c : Separator.cut) =
  let amax =
    List.fold_left
      (fun m (_, a) -> Float.max m (Float.abs a))
      1e-12 c.Separator.terms
  in
  Separator.violation c x /. amax

(* Rank candidates by score, drop known duplicates (and intra-batch
   ones), cap at [max_per_round], stamp names, and mark accepted. The
   caller must hold [t.lock] when other domains may be active. *)
let select t x cand =
  let sorted = List.sort (fun a b -> compare (score x b) (score x a)) cand in
  let accepted = ref [] and count = ref 0 in
  List.iter
    (fun c ->
      if !count < t.config.Config.max_cuts_per_round then begin
        let key = key_of c in
        if not (Hashtbl.mem t.seen key) then begin
          Hashtbl.replace t.seen key ();
          bump t.accepted c.Separator.family 1;
          accepted := { cut = c; name = fresh_name t c; key; age = 0 } :: !accepted;
          incr count
        end
      end)
    sorted;
  List.rev !accepted

let row_of e =
  (e.name, e.cut.Separator.terms, e.cut.Separator.lb, e.cut.Separator.ub)

let by_family t =
  Hashtbl.fold (fun fam r acc -> (fam, !r) :: acc) t.accepted []
  |> List.sort compare

let dropped t = t.ndropped

(* --- root loop ----------------------------------------------------------- *)

type root_stats = {
  added : int;
  dropped : int;
  by_family : (string * int) list;
  lp : Simplex.stats;
  lp_time : float;
  root_basis : Simplex.basis option;
}

(* Activity-based aging: after each root LP solve, a cut row sitting
   strictly inside its bounds gets older; a binding one rejuvenates.
   Entries loose for [cut_max_age] consecutive solves are dropped from the
   LP when the loop ends (their keys are forgotten, so a separator may
   legitimately rediscover them later at a node). *)
let age_update t x =
  List.iter
    (fun e ->
      let act = Separator.activity e.cut.Separator.terms x in
      let slack =
        Float.min
          (if Float.is_finite e.cut.Separator.ub then e.cut.Separator.ub -. act
           else infinity)
          (if Float.is_finite e.cut.Separator.lb then act -. e.cut.Separator.lb
           else infinity)
      in
      if slack > 1e-7 then e.age <- e.age + 1 else e.age <- 0)
    t.root_entries

let prune t p =
  let keep, drop =
    List.partition
      (fun e -> e.age < t.config.Config.cut_max_age)
      t.root_entries
  in
  if drop = [] then p
  else begin
    List.iter
      (fun e ->
        Hashtbl.remove t.seen e.key;
        bump t.accepted e.cut.Separator.family (-1))
      drop;
    t.ndropped <- t.ndropped + List.length drop;
    t.root_entries <- keep;
    Log.debug (fun m -> m "dropped %d inactive cut(s)" (List.length drop));
    Problem.extend_rows t.base (List.map row_of keep)
  end

(* The warm-started root separation loop (moved here from Solver):
   round 0 solves from scratch, every later round rebuilds the simplex
   state with [Simplex.create_from] so the previous optimal basis
   carries over with the new cut rows basic on their slacks, and
   re-optimizes with the dual method. A round that accepts no cut ends
   the loop immediately (traced as [cut_noop_round]); the last allowed
   round's cuts are kept without a further re-solve since they still
   strengthen the branch-and-bound relaxations. *)
let root_loop ?basis ?deadline ~snk t =
  let rounds = t.config.Config.cut_rounds in
  let lp_stats = ref Simplex.empty_stats and lp_time = ref 0.0 in
  let finish sx =
    lp_stats := Simplex.merge_stats !lp_stats (Simplex.stats sx);
    Simplex.flush_trace sx
  in
  let added = ref 0 in
  (* the pre-cut optimum's basis, snapshot for warm-starting a later
     solve of the same base problem (the service cache's "last-good
     basis"): it is valid on [t.base] regardless of which cuts this or
     a future run accepts *)
  let root_basis = ref None in
  let rec loop p sx round =
    let t0 = Unix.gettimeofday () in
    let r = Simplex.solve ?deadline ~prefer_dual:(round > 0) sx in
    lp_time := !lp_time +. (Unix.gettimeofday () -. t0);
    match r with
    | Simplex.Optimal ->
        if round = 0 then root_basis := Some (Simplex.basis_snapshot sx);
        let x = Simplex.primal sx in
        age_update t x;
        if Problem.integer_violation p x <= 1e-6 then begin
          finish sx;
          p
        end
        else begin
          let ctx = { Separator.p; x; sx = Some sx } in
          let cand =
            List.concat_map (fun s -> Separator.separate s ctx) t.separators
          in
          let accepted = select t x cand in
          if accepted = [] then begin
            Mm_obs.Trace.count snk "cut_noop_round" 1;
            finish sx;
            p
          end
          else begin
            Log.debug (fun m ->
                m "cut round %d: %d cut(s)" round (List.length accepted));
            let p' = Problem.extend_rows p (List.map row_of accepted) in
            added := !added + List.length accepted;
            t.root_entries <- t.root_entries @ accepted;
            if round + 1 >= rounds then begin
              finish sx;
              p'
            end
            else begin
              finish sx;
              loop p' (Simplex.create_from sx p') (round + 1)
            end
          end
        end
    | _ ->
        finish sx;
        p
  in
  let final =
    if rounds <= 0 || t.separators = [] then t.base
    else begin
      let sx0 = Simplex.create ~lu_kernel:t.config.Config.lu_kernel t.base in
      (* warm restart: a basis cached from a previous solve of the same
         base problem replaces the slack basis before the first solve *)
      (match basis with
      | Some b -> Simplex.restore_basis sx0 b
      | None -> ());
      Simplex.set_trace sx0 snk;
      loop t.base sx0 0
    end
  in
  let final = prune t final in
  t.root <- final;
  if (!lp_stats).Simplex.pivots > 0 then
    Mm_obs.Trace.count snk "cut_pivots" (!lp_stats).Simplex.pivots;
  List.iter
    (fun (fam, n) ->
      if n > 0 then Mm_obs.Trace.count snk ("cuts_" ^ fam) n)
    (by_family t);
  ( final,
    {
      added = !added;
      dropped = t.ndropped;
      by_family = by_family t;
      lp = !lp_stats;
      lp_time = !lp_time;
      root_basis = !root_basis;
    } )

let root_problem t = t.root

(* --- node-side API (thread-safe) ----------------------------------------- *)

let node_count t = Atomic.get t.ncount

let rows_from t k =
  Mutex.lock t.lock;
  let total = Atomic.get t.ncount in
  let take = total - k in
  let rows =
    if take <= 0 then []
    else begin
      let rec first n = function
        | [] -> []
        | r :: rest -> if n = 0 then [] else r :: first (n - 1) rest
      in
      List.rev (first take t.node_rows_rev)
    end
  in
  Mutex.unlock t.lock;
  rows

(* Separate at a branch-and-bound node: only bound-free families run
   (tableau families would bake the node's tightened bounds into a cut
   that is not globally valid). Freshly accepted cuts are appended to
   the shared activation list; every worker appends the same global
   row sequence to its own LP, so basis snapshots stay exchangeable.
   Returns the new activation count. *)
let node_separate t p x =
  let seps = List.filter Separator.bound_free t.separators in
  if seps = [] then Atomic.get t.ncount
  else begin
    let ctx = { Separator.p; x; sx = None } in
    let cand = List.concat_map (fun s -> Separator.separate s ctx) seps in
    if cand = [] then Atomic.get t.ncount
    else begin
      Mutex.lock t.lock;
      let accepted = select t x cand in
      if accepted <> [] then begin
        t.node_rows_rev <-
          List.rev_append (List.map row_of accepted) t.node_rows_rev;
        Atomic.set t.ncount (Atomic.get t.ncount + List.length accepted)
      end;
      let count = Atomic.get t.ncount in
      Mutex.unlock t.lock;
      count
    end
  end
