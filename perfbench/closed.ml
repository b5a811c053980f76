(* Closed-loop workloads: one caller runs [Mapper.run] serially over a
   fixed instance list, pass after pass; plus the traced pass that
   splits a pass into layers. *)

module Mapper = Mm_mapping.Mapper
module Trace = Mm_obs.Trace
open Stats

(* Per-solve wall-clock cap; a solve that hits it is a failed operation. *)
let cap_s = 60.0

let options ?trace () =
  Mapper.options
    ~solver_options:(Mm_lp.Solver.quick_options ~time_limit:cap_s ~parallelism:1 ())
    ?trace ()

type failures = { mutable attempted : int; mutable failed : int; mutable msgs : string list }

let failures () = { attempted = 0; failed = 0; msgs = [] }

let record f = function
  | None -> f.attempted <- f.attempted + 1
  | Some msg ->
      f.attempted <- f.attempted + 1;
      f.failed <- f.failed + 1;
      if List.length f.msgs < 20 then f.msgs <- f.msgs @ [ msg ]

let failed_share f =
  Out.metric ~n:f.attempted "failed_share" "share"
    (float_of_int f.failed /. float_of_int (max 1 f.attempted))

let check gate f ~name board design = function
  | Error e -> record f (Some (name ^ ": " ^ Mapper.error_to_string e))
  | Ok o -> record f (Gate.check_outcome gate ~name board design o)

(* One timed interval, kept so that it can be host-speed adjusted. *)
type span = { t0 : float; t1 : float }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, { t0; t1 = now () })

let raw x = x.t1 -. x.t0
let adjusted x = Hostref.adjust ~t0:x.t0 ~t1:x.t1 (raw x)

type measured = {
  setup : span list;  (** one generation of all instances each *)
  passes : span list list;  (** the [Mapper.run] calls of each pass *)
  rss_mb : float;  (** peak resident set after the first pass *)
}

(* Set-up is instance generation. One generation takes milliseconds and
   the host's speed drifts over seconds, so it is repeated five times
   before the first pass and three times after every pass, and [setup_s]
   is the median over the whole run. Host-speed reference samples
   follow every generation and every call. *)
let measure gate f ~method_ ~seed ~seconds insts =
  let rng = Mm_util.Prng.create seed in
  let options = options () in
  let setup = ref [] and built = ref [] in
  let regenerate n =
    for _ = 1 to n do
      let b, sp = timed (fun () -> List.map (fun (i : Wl.inst) -> (i, i.gen ())) insts) in
      Hostref.sample ();
      built := b;
      setup := sp :: !setup
    done
  in
  let passes = ref [] and rss = ref 0.0 in
  regenerate 5;
  let start = now () in
  while !passes = [] || now () -. start < seconds do
    (* the first pass runs in list order, so the peak resident set read
       after it does not depend on the seed *)
    let order = Array.of_list !built in
    if !passes <> [] then Mm_util.Prng.shuffle rng order;
    let calls =
      Array.map
        (fun ((inst : Wl.inst), (board, design)) ->
          let r, sp = timed (fun () -> Mapper.run ~method_ ~options board design) in
          (* a long call gets more samples, as the host may drift during it *)
          for _ = 0 to min 4 (int_of_float (raw sp)) do
            Hostref.sample ()
          done;
          check gate f ~name:inst.name board design r;
          sp)
        order
    in
    (* later passes only add heap growth that depends on how many fit *)
    if !passes = [] then rss := peak_rss_mb None;
    passes := Array.to_list calls :: !passes;
    regenerate 3
  done;
  { setup = !setup; passes = List.rev !passes; rss_mb = !rss }

let ms xs = List.map (fun s -> s *. 1000.0) xs

(* End-to-end metrics, host-speed adjusted; the record also keeps them
   raw. *)
let e2e m =
  let calls = List.concat m.passes in
  let pass t = List.map (fun p -> sum (List.map t p)) m.passes in
  ( [
      Out.metric ~n:(List.length m.setup) "setup_s" "s" (median (List.map adjusted m.setup));
      Out.metric ~n:(List.length m.passes) "pass_s" "s" (median (pass adjusted));
      Out.metric ~n:(List.length calls) "latency_p50_ms" "ms"
        (median (ms (List.map adjusted calls)));
      Out.metric "peak_rss_mb" "MB" m.rss_mb;
    ],
    [
      Out.metric ~n:(List.length calls) "latency_p90_ms" "ms"
        (percentile (ms (List.map adjusted calls)) 0.9);
      Out.metric ~n:(List.length m.setup) "raw.setup_s" "s" (median (List.map raw m.setup));
      Out.metric ~n:(List.length m.passes) "raw.pass_s" "s" (median (pass raw));
      Out.metric ~n:(List.length calls) "raw.latency_p50_ms" "ms"
        (median (ms (List.map raw calls)));
      Out.metric ~n:(List.length !Hostref.samples) "host.reference_ms" "ms"
        (Hostref.median_ms ());
    ] )

(* The untraced [Mapper.run] time of a pass, for the tracing overhead. *)
let raw_pass_s m = median (List.map (fun p -> sum (List.map raw p)) m.passes)

(* ---- the traced pass ---------------------------------------------------- *)

type acc = {
  mutable vars : int;
  mutable rows : int;
  mutable retries : int;
  mutable nodes : int;
  mutable pivots : int;
  mutable phase1 : int;
  mutable refactors : int;
  mutable sparse_solves : int;
  mutable cuts : int;
  mutable node_cuts : int;
  mutable dives : int;
  mutable dive_solves : int;
  mutable dive_hits : int;
  mutable lp_s : float;
  mutable calls : int;
}

(* One extra pass with an enabled trace handed to the mapper (which
   hands it to the solver) and bench-side spans around each public call:
   generation, [F.build], [Mapper.run], [Report.of_outcome] +
   [Report.to_json] and [Request.of_json]. [baseline_s] is the untraced
   [Mapper.run] time of the same instances, for the tracing overhead. *)
let traced_pass gate f ~method_ ~baseline_s (insts : Wl.inst list) =
  let tr = Trace.create () in
  let snk = Trace.root tr in
  let options = options ~trace:tr () in
  let module F = (val Mapper.formulation method_) in
  let a =
    {
      vars = 0; rows = 0; retries = 0; nodes = 0; pivots = 0; phase1 = 0;
      refactors = 0; sparse_solves = 0; cuts = 0; node_cuts = 0; dives = 0;
      dive_solves = 0; dive_hits = 0; lp_s = 0.0; calls = 0;
    }
  in
  let wall = ref 0.0 in
  List.iter
    (fun (inst : Wl.inst) ->
      let t0 = now () in
      let board, design = Trace.span snk "bench.gen" inst.gen in
      (* building the request text is bench work outside every layer *)
      let excluded = ref 0.0 in
      (match
         Trace.span snk "bench.build" (fun () ->
             F.build
               (Mm_mapping.Formulation.ctx ~weights:options.Mapper.weights
                  ~access_model:options.access_model ~port_model:options.port_model
                  board design))
       with
      | Ok (p, _) ->
          a.vars <- a.vars + p.Mm_lp.Problem.ncols;
          a.rows <- a.rows + p.Mm_lp.Problem.nrows
      | Error _ -> ());
      let r =
        Trace.span snk "bench.mapper_run" (fun () ->
            Mapper.run ~method_ ~options board design)
      in
      (match r with
      | Ok o ->
          ignore
            (Trace.span snk "bench.report" (fun () ->
                 Mm_mapping.Report.to_json (Mm_mapping.Report.of_outcome board design o)));
          let request, dt =
            time (fun () -> Mm_service.Request.to_json (Mm_service.Request.make board design))
          in
          excluded := dt;
          ignore
            (Trace.span snk "bench.request" (fun () ->
                 Mm_service.Request.of_json request));
          let s = o.Mapper.ilp_result.Mm_lp.Solver.stats in
          let lp = s.Mm_lp.Solver.lp in
          a.calls <- a.calls + 1;
          a.retries <- a.retries + o.Mapper.retries;
          a.nodes <- a.nodes + o.Mapper.ilp_result.Mm_lp.Solver.mip.Mm_lp.Branch_bound.nodes;
          a.pivots <- a.pivots + lp.Mm_lp.Simplex.pivots;
          a.phase1 <- a.phase1 + lp.Mm_lp.Simplex.phase1_pivots;
          a.refactors <- a.refactors + lp.Mm_lp.Simplex.refactorizations;
          a.sparse_solves <- a.sparse_solves + lp.Mm_lp.Simplex.sparse_solves;
          a.cuts <- a.cuts + s.Mm_lp.Solver.cuts_added;
          a.node_cuts <- a.node_cuts + s.Mm_lp.Solver.node_cuts_added;
          a.dives <- a.dives + s.Mm_lp.Solver.heuristic_dives;
          if s.Mm_lp.Solver.heuristic_dives > 0 then begin
            a.dive_solves <- a.dive_solves + 1;
            if s.Mm_lp.Solver.heuristic_obj <> None then a.dive_hits <- a.dive_hits + 1
          end;
          a.lp_s <- a.lp_s +. s.Mm_lp.Solver.lp_time
      | Error _ -> ());
      wall := !wall +. (now () -. t0) -. !excluded;
      check gate f ~name:inst.name board design r)
    insts;
  let events =
    match Mm_obs.Summary.of_lines (Trace.dump_lines tr) with
    | Ok evs -> evs
    | Error e -> failwith ("trace: " ^ e)
  in
  let span n =
    List.fold_left
      (fun acc (ev : Mm_obs.Summary.event) ->
        if ev.kind = "span" && ev.name = n then acc +. ev.dur_s else acc)
      0.0 events
  in
  let count n =
    List.fold_left
      (fun acc (ev : Mm_obs.Summary.event) ->
        if ev.kind = "count" && ev.name = n then acc + ev.n else acc)
      0 events
  in
  let hist n =
    List.fold_left
      (fun acc (ev : Mm_obs.Summary.event) ->
        if ev.kind = "hist" && ev.name = n then acc +. ev.total_s else acc)
      0.0 events
  in
  let gen = span "bench.gen" and build = span "bench.build" in
  let run = span "bench.mapper_run" in
  let report = span "bench.report" and request = span "bench.request" in
  let ilp = span "ilp" and detailed = span "detailed" in
  let solve = span "solve" in
  let presolve = span "presolve" and root = span "cuts" in
  let heuristic = span "heuristic" and tree = span "bb" in
  let pivot = hist "pivot" and refactor = hist "refactor" in
  let fi = float_of_int in
  let per_call x = 1000.0 *. x /. fi (max 1 a.calls) in
  let ratio x y = if y > 0.0 then x /. y else 0.0 in
  let m = Out.metric in
  let layers =
    [
      m "gen.instance_s" "s" gen;
      m "formulation.build_s" "s" build;
      m "formulation.vars" "count" (fi a.vars);
      m "formulation.rows" "count" (fi a.rows);
      m "mapper.run_s" "s" run;
      m "mapper.unattributed_s" "s" (run -. ilp -. detailed);
      m "mapper.retries" "count" (fi a.retries);
      m "detailed.place_s" "s" detailed;
      m ~n:a.calls "report.encode_ms" "ms" (per_call report);
      m ~n:a.calls "request.decode_ms" "ms" (per_call request);
      m "solver.solve_s" "s" solve;
      m "solver.presolve_s" "s" presolve;
      m "solver.root_s" "s" root;
      m "solver.heuristic_s" "s" heuristic;
      m "solver.tree_s" "s" tree;
      m "solver.unattributed_s" "s" (solve -. presolve -. root -. heuristic -. tree);
      m "cut_pool.cuts_added" "count" (fi a.cuts);
      m "cut_pool.cut_pivots" "count" (fi (count "cut_pivots"));
      m "cut_pool.node_cuts_added" "count" (fi a.node_cuts);
      m "bb.nodes" "count" (fi a.nodes);
      m "bb.nodes_per_s" "1/s" (ratio (fi a.nodes) tree);
      m "bb.rc_fixed" "count" (fi (count "rc_fixed"));
      m "heuristics.dives" "count" (fi a.dives);
      m ~n:a.dive_solves "heuristics.hit_share" "share"
        (ratio (fi a.dive_hits) (fi a.dive_solves));
      m "solver.lp_s" "s" a.lp_s;
      m "lp.pivot_hist_s" "s" pivot;
      m "lp.refactor_hist_s" "s" refactor;
      m "lp.unattributed_s" "s" (a.lp_s -. pivot -. refactor);
      m "simplex.pivots" "count" (fi a.pivots);
      m "simplex.phase1_pivots" "count" (fi a.phase1);
      m "simplex.pivots_per_s" "1/s" (ratio (fi a.pivots) a.lp_s);
      m "lu.refactorizations" "count" (fi a.refactors);
      m "lu.refactors_per_node" "ratio" (ratio (fi a.refactors) (fi a.nodes));
      m "lu.sparse_solves" "count" (fi a.sparse_solves);
      m "trace.overhead_share" "share" (ratio run baseline_s -. 1.0);
    ]
  in
  let sums =
    Out.
      [
        {
          parent = "traced_pass";
          parent_s = !wall;
          children =
            [
              ("gen", gen); ("build", build); ("mapper.run", run);
              ("report", report); ("request", request);
            ];
          strict = true;
        };
        {
          parent = "mapper.run";
          parent_s = run;
          children = [ ("ilp", ilp); ("detailed", detailed) ];
          strict = true;
        };
        {
          parent = "ilp";
          parent_s = ilp;
          children = [ ("build", build); ("solve", solve) ];
          strict = true;
        };
        {
          parent = "solver.solve";
          parent_s = solve;
          children =
            [ ("presolve", presolve); ("root", root); ("heuristic", heuristic); ("tree", tree) ];
          strict = false;
        };
        {
          parent = "solver.lp";
          parent_s = a.lp_s;
          children = [ ("pivot_hist", pivot); ("refactor_hist", refactor) ];
          strict = false;
        };
      ]
  in
  (layers, sums)
