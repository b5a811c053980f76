(* Evaluation harness: regenerates every table and figure of the paper
   plus ablations of this reproduction's design choices.

   Usage:
     bench/main.exe [EXPERIMENT...] [--full]

   With no experiment names, every experiment runs in a bounded "quick"
   configuration. --full raises the ILP time caps (the paper solved to
   optimality on a 248 MHz Ultra-30; the complete formulation on the
   largest points is exactly as painful as the paper says). *)

open Mm_util

let requested = ref []

let line fmt = Printf.ksprintf (fun s -> print_string s; print_newline ()) fmt

let header title =
  line "";
  line "==============================================================";
  line "%s" title;
  line "=============================================================="

(* ------------------------------------------------------------------ *)
(* Table 1: FPGA on-chip RAM inventory                                 *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  header "Table 1: FPGA on-chip RAMs (regenerated from the device library)";
  let t =
    Table.create
      [
        ("Device", Table.Left);
        ("RAM name", Table.Left);
        ("RAMs (# banks)", Table.Center);
        ("Size (# bits)", Table.Right);
        ("Configurations", Table.Left);
      ]
  in
  List.iter
    (fun (e : Mm_arch.Devices.device_entry) ->
      Table.add_row t
        [
          e.Mm_arch.Devices.family;
          e.Mm_arch.Devices.ram_name;
          Printf.sprintf "%d - %d" e.Mm_arch.Devices.banks_min
            e.Mm_arch.Devices.banks_max;
          string_of_int e.Mm_arch.Devices.size_bits;
          String.concat " "
            (List.map Mm_arch.Config.to_string e.Mm_arch.Devices.config_list);
        ])
    Mm_arch.Devices.table1;
  Table.print t;
  line "Paper values: identical by construction (tested in test_arch)."

(* ------------------------------------------------------------------ *)
(* Fig. 2: the 55x17 worked example                                     *)
(* ------------------------------------------------------------------ *)

let run_fig2 () =
  header "Fig. 2: space and port allocation for a 55x17 structure";
  let bank = Mm_arch.Devices.paper_example_bank () in
  let seg = Mm_design.Segment.make ~name:"ds" ~depth:55 ~width:17 () in
  let c = Mm_mapping.Preprocess.coeffs seg bank in
  line "Bank: 3 ports, configurations 128x1 / 64x2 / 32x4 / 16x8";
  line "alpha = %s, beta = %s"
    (Mm_arch.Config.to_string c.Mm_mapping.Preprocess.alpha)
    (match c.Mm_mapping.Preprocess.beta with
    | Some b -> Mm_arch.Config.to_string b
    | None -> "-");
  let t =
    Table.create
      [
        ("component", Table.Left);
        ("meaning", Table.Left);
        ("ports", Table.Right);
        ("paper", Table.Right);
      ]
  in
  Table.add_row t
    [ "FP"; "fully used instances (upper left)";
      string_of_int c.Mm_mapping.Preprocess.fp; "18" ];
  Table.add_row t
    [ "WP"; "width-remainder column (upper right)";
      string_of_int c.Mm_mapping.Preprocess.wp; "3" ];
  Table.add_row t
    [ "DP"; "depth-remainder row (lower left)";
      string_of_int c.Mm_mapping.Preprocess.dp; "4" ];
  Table.add_row t
    [ "WDP"; "corner instance (lower right)";
      string_of_int c.Mm_mapping.Preprocess.wdp; "1" ];
  Table.add_rule t;
  Table.add_row t
    [ "CP"; "total consumed ports"; string_of_int c.Mm_mapping.Preprocess.cp; "26" ];
  Table.print t;
  line "CW = %d (paper: 17), CD = %d (paper: 56), consumed bits = %d"
    c.Mm_mapping.Preprocess.cw c.Mm_mapping.Preprocess.cd
    (Mm_mapping.Preprocess.consumed_bits c);
  line "";
  line "Fragment decomposition (the detailed mapper's input):";
  let frags = Mm_mapping.Detailed.fragments_of ~segment:0 seg bank in
  let ft =
    Table.create
      [
        ("part", Table.Left);
        ("config", Table.Left);
        ("words", Table.Right);
        ("rounded", Table.Right);
        ("ports", Table.Right);
        ("count", Table.Right);
      ]
  in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (f : Mm_mapping.Detailed.fragment) ->
      let key =
        ( f.Mm_mapping.Detailed.part,
          f.Mm_mapping.Detailed.config,
          f.Mm_mapping.Detailed.words,
          f.Mm_mapping.Detailed.rounded_words,
          f.Mm_mapping.Detailed.ports_needed )
      in
      Hashtbl.replace groups key
        (1 + Option.value (Hashtbl.find_opt groups key) ~default:0))
    frags;
  let part_name = function
    | Mm_mapping.Detailed.Full -> "full"
    | Mm_mapping.Detailed.Width_strip -> "width strip"
    | Mm_mapping.Detailed.Depth_strip -> "depth strip"
    | Mm_mapping.Detailed.Corner -> "corner"
  in
  List.iter
    (fun ((part, config, words, rounded, ports), count) ->
      Table.add_row ft
        [
          part_name part;
          Mm_arch.Config.to_string config;
          string_of_int words;
          string_of_int rounded;
          string_of_int ports;
          string_of_int count;
        ])
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []));
  Table.print ft

(* ------------------------------------------------------------------ *)
(* Table 2: allocation options of a 3-port 16-word bank                *)
(* ------------------------------------------------------------------ *)

let run_table2 () =
  header "Table 2: allocation options, 3-port 16-word bank";
  let opts = Mm_mapping.Preprocess.allocation_options ~ports:3 ~depth:16 () in
  let t =
    Table.create
      [
        ("Port 1", Table.Right);
        ("Port 2", Table.Right);
        ("Port 3", Table.Right);
        ("consumed_ports() verdict", Table.Left);
      ]
  in
  List.iter
    (fun (alloc, accepted) ->
      match alloc with
      | [ a; b; c ] ->
          Table.add_row t
            [
              string_of_int a;
              string_of_int b;
              string_of_int c;
              (if accepted then "accepted" else "REJECTED (over-estimate)");
            ]
      | _ -> ())
    opts;
  Table.print t;
  let rejected = List.filter (fun (_, ok) -> not ok) opts in
  line "%d options, %d rejected by the Fig. 3 estimate." (List.length opts)
    (List.length rejected);
  line "The paper highlights the (8, 8, 0) rejection; with 2 ports the";
  line "estimate is exact and (8, 8) is accepted (tested in the suite)."

(* ------------------------------------------------------------------ *)
(* Table 3 + Fig. 4: complete vs global/detailed execution time        *)
(* ------------------------------------------------------------------ *)

let formulations =
  [
    ("global", Mm_mapping.Mapper.Global_detailed);
    ("complete", Mm_mapping.Mapper.Complete_flat);
  ]

let spec_fields (spec : Mm_workload.Gen.spec) =
  [
    ("segments", Record.int spec.Mm_workload.Gen.segments);
    ("banks", Record.int spec.Mm_workload.Gen.banks);
    ("ports", Record.int spec.Mm_workload.Gen.ports);
    ("configs", Record.int spec.Mm_workload.Gen.configs);
  ]

(* One solve of [design] on [board] under [config] and the experiment's
   time cap.  The Table-3 metric is ILP time for the complete
   formulation and ILP plus detailed placement for the global one.  A
   run that ends without an incumbent keeps the wall clock it burned
   and reports no objective. *)
let measure ?trace ~method_ config board design : Record.cell =
  let solver_options =
    { config with Mm_lp.Config.time_limit = Some (Record.cap ()) }
  in
  let options = Mm_mapping.Mapper.options ~solver_options ?trace () in
  let t0 = Unix.gettimeofday () in
  match Mm_mapping.Mapper.run ~method_ ~options board design with
  | Ok o ->
      let r = o.Mm_mapping.Mapper.ilp_result in
      let mip = r.Mm_lp.Solver.mip and stats = r.Mm_lp.Solver.stats in
      let par = stats.Mm_lp.Solver.parallel and lp = stats.Mm_lp.Solver.lp in
      {
        seconds =
          (o.Mm_mapping.Mapper.ilp_seconds
          +.
          if method_ = Mm_mapping.Mapper.Global_detailed then
            o.Mm_mapping.Mapper.detailed_seconds
          else 0.0);
        optimal = mip.Mm_lp.Branch_bound.status = Mm_lp.Branch_bound.Optimal;
        objective = Some o.Mm_mapping.Mapper.objective;
        pivots = lp.Mm_lp.Simplex.pivots;
        nodes = mip.Mm_lp.Branch_bound.nodes;
        domains = par.Mm_lp.Branch_bound.domains_used;
        stolen = par.Mm_lp.Branch_bound.nodes_stolen;
        idle = par.Mm_lp.Branch_bound.idle_seconds;
        cuts_root = stats.Mm_lp.Solver.cuts_added;
        cuts_node = stats.Mm_lp.Solver.node_cuts_added;
        cuts_dropped = stats.Mm_lp.Solver.cuts_dropped;
        cuts_fams = stats.Mm_lp.Solver.cuts_by_family;
        incumbent =
          Mm_lp.Branch_bound.incumbent_source_to_string
            mip.Mm_lp.Branch_bound.incumbent_source;
        sparse_solves = lp.Mm_lp.Simplex.sparse_solves;
        dense_fallbacks = lp.Mm_lp.Simplex.dense_fallbacks;
      }
  | Error _ ->
      {
        seconds = Unix.gettimeofday () -. t0;
        optimal = false;
        objective = None;
        pivots = 0;
        nodes = 0;
        domains = 0;
        stolen = 0;
        idle = 0.0;
        cuts_root = 0;
        cuts_node = 0;
        cuts_dropped = 0;
        cuts_fams = [];
        incumbent = "none";
        sparse_solves = 0;
        dense_fallbacks = 0;
      }

(* '*' marks a run that hit the cap before proving optimality. *)
let fmt_time (c : Record.cell) =
  match c.objective with
  | None -> "failed"
  | Some _ -> Printf.sprintf (if c.optimal then "%.2f" else "%.2f*") c.seconds

let fmt_obj = function Some o -> Printf.sprintf "%g" o | None -> "none"

(* One message per named pair of cells whose objectives differ.
   [strict] also flags a pair in which either run found no incumbent. *)
let objective_mismatches ?(strict = false) pairs =
  List.filter_map
    (fun (leg, (na, (a : Record.cell)), (nb, (b : Record.cell))) ->
      let differ =
        if a.objective <> None && b.objective <> None then
          not (Record.agree a b)
        else strict
      in
      if differ then
        Some
          (Printf.sprintf "%s %s/%s objective mismatch (%s vs %s)" leg na nb
             (fmt_obj a.objective) (fmt_obj b.objective))
      else None)
    pairs

(* A message when two runs that must follow one pivot trajectory both
   proved optimality in different pivot counts. *)
let pivot_divergence (leg, (na, (a : Record.cell)), (nb, (b : Record.cell))) =
  if a.optimal && b.optimal && a.pivots <> b.pivots then
    Some
      (Printf.sprintf "%s %s/%s pivot trajectory diverged (%d vs %d)" leg na nb
         a.pivots b.pivots)
  else None

(* An A/B arm: a baseline and a candidate solver configuration, run
   under one budget on both formulations.  [columns] are what a table
   shows per configuration, [headline] the figure the record keeps when
   both proved the same optimum.  [trajectory] marks arms whose two
   configurations must follow one pivot trajectory. *)
type ab = {
  key : string;
  base : string * Mm_lp.Config.t;
  cand : string * Mm_lp.Config.t;
  columns : (string * (Record.cell -> string)) list;
  headline : string * (Record.cell -> Record.cell -> float option);
  trajectory : bool;
}

let seconds_col = ("time (s)", fmt_time)
let pivots_col = ("pivots", fun (c : Record.cell) -> string_of_int c.pivots)

(* percentage drop of a counter from the baseline to the candidate *)
let reduction f b c =
  if f b > 0 then
    Some (100.0 *. float_of_int (f b - f c) /. float_of_int (f b))
  else None

(* the full cut pool with node cuts and GUB diving (the default) against
   the pre-pool configuration: knapsack covers at the root only *)
let cuts_ab =
  {
    key = "cuts_ab";
    base = ("cover_only", Mm_lp.Solver.baseline_options ());
    cand = ("full_pool", Mm_lp.Config.default);
    columns =
      [
        seconds_col;
        ("nodes", fun c -> string_of_int c.nodes);
        ( "cuts r/n/d",
          fun c ->
            Printf.sprintf "%d/%d/%d" c.cuts_root c.cuts_node c.cuts_dropped );
        ("incumbent", fun c -> c.incumbent);
      ];
    headline =
      ("node_reduction_pct", reduction (fun (c : Record.cell) -> c.nodes));
    trajectory = false;
  }

(* each FTRAN/BTRAN kernel forced: the default [Auto] kernel runs the
   dense sweeps at Table-3 basis sizes, so the hypersparse kernel needs
   its own forced leg *)
let hypersparse_ab =
  {
    key = "hypersparse_ab";
    base = ("dense", Mm_lp.Config.make ~lu_kernel:Mm_lp.Lu.Dense ());
    cand = ("sparse", Mm_lp.Config.make ~lu_kernel:Mm_lp.Lu.Sparse ());
    columns =
      [
        seconds_col;
        pivots_col;
        ( "solves sparse/fallback",
          fun c -> Printf.sprintf "%d/%d" c.sparse_solves c.dense_fallbacks );
      ];
    headline =
      ( "speedup",
        fun (d : Record.cell) (s : Record.cell) ->
          if s.seconds > 0.0 then Some (d.seconds /. s.seconds) else None );
    trajectory = true;
  }

let ab_arms = [ cuts_ab; hypersparse_ab ]

(* A measured arm is one (formulation, baseline, candidate) triple per
   formulation. *)
let ab_json ab pairs =
  Mm_obs.Json.Obj
    (List.map
       (fun (form, b, c) ->
         (form, Record.pair (fst ab.base, b) (fst ab.cand, c) ab.headline))
       pairs)

(* the candidate checked against the baseline, per formulation *)
let ab_checks ab pairs =
  List.map
    (fun (form, b, c) -> (form, (fst ab.cand, c), (fst ab.base, b)))
    pairs

(* One A/B arm as a table: a row per configuration of each labelled
   pair, with the arm's columns and objective; the candidate's row also
   carries the headline. *)
let print_ab ab labels rows =
  let key, f = ab.headline in
  let t =
    Table.create
      (List.map (fun l -> (l, Table.Left)) (labels @ [ "config" ])
      @ List.map (fun (h, _) -> (h, Table.Right)) ab.columns
      @ [ ("objective", Table.Right); (key, Table.Right) ])
  in
  List.iter
    (fun (label, b, c) ->
      let add (name, (x : Record.cell)) last =
        Table.add_row t
          (label @ [ name ]
          @ List.map (fun (_, g) -> g x) ab.columns
          @ [
              (match x.objective with
              | Some o -> Printf.sprintf "%.0f" o
              | None -> "-");
              last;
            ])
      in
      add (fst ab.base, b) "";
      add (fst ab.cand, c)
        (match Record.headline f b c with
        | Some v -> Printf.sprintf "%.2f" v
        | None -> "-"))
    rows;
  Table.print t

(* Traced re-run of the serial global leg: its time with tracing enabled
   plus the per-phase span totals recovered from the trace.  Paired with
   the untraced cell it is the A/B evidence that tracing is cheap when
   on and free when off. *)
type t3_traced = {
  traced_seconds : float;
  phases : (string * float) list;
  (* count-event totals (cut_pivots, cut_noop_round, flip, ...) *)
  counters : (string * int) list;
}

type t3_row = {
  point : Mm_workload.Table3.point;
  global : Record.cell;
  global_par : Record.cell;
  complete : Record.cell;
  (* per A/B arm key, its measured (formulation, baseline, candidate)
     triples *)
  abs : (string * (string * Record.cell * Record.cell) list) list;
  traced : t3_traced;
}

let traced_global board design =
  let tr = Mm_obs.Trace.create () in
  let c =
    measure ~trace:tr ~method_:Mm_mapping.Mapper.Global_detailed
      Mm_lp.Config.default board design
  in
  let phases, counters =
    match Mm_obs.Summary.of_lines (Mm_obs.Trace.dump_lines tr) with
    | Ok events ->
        let totals = Hashtbl.create 8 and order = ref [] in
        List.iter
          (fun (e : Mm_obs.Summary.event) ->
            if e.Mm_obs.Summary.kind = "count" then begin
              let name = e.Mm_obs.Summary.name in
              if not (Hashtbl.mem totals name) then order := name :: !order;
              Hashtbl.replace totals name
                ((try Hashtbl.find totals name with Not_found -> 0)
                + e.Mm_obs.Summary.n)
            end)
          events;
        ( Mm_obs.Summary.phase_totals events,
          List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order )
    | Error _ -> ([], [])
  in
  { traced_seconds = c.seconds; phases; counters }

let table3_cache : t3_row list option ref = ref None

let measure_table3 () =
  match !table3_cache with
  | Some rows -> rows
  | None ->
      let rows =
        List.map
          (fun (point : Mm_workload.Table3.point) ->
            let spec = point.Mm_workload.Table3.spec in
            Printf.eprintf "table3: point %d segments / %d banks...\n%!"
              spec.Mm_workload.Gen.segments spec.Mm_workload.Gen.banks;
            let board, design = Mm_workload.Gen.instance spec in
            (* each (formulation, configuration) is solved once: the
               default legs double as the full-pool arm *)
            let solved = ref [] in
            let leg method_ config =
              match List.assoc_opt (method_, config) !solved with
              | Some c -> c
              | None ->
                  let c = measure ~method_ config board design in
                  solved := ((method_, config), c) :: !solved;
                  c
            in
            let default = Mm_lp.Config.default in
            let global = leg Mm_mapping.Mapper.Global_detailed default in
            (* same budget, [Record.parallelism] worker domains; the
               serial leg stays the recorded baseline *)
            let global_par =
              leg Mm_mapping.Mapper.Global_detailed
                { default with parallelism = Record.parallelism }
            in
            let complete = leg Mm_mapping.Mapper.Complete_flat default in
            let abs =
              List.map
                (fun ab ->
                  let run (_, config) =
                    List.map
                      (fun (form, m) -> (form, leg m config))
                      formulations
                  in
                  let base = run ab.base in
                  let cand = run ab.cand in
                  ( ab.key,
                    List.map2
                      (fun (form, b) (_, c) -> (form, b, c))
                      base cand ))
                ab_arms
            in
            (* every arm's candidate against its baseline and, where the
               candidate is not the default configuration, the default
               too *)
            let checks =
              (false, ("global", ("parallel", global_par), ("serial", global)))
              :: List.concat_map
                   (fun ab ->
                     let pairs = List.assoc ab.key abs in
                     let default_legs =
                       if snd ab.cand = default then []
                       else
                         List.map
                           (fun (form, b, _) ->
                             let m = List.assoc form formulations in
                             ( form,
                               ("default", leg m default),
                               (fst ab.base, b) ))
                           pairs
                     in
                     List.map
                       (fun c -> (ab.trajectory, c))
                       (ab_checks ab pairs @ default_legs))
                   ab_arms
            in
            let warn msg = Printf.eprintf "table3: WARNING %s\n%!" msg in
            List.iter warn (objective_mismatches (List.map snd checks));
            List.iter warn
              (List.filter_map
                 (fun (trajectory, c) ->
                   if trajectory then pivot_divergence c else None)
                 checks);
            let traced = traced_global board design in
            { point; global; global_par; complete; abs; traced })
          Mm_workload.Table3.points
      in
      table3_cache := Some rows;
      rows

(* Machine-readable record of the Table-3 sweep: per design point, every
   measured cell, plus the tracing overhead over the whole sweep: the
   untraced legs run with tracing disabled (the no-op sink), the traced
   legs with a live trace. *)
let table3_record rows =
  let point r =
    Mm_obs.Json.Obj
      (spec_fields r.point.Mm_workload.Table3.spec
      @ [
          ("complete", Record.cell r.complete);
          ("global", Record.cell r.global);
          ("global_parallel", Record.cell r.global_par);
          ( "global_traced",
            Mm_obs.Json.Obj
              [
                ("seconds", Record.num r.traced.traced_seconds);
                ( "phases",
                  Mm_obs.Json.Obj
                    (List.map
                       (fun (n, s) -> (n, Record.num ~digits:6 s))
                       r.traced.phases) );
                ( "counters",
                  Mm_obs.Json.Obj
                    (List.map
                       (fun (n, k) -> (n, Record.int k))
                       r.traced.counters) );
              ] );
        ]
      @ List.map
          (fun ab -> (ab.key, ab_json ab (List.assoc ab.key r.abs)))
          ab_arms)
  in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let untraced = total (fun r -> r.global.seconds)
  and traced = total (fun r -> r.traced.traced_seconds) in
  [
    ("points", Mm_obs.Json.List (List.map point rows));
    ( "trace_ab",
      Mm_obs.Json.Obj
        [
          ("untraced_global_seconds", Record.num untraced);
          ("traced_global_seconds", Record.num traced);
          ( "overhead_pct",
            if untraced > 0.0 then
              Record.num ~digits:2 (100.0 *. (traced -. untraced) /. untraced)
            else Mm_obs.Json.Null );
        ] );
  ]

let run_table3 () =
  header "Table 3: ILP execution times, complete vs global/detailed";
  line "(measured on this machine; paper: CPLEX on a 248 MHz Sun Ultra-30.";
  line " '*' marks a run that hit the %.0f s cap before proving optimality,"
    (Record.cap ());
  line " 'failed' one that found no incumbent; absolute values differ, the";
  line " complete-vs-global shape is the claim)";
  let rows = measure_table3 () in
  let t =
    Table.create
      [
        ("#segs", Table.Right);
        ("#banks", Table.Right);
        ("#ports", Table.Right);
        ("#configs", Table.Right);
        ("complete (s)", Table.Right);
        ("global (s)", Table.Right);
        (Printf.sprintf "global -j%d (s)" Record.parallelism, Table.Right);
        ("ratio", Table.Right);
        ("paper complete", Table.Right);
        ("paper global", Table.Right);
        ("paper ratio", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let spec = r.point.Mm_workload.Table3.spec in
      let pc = r.point.Mm_workload.Table3.paper_complete_seconds in
      let pg = r.point.Mm_workload.Table3.paper_global_seconds in
      Table.add_row t
        [
          string_of_int spec.Mm_workload.Gen.segments;
          string_of_int spec.Mm_workload.Gen.banks;
          string_of_int spec.Mm_workload.Gen.ports;
          string_of_int spec.Mm_workload.Gen.configs;
          fmt_time r.complete;
          fmt_time r.global;
          fmt_time r.global_par;
          Printf.sprintf "%.1fx"
            (r.complete.seconds /. Float.max r.global.seconds 1e-6);
          Printf.sprintf "%.1f" pc;
          Printf.sprintf "%.1f" pg;
          Printf.sprintf "%.1fx" (pc /. pg);
        ])
    rows;
  Table.print t;
  List.iter
    (fun ab ->
      line "";
      line "%s: %s vs %s (serial legs, same budget):" ab.key (fst ab.base)
        (fst ab.cand);
      print_ab ab [ "#segs"; "formulation" ]
        (List.concat_map
           (fun r ->
             let segs =
               string_of_int
                 r.point.Mm_workload.Table3.spec.Mm_workload.Gen.segments
             in
             List.map (fun (form, b, c) -> ([ segs; form ], b, c))
               (List.assoc ab.key r.abs))
           rows))
    ab_arms;
  Record.write ~experiment:"table3" (table3_record rows)

let run_fig4 () =
  header "Fig. 4: complete versus global/detailed execution times";
  let rows = measure_table3 () in
  let series label glyph f =
    {
      Ascii_plot.label;
      glyph;
      points = List.mapi (fun i r -> (float_of_int i, f r)) rows;
    }
  in
  print_string
    (Ascii_plot.render ~x_label:"design point (increasing size)"
       ~y_label:"execution time (s), this machine"
       [
         series "Complete approach" '#' (fun r -> r.complete.seconds);
         series "Global/Detailed approach" 'o' (fun r -> r.global.seconds);
       ]);
  line "";
  print_string
    (Ascii_plot.render ~x_label:"design point (increasing size)"
       ~y_label:"execution time (s), paper (CPLEX, Ultra-30)"
       [
         series "Complete approach" '#' (fun r ->
             r.point.Mm_workload.Table3.paper_complete_seconds);
         series "Global/Detailed approach" 'o' (fun r ->
             r.point.Mm_workload.Table3.paper_global_seconds);
       ])

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let run_ablation_link () =
  header "Ablation: aggregated vs disaggregated linking in the complete model";
  line "(X <= Z per variable tightens the LP but multiplies the row count)";
  let t =
    Table.create
      [
        ("point", Table.Left);
        ("linking", Table.Left);
        ("rows", Table.Right);
        ("time (s)", Table.Right);
        ("nodes", Table.Right);
      ]
  in
  let cap = if !Record.full_mode then 300.0 else 30.0 in
  let opts = Mm_lp.Solver.quick_options ~time_limit:cap () in
  List.iteri
    (fun i (point : Mm_workload.Table3.point) ->
      if i < 2 then begin
        let board, design = Mm_workload.Gen.instance point.Mm_workload.Table3.spec in
        List.iter
          (fun disagg ->
            match
              Mm_mapping.Complete_ilp.build ~disaggregated_linking:disagg board
                design
            with
            | Error _ -> ()
            | Ok b ->
                let t0 = Unix.gettimeofday () in
                let r = Mm_lp.Solver.solve ~options:opts b.Mm_mapping.Complete_ilp.problem in
                Table.add_row t
                  [
                    Printf.sprintf "%d segs"
                      point.Mm_workload.Table3.spec.Mm_workload.Gen.segments;
                    (if disagg then "disaggregated" else "aggregated");
                    string_of_int b.Mm_mapping.Complete_ilp.problem.Mm_lp.Problem.nrows;
                    Printf.sprintf "%.2f" (Unix.gettimeofday () -. t0);
                    string_of_int r.Mm_lp.Solver.mip.Mm_lp.Branch_bound.nodes;
                  ])
          [ false; true ]
      end)
    Mm_workload.Table3.points;
  Table.print t

let run_ablation_detailed () =
  header "Ablation: greedy FFD vs ILP detailed mapper";
  let point = List.nth Mm_workload.Table3.points 1 in
  let board, design = Mm_workload.Gen.instance point.Mm_workload.Table3.spec in
  match Mm_mapping.Global_ilp.solve board design with
  | Error _ -> line "global solve failed"
  | Ok (assignment, _) ->
      let t =
        Table.create
          [
            ("engine", Table.Left);
            ("time (s)", Table.Right);
            ("instances used", Table.Right);
            ("fragments", Table.Right);
            ("legal", Table.Left);
          ]
      in
      let report name result seconds =
        match result with
        | Error (f : Mm_mapping.Detailed.failure) ->
            Table.add_row t [ name; Printf.sprintf "%.3f" seconds; "-"; "-";
                              "FAILED: " ^ f.Mm_mapping.Detailed.reason ]
        | Ok mapping ->
            Table.add_row t
              [
                name;
                Printf.sprintf "%.3f" seconds;
                string_of_int
                  (Ints.sum_by snd (Mm_mapping.Detailed.instances_used mapping));
                string_of_int (List.length mapping.Mm_mapping.Detailed.placements);
                string_of_bool (Mm_mapping.Validate.is_legal board design mapping);
              ]
      in
      let t0 = Unix.gettimeofday () in
      let greedy = Mm_mapping.Detailed.run board design assignment in
      let t1 = Unix.gettimeofday () in
      report "greedy FFD" greedy (t1 -. t0);
      let t2 = Unix.gettimeofday () in
      let ilp = Mm_mapping.Detailed_ilp.run board design assignment in
      let t3 = Unix.gettimeofday () in
      report "ILP (min instances)" ilp (t3 -. t2);
      Table.print t

let run_ablation_weights () =
  header "Ablation: objective weight sweep (latency vs pin terms)";
  (* On-chip RAM wins on every cost axis at once, so weights only matter
     when off-chip choices are in tension. This board has scarce on-chip
     RAM plus two off-chip families pulling in opposite directions: a
     fast pipeline RAM far from the FPGA and a slow RAM right next to
     it. *)
  let board =
    Mm_arch.Board.make ~name:"sweep-board"
      [
        Mm_arch.Devices.virtex_blockram ~instances:2 ();
        Mm_arch.Bank_type.make ~name:"fast-far" ~instances:4 ~ports:1
          ~configs:[ Mm_arch.Config.make ~depth:131072 ~width:32 ]
          ~read_latency:1 ~write_latency:1 ~pins_traversed:6;
        Mm_arch.Bank_type.make ~name:"slow-near" ~instances:4 ~ports:1
          ~configs:[ Mm_arch.Config.make ~depth:131072 ~width:32 ]
          ~read_latency:4 ~write_latency:5 ~pins_traversed:2;
      ]
  in
  let design =
    let seg name depth width reads writes =
      Mm_design.Segment.make ~reads ~writes ~name ~depth ~width ()
    in
    Mm_design.Design.make ~name:"sweep"
      [
        seg "coeffs" 256 16 40960 256;
        seg "line0" 720 8 1440 1440;
        seg "line1" 720 8 1440 1440;
        seg "window" 64 8 8192 4096;
        seg "hist" 256 16 2048 2048;
        seg "frame" 76800 8 76800 76800;
        seg "lut" 1024 8 20480 1024;
        seg "scratch" 2048 16 4096 4096;
        seg "fifo" 512 32 1024 1024;
        seg "taps" 128 16 16384 128;
      ]
  in
  let t =
    Table.create
      [
        ("weights (lat, pin-delay, pin-io)", Table.Left);
        ("on-chip segments", Table.Right);
        ("off-chip segments", Table.Right);
        ("latency cost", Table.Right);
        ("pin cost", Table.Right);
      ]
  in
  let sweep =
    [
      ("1, 1, 1", Mm_mapping.Cost.default_weights);
      ("1, 0, 0", Mm_mapping.Cost.latency_only);
      ("0, 1, 1", Mm_mapping.Cost.pins_only);
      ("10, 1, 1", { Mm_mapping.Cost.latency = 10.0; pin_delay = 1.0; pin_io = 1.0 });
      ("1, 10, 10", { Mm_mapping.Cost.latency = 1.0; pin_delay = 10.0; pin_io = 10.0 });
    ]
  in
  List.iter
    (fun (label, weights) ->
      match Mm_mapping.Global_ilp.solve ~weights board design with
      | Error _ -> Table.add_row t [ label; "-"; "-"; "-"; "-" ]
      | Ok (a, _) ->
          let onchip = ref 0 and offchip = ref 0 in
          let lat = ref 0.0 and pin = ref 0.0 in
          Array.iteri
            (fun d ti ->
              let bt = Mm_arch.Board.bank_type board ti in
              let seg = Mm_design.Design.segment design d in
              if Mm_arch.Bank_type.is_on_chip bt then incr onchip else incr offchip;
              lat := !lat +. Mm_mapping.Cost.latency_cost Mm_mapping.Cost.Uniform seg bt;
              pin :=
                !pin
                +. Mm_mapping.Cost.pin_delay_cost Mm_mapping.Cost.Uniform seg bt
                +. Mm_mapping.Cost.pin_io_cost
                     (Mm_mapping.Preprocess.coeffs seg bt)
                     seg bt)
            a;
          Table.add_row t
            [
              label;
              string_of_int !onchip;
              string_of_int !offchip;
              Printf.sprintf "%.0f" !lat;
              Printf.sprintf "%.0f" !pin;
            ])
    sweep;
  Table.print t;
  line "On-chip RAM is best on every axis and fills up first regardless of";
  line "weights; the interesting shift is off chip: latency-weighted runs";
  line "choose the fast-but-far banks, pin-weighted runs the slow-but-near";
  line "ones, trading roughly 4x latency against roughly 3x pin cost."

let run_ablation_overlap () =
  header "Ablation: lifetime-aware capacity (overlap) vs conservative";
  let point = List.nth Mm_workload.Table3.points 1 in
  let board, design = Mm_workload.Gen.instance point.Mm_workload.Table3.spec in
  let cliques = Mm_mapping.Global_ilp.capacity_cliques design in
  line "Design: %d segments, %d conflict pairs, %d capacity cliques"
    (Mm_design.Design.num_segments design)
    (Mm_design.Conflict.num_pairs design.Mm_design.Design.conflicts)
    (List.length cliques);
  line "Max simultaneous live bits: %d of %d total (%.0f%%)"
    (Mm_design.Design.max_live_bits design)
    (Mm_design.Design.total_bits design)
    (100.0
    *. float_of_int (Mm_design.Design.max_live_bits design)
    /. float_of_int (Mm_design.Design.total_bits design));
  (match Mm_mapping.Mapper.run board design with
  | Ok o ->
      let shared =
        List.length
          (List.filter
             (fun (p : Mm_mapping.Detailed.placement) -> p.Mm_mapping.Detailed.shared)
             o.Mm_mapping.Mapper.mapping.Mm_mapping.Detailed.placements)
      in
      line "Overlap-aware detailed mapping: %d shared placements" shared
  | Error e -> line "mapping failed: %s" (Mm_mapping.Mapper.error_to_string e));
  line "";
  line "Note (measured property of the Fig. 3 model): a fragment's port";
  line "charge is at least its capacity fraction times the port count, so";
  line "the port budget always dominates the storage budget. Overlap";
  line "shares bits and reduces pressure, but cannot make an otherwise";
  line "port-infeasible assignment feasible; the paper's future-work note";
  line "on arbitration (port sharing) is what would change that."


let run_ablation_portmodel () =
  header "Ablation: Fig. 3 vs improved consumed_ports (Section 6 future work)";
  (* Table 2 acceptance under both models *)
  let count model =
    let opts = Mm_mapping.Preprocess.allocation_options ~model ~ports:3 ~depth:16 () in
    List.length (List.filter (fun (_, ok) -> not ok) opts)
  in
  line "3-port 16-word bank, 32 allocation options:";
  line "  Fig. 3 estimate rejects %d options (incl. the paper's (8,8,0))"
    (count Mm_mapping.Preprocess.Fig3);
  line "  improved estimate rejects %d options" (count Mm_mapping.Preprocess.Improved);
  (* port utilization on a 3-port workload *)
  let bank =
    Mm_arch.Bank_type.make ~name:"tri" ~instances:6 ~ports:3
      ~configs:
        [
          Mm_arch.Config.make ~depth:128 ~width:1;
          Mm_arch.Config.make ~depth:64 ~width:2;
          Mm_arch.Config.make ~depth:32 ~width:4;
          Mm_arch.Config.make ~depth:16 ~width:8;
        ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board =
    Mm_arch.Board.make ~name:"tri-board"
      [ bank; Mm_arch.Devices.offchip_sram ~instances:6 ~depth:16384 ~width:8 () ]
  in
  let rng = Prng.create 97 in
  let design =
    Mm_design.Design.make ~name:"halves"
      (List.init 12 (fun i ->
           Mm_design.Segment.make
             ~name:(Printf.sprintf "h%d" i)
             ~depth:(Prng.pick rng [ 8; 8; 16 ])
             ~width:8 ()))
  in
  let t =
    Table.create
      [
        ("port model", Table.Left);
        ("objective", Table.Right);
        ("segments on 3-port bank", Table.Right);
        ("legal", Table.Left);
      ]
  in
  List.iter
    (fun (label, port_model) ->
      let options = Mm_mapping.Mapper.options ~port_model ~max_retries:25 () in
      match Mm_mapping.Mapper.run ~options board design with
      | Error e ->
          Table.add_row t
            [ label; "-"; "-"; Mm_mapping.Mapper.error_to_string e ]
      | Ok o ->
          let onbank =
            Array.fold_left
              (fun acc ti -> if ti = 0 then acc + 1 else acc)
              0 o.Mm_mapping.Mapper.assignment
          in
          Table.add_row t
            [
              label;
              Printf.sprintf "%.0f" o.Mm_mapping.Mapper.objective;
              string_of_int onbank;
              string_of_bool
                (Mm_mapping.Validate.is_legal ~port_model board design
                   o.Mm_mapping.Mapper.mapping);
            ])
    [
      ("Fig. 3 (paper)", Mm_mapping.Preprocess.Fig3);
      ("improved", Mm_mapping.Preprocess.Improved);
    ];
  Table.print t;
  line "Fig. 3 charges each half-bank fragment 2 of the 3 ports, so the";
  line "global port budget (18) admits 9 of them although only one fits";
  line "per instance (6 total) - the global/detailed retry loop fires on";
  line "every such assignment, the over-estimation the paper's Section 6";
  line "wants fixed. The improved estimate charges 1 port per half-bank";
  line "and maps cleanly.";
  (* also show the retry behaviour explicitly *)
  (match
     Mm_mapping.Mapper.run
       ~options:(Mm_mapping.Mapper.options ~max_retries:25 ())
       board design
   with
  | Ok o -> line "Fig. 3 eventually succeeded after %d retries." o.Mm_mapping.Mapper.retries
  | Error (Mm_mapping.Mapper.Retries_exhausted n) ->
      line "Fig. 3 retry loop exhausted after %d global/detailed iterations." n
  | Error e -> line "Fig. 3: %s" (Mm_mapping.Mapper.error_to_string e))

let run_ablation_arbitration () =
  header "Ablation: arbitration extension (port sharing, Section 6)";
  (* phased workload: groups of segments alive in different phases *)
  let bank =
    Mm_arch.Bank_type.make ~name:"dp" ~instances:4 ~ports:2
      ~configs:[ Mm_arch.Config.make ~depth:256 ~width:16 ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board =
    Mm_arch.Board.make ~name:"arb-board"
      [ bank; Mm_arch.Devices.offchip_sram ~instances:8 ~depth:65536 ~width:16 () ]
  in
  let phases = 3 and per_phase = 4 in
  let segs =
    List.concat_map
      (fun ph ->
        List.init per_phase (fun i ->
            Mm_design.Segment.make
              ~name:(Printf.sprintf "p%d_s%d" ph i)
              ~depth:256 ~width:16 ()))
      (Ints.range phases)
  in
  let ivals =
    Array.of_list
      (List.concat_map
         (fun ph ->
           List.init per_phase (fun _ ->
               { Mm_design.Lifetime.birth = ph * 10; death = (ph * 10) + 8 }))
         (Ints.range phases))
  in
  let design =
    Mm_design.Design.make
      ~lifetimes:(Mm_design.Lifetime.make ivals)
      ~name:"phased" segs
  in
  let t =
    Table.create
      [
        ("model", Table.Left);
        ("objective", Table.Right);
        ("on-chip segments", Table.Right);
        ("legal", Table.Left);
      ]
  in
  List.iter
    (fun (label, arbitration) ->
      let options = Mm_mapping.Mapper.options ~arbitration () in
      match Mm_mapping.Mapper.run ~options board design with
      | Error e -> Table.add_row t [ label; "-"; "-"; Mm_mapping.Mapper.error_to_string e ]
      | Ok o ->
          let onchip =
            Array.fold_left (fun acc ti -> if ti = 0 then acc + 1 else acc) 0
              o.Mm_mapping.Mapper.assignment
          in
          Table.add_row t
            [
              label;
              Printf.sprintf "%.0f" o.Mm_mapping.Mapper.objective;
              Printf.sprintf "%d/%d" onchip (phases * per_phase);
              string_of_bool
                (Mm_mapping.Validate.is_legal ~arbitration board design
                   o.Mm_mapping.Mapper.mapping);
            ])
    [ ("no arbitration (paper)", false); ("arbitration (future work)", true) ];
  Table.print t;
  line "With arbitration, the 8 on-chip ports are time-shared by the three";
  line "phases (12 segments of one bank each), so everything stays on chip;";
  line "the paper's model must spill entire phases to off-chip SRAM."

(* ------------------------------------------------------------------ *)
(* A/B smokes (CI legs)                                                 *)
(* ------------------------------------------------------------------ *)

(* One A/B arm on the smallest Table-3 point, recorded on its own.
   Exits nonzero when the two configurations prove different objectives
   or either finds none: an invalid cut shows up as a changed optimum.
   cuts-smoke runs [cuts_ab]. *)
let ab_smoke ~experiment ab () =
  header
    (Printf.sprintf "%s: Table-3 point 0, %s vs %s" experiment (fst ab.base)
       (fst ab.cand));
  let spec = (List.hd Mm_workload.Table3.points).Mm_workload.Table3.spec in
  let board, design = Mm_workload.Gen.instance spec in
  let pairs =
    List.map
      (fun (form, method_) ->
        let run (_, config) = measure ~method_ config board design in
        let b = run ab.base in
        (form, b, run ab.cand))
      formulations
  in
  print_ab ab [ "formulation" ]
    (List.map (fun (f, b, c) -> ([ f ], b, c)) pairs);
  Record.write ~experiment (spec_fields spec @ [ (ab.key, ab_json ab pairs) ]);
  match objective_mismatches ~strict:true (ab_checks ab pairs) with
  | [] -> line "%s and %s agree on every objective." (fst ab.base) (fst ab.cand)
  | ms ->
      List.iter (Printf.eprintf "%s: %s\n" experiment) ms;
      exit 1

(* ------------------------------------------------------------------ *)
(* Serve smoke (CI leg)                                                 *)
(* ------------------------------------------------------------------ *)

(* The mapping service's warm-start A/B: repeat the smallest Table-3
   point through [Mm_service.Engine] — the exact path [mmap serve]
   workers run — and compare the cold first solve against the
   cache-warmed repeats, recorded as the serve_warm_ab cell. Exits
   nonzero when a repeat misses the cache or warm and cold objectives
   disagree (a warm start must accelerate the search, never change the
   optimum). *)
let run_serve_smoke () =
  header "Serve smoke: warm-vs-cold through the service engine";
  let point = List.hd Mm_workload.Table3.points in
  let spec = point.Mm_workload.Table3.spec in
  let board, design = Mm_workload.Gen.instance spec in
  let knobs = Mm_lp.Config.make ~time_limit:(Record.cap ()) () in
  let engine = Mm_service.Engine.create () in
  let req = Mm_service.Request.make ~id:"bench" ~knobs board design in
  let repeats = 4 in
  let shots =
    List.init repeats (fun i ->
        let t0 = Unix.gettimeofday () in
        match Mm_service.Engine.handle engine req with
        | Mm_service.Request.Ok_response { cache_hit; warm_solves; report; _ }
          ->
            let seconds = Unix.gettimeofday () -. t0 in
            let num path obj =
              Option.bind (Mm_obs.Json.member path obj) Mm_obs.Json.to_float
            in
            let objective = num "objective" report in
            let pivots =
              match Option.bind (Mm_obs.Json.member "lp" report) (num "pivots")
              with
              | Some p -> int_of_float p
              | None -> 0
            in
            (i, seconds, cache_hit, warm_solves, objective, pivots)
        | Mm_service.Request.Error_response { message; _ } ->
            Printf.eprintf "serve-smoke: request %d failed: %s\n" i message;
            exit 1)
  in
  let t =
    Table.create
      [
        ("request", Table.Right);
        ("cache", Table.Left);
        ("warm solves", Table.Right);
        ("time (s)", Table.Right);
        ("pivots", Table.Right);
        ("objective", Table.Right);
      ]
  in
  List.iter
    (fun (i, seconds, hit, solves, objective, pivots) ->
      Table.add_row t
        [
          string_of_int i;
          (if hit then "hit" else "miss");
          string_of_int solves;
          Printf.sprintf "%.3f" seconds;
          string_of_int pivots;
          (match objective with
          | Some o -> Printf.sprintf "%.0f" o
          | None -> "-");
        ])
    shots;
  Table.print t;
  let cold = List.hd shots in
  let warm = List.filteri (fun i _ -> i > 0) shots in
  let mean f xs =
    List.fold_left (fun a x -> a +. f x) 0.0 xs /. float_of_int (List.length xs)
  in
  let sec (_, s, _, _, _, _) = s in
  let piv (_, _, _, _, _, p) = float_of_int p in
  let obj (_, _, _, _, o, _) = o in
  let _, cold_s, _, _, cold_obj, cold_piv = cold in
  let warm_s = mean sec warm in
  let warm_piv = mean piv warm in
  let reduction =
    if cold_piv > 0 then
      100.0 *. (float_of_int cold_piv -. warm_piv) /. float_of_int cold_piv
    else 0.0
  in
  Record.write ~experiment:"serve-smoke"
    (spec_fields spec
    @ [
        ( "serve_warm_ab",
          Mm_obs.Json.Obj
            [
              ( "cold",
                Mm_obs.Json.Obj
                  [
                    ("seconds", Record.num cold_s);
                    ("pivots", Record.int cold_piv);
                    ("objective", Record.opt Record.num cold_obj);
                  ] );
              ( "warm",
                Mm_obs.Json.Obj
                  [
                    ("repeats", Record.int (List.length warm));
                    ("mean_seconds", Record.num warm_s);
                    ("mean_pivots", Record.num ~digits:1 warm_piv);
                    ("objective", Record.opt Record.num (obj (List.hd warm)));
                  ] );
              ("pivot_reduction_percent", Record.num ~digits:2 reduction);
            ] );
      ]);
  let misses =
    List.filter (fun (i, _, hit, _, _, _) -> i > 0 && not hit) shots
  in
  let mismatched =
    List.filter
      (fun shot ->
        match (cold_obj, obj shot) with
        | Some a, Some b -> Float.abs (a -. b) > 1e-6
        | _ -> true)
      warm
  in
  if misses <> [] then begin
    List.iter
      (fun (i, _, _, _, _, _) ->
        Printf.eprintf "serve-smoke: repeat request %d missed the warm cache\n"
          i)
      misses;
    exit 1
  end;
  if mismatched <> [] then begin
    List.iter
      (fun shot ->
        Printf.eprintf "serve-smoke: warm objective %s differs from cold %s\n"
          (fmt_obj (obj shot)) (fmt_obj cold_obj))
      mismatched;
    exit 1
  end;
  line "every repeat hit the warm cache at the cold objective (pivots %.2f%%)."
    reduction

(* ------------------------------------------------------------------ *)
(* Serve batch A/B (CI leg)                                             *)
(* ------------------------------------------------------------------ *)

(* The coalescing A/B: the same burst of identical requests against a
   real in-process [mmap serve] daemon, once with the plain FIFO
   (max_batch 1) and once with coalescing (max_batch 8, 50 ms linger).
   Client-side latency is measured from the burst start to each
   response arrival; throughput is the burst size over the last
   arrival. Recorded as the serve_batch_ab cell. Exits nonzero when any
   response errors, when the two arms disagree on any objective
   (coalescing must never change the optimum), or when the batched arm
   fails to form a batch. *)
let run_serve_batch_ab () =
  header "Serve batch A/B: coalesced burst vs FIFO through mmap serve";
  let point = List.hd Mm_workload.Table3.points in
  let spec = point.Mm_workload.Table3.spec in
  let board, design = Mm_workload.Gen.instance spec in
  let knobs = Mm_lp.Config.make ~time_limit:(Record.cap ()) () in
  let burst = 12 and workers = 2 in
  let max_batch = 8 and linger_ms = 50. in
  let lines =
    List.init burst (fun i ->
        Mm_obs.Json.to_string
          (Mm_service.Request.to_json
             (Mm_service.Request.make ~id:(Printf.sprintf "q%d" i) ~knobs
                board design)))
  in
  let arm ~label ~max_batch ~batch_linger_ms =
    let dir = Filename.temp_file "mm_bench_serve" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let socket = Filename.concat dir "mm.sock" in
    let opts =
      Mm_service.Server.options ~workers ~queue_capacity:64 ~max_batch
        ~batch_linger_ms socket
    in
    let ready_mu = Mutex.create () in
    let ready_cv = Condition.create () in
    let ready = ref false in
    let on_ready () =
      Mutex.lock ready_mu;
      ready := true;
      Condition.signal ready_cv;
      Mutex.unlock ready_mu
    in
    let srv =
      Thread.create
        (fun () -> ignore (Mm_service.Server.run ~on_ready opts))
        ()
    in
    Mutex.lock ready_mu;
    while not !ready do
      Condition.wait ready_cv ready_mu
    done;
    Mutex.unlock ready_mu;
    let client =
      match Mm_service.Client.connect socket with
      | Ok c -> c
      | Error e ->
          Printf.eprintf "serve-batch-ab: %s: %s\n" label e;
          exit 1
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun l ->
        match Mm_service.Client.send client l with
        | Ok () -> ()
        | Error e ->
            Printf.eprintf "serve-batch-ab: %s send: %s\n" label e;
            exit 1)
      lines;
    let shots =
      List.init burst (fun i ->
          match Mm_service.Client.recv client with
          | Error e ->
              Printf.eprintf "serve-batch-ab: %s recv %d: %s\n" label i e;
              exit 1
          | Ok line -> (
              let arrival = Unix.gettimeofday () -. t0 in
              match
                Result.bind (Mm_obs.Json.of_string line)
                  Mm_service.Request.response_of_json
              with
              | Ok (Mm_service.Request.Ok_response { report; _ }) -> (
                  match
                    Option.bind
                      (Mm_obs.Json.member "objective" report)
                      Mm_obs.Json.to_float
                  with
                  | Some o -> (arrival, o)
                  | None ->
                      Printf.eprintf
                        "serve-batch-ab: %s response %d has no objective\n"
                        label i;
                      exit 1)
              | Ok (Mm_service.Request.Error_response { message; _ }) ->
                  Printf.eprintf "serve-batch-ab: %s response %d failed: %s\n"
                    label i message;
                  exit 1
              | Error e ->
                  Printf.eprintf
                    "serve-batch-ab: %s response %d undecodable: %s\n" label i
                    e;
                  exit 1))
    in
    let batching =
      match
        Mm_service.Client.send client {|{"id":"s","op":"stats"}|}
      with
      | Error e ->
          Printf.eprintf "serve-batch-ab: %s stats: %s\n" label e;
          exit 1
      | Ok () -> (
          match Mm_service.Client.recv client with
          | Error e ->
              Printf.eprintf "serve-batch-ab: %s stats recv: %s\n" label e;
              exit 1
          | Ok line -> (
              match Mm_obs.Json.of_string line with
              | Error e ->
                  Printf.eprintf "serve-batch-ab: %s stats json: %s\n" label e;
                  exit 1
              | Ok json ->
                  let num k =
                    match
                      Option.bind
                        (Option.bind (Mm_obs.Json.member "batching" json)
                           (Mm_obs.Json.member k))
                        Mm_obs.Json.to_int
                    with
                    | Some v -> v
                    | None ->
                        Printf.eprintf
                          "serve-batch-ab: %s stats lacks batching.%s\n" label
                          k;
                        exit 1
                  in
                  ( num "batches_formed",
                    num "coalesced_requests",
                    num "batch_warm_hits" )))
    in
    ignore (Mm_service.Client.send client {|{"id":"fin","op":"shutdown"}|});
    ignore (Mm_service.Client.recv client);
    Mm_service.Client.close client;
    Thread.join srv;
    (try Sys.remove socket with Sys_error _ -> ());
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    (shots, batching)
  in
  let unb_shots, _ = arm ~label:"unbatched" ~max_batch:1 ~batch_linger_ms:0. in
  let bat_shots, (formed, coalesced, warm_hits) =
    arm ~label:"batched" ~max_batch ~batch_linger_ms:linger_ms
  in
  let pctl shots q =
    let a = Array.of_list (List.map fst shots) in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (ceil (q *. float_of_int (n - 1)))))
  in
  let total shots = List.fold_left (fun m (a, _) -> Float.max m a) 0. shots in
  let rps shots = float_of_int burst /. Float.max 1e-9 (total shots) in
  let t =
    Table.create
      [
        ("arm", Table.Left);
        ("req/s", Table.Right);
        ("p50 (s)", Table.Right);
        ("p99 (s)", Table.Right);
        ("batches", Table.Right);
        ("coalesced", Table.Right);
        ("warm hits", Table.Right);
      ]
  in
  let row label shots counters =
    Table.add_row t
      ([
         label;
         Printf.sprintf "%.2f" (rps shots);
         Printf.sprintf "%.3f" (pctl shots 0.5);
         Printf.sprintf "%.3f" (pctl shots 0.99);
       ]
      @ List.map string_of_int counters)
  in
  row "unbatched" unb_shots [ 0; 0; 0 ];
  row "batched" bat_shots [ formed; coalesced; warm_hits ];
  Table.print t;
  let objectives = List.map snd (unb_shots @ bat_shots) in
  let obj0 = List.hd objectives in
  let arm_cell shots extra =
    Mm_obs.Json.Obj
      (extra
      @ [
          ("req_per_s", Record.num (rps shots));
          ("p50_s", Record.num ~digits:4 (pctl shots 0.5));
          ("p99_s", Record.num ~digits:4 (pctl shots 0.99));
        ])
  in
  Record.write ~experiment:"serve-batch-ab"
    [
      ("burst", Record.int burst);
      ("workers", Record.int workers);
      ( "serve_batch_ab",
        Mm_obs.Json.Obj
          [
            ("unbatched", arm_cell unb_shots []);
            ( "batched",
              arm_cell bat_shots
                [
                  ("max_batch", Record.int max_batch);
                  ("linger_ms", Record.num linger_ms);
                  ("batches_formed", Record.int formed);
                  ("coalesced_requests", Record.int coalesced);
                  ("batch_warm_hits", Record.int warm_hits);
                ] );
            ("objective", Record.num obj0);
            ( "throughput_gain_percent",
              Record.num ~digits:2
                (100.
                *. (rps bat_shots -. rps unb_shots)
                /. Float.max 1e-9 (rps unb_shots)) );
          ] );
    ];
  let drifted = List.filter (fun o -> Float.abs (o -. obj0) > 1e-6) objectives in
  if drifted <> [] then begin
    List.iter
      (fun o ->
        Printf.eprintf
          "serve-batch-ab: objective drift: %.9g vs %.9g across arms\n" o obj0)
      drifted;
    exit 1
  end;
  if formed < 1 then begin
    Printf.eprintf
      "serve-batch-ab: the batched arm never formed a batch (linger too \
       short for this machine?)\n";
    exit 1
  end;
  line
    "both arms agree on the objective; batched arm formed %d batches \
     (%d coalesced, %d warm hits)."
    formed coalesced warm_hits

(* ------------------------------------------------------------------ *)
(* Scaling (CI leg)                                                    *)
(* ------------------------------------------------------------------ *)

(* Stress the generator and the LP core well past the paper's Table-3
   envelope (132 segments / 180 banks / 265 ports / 375 configs at its
   largest): each [Gen.scale_tier] instance is generated, frozen into
   the global ILP and solved under a per-tier wall-clock cap, and the
   resulting nodes/pivots/seconds curve is recorded as the scaling cell
   (CI's scaling leg).

   Regression thresholds, all deliberately loose — they catch
   complexity-class regressions (an accidentally quadratic generator,
   a simplex that stops making progress), not machine noise:
   - generating + building a tier's model must fit its model budget;
   - every capped solve must make branching progress (the root
     relaxation finished and the tree search processed nodes; proving
     optimality on the big tiers is a --full luxury);
   - simplex throughput must not collapse below a pivots/second
     floor. *)
let run_scaling () =
  header "Scaling: generator + LP core beyond the Table-3 envelope";
  let cap = Record.cap () in
  let tiers =
    if !Record.full_mode then Mm_workload.Gen.scale_tiers
    else List.filteri (fun i _ -> i < 3) Mm_workload.Gen.scale_tiers
  in
  let shots =
    List.map
      (fun (tier : Mm_workload.Gen.tier) ->
        let t0 = Unix.gettimeofday () in
        let board, design = Mm_workload.Gen.tier_instance tier in
        match Mm_mapping.Global_ilp.build board design with
        | Error e ->
            Printf.eprintf "scaling: %s failed to build: %s\n"
              tier.Mm_workload.Gen.tier_name e;
            exit 1
        | Ok b ->
            let p = b.Mm_mapping.Global_ilp.problem in
            let model_seconds = Unix.gettimeofday () -. t0 in
            let options =
              Mm_lp.Solver.quick_options ~time_limit:cap
                ~parallelism:Record.parallelism ()
            in
            let r = Mm_lp.Solver.solve ~options p in
            let mip = r.Mm_lp.Solver.mip in
            (* dense-LU re-solve under the same budget: the scale-tier
               leg of the hypersparse A/B. The primary leg runs the
               production Auto kernel, which is sparse-active from s3
               up (m >= 2048) and dense below — so this pair measures
               the hypersparse win exactly where production engages
               it, and reads ~1.0x on the small tiers. *)
            let options_dlu =
              Mm_lp.Config.make ~time_limit:cap
                ~parallelism:Record.parallelism ~lu_kernel:Mm_lp.Lu.Dense ()
            in
            let rd = Mm_lp.Solver.solve ~options:options_dlu p in
            (tier, p, model_seconds, r, mip, rd))
      tiers
  in
  let pivots_per_second (r : Mm_lp.Solver.result) =
    let lp_time = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp_time in
    let pivots = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp.Mm_lp.Simplex.pivots in
    if lp_time > 0.0 then float_of_int pivots /. lp_time else 0.0
  in
  let status_name (mip : Mm_lp.Branch_bound.result) =
    match mip.Mm_lp.Branch_bound.status with
    | Mm_lp.Branch_bound.Optimal -> "optimal"
    | Mm_lp.Branch_bound.Feasible -> "feasible"
    | Mm_lp.Branch_bound.Infeasible -> "infeasible"
    | Mm_lp.Branch_bound.Unbounded -> "unbounded"
    | Mm_lp.Branch_bound.Unknown -> "unknown"
  in
  let t =
    Table.create
      [
        ("tier", Table.Left);
        ("segs", Table.Right);
        ("banks", Table.Right);
        ("vars", Table.Right);
        ("rows", Table.Right);
        ("model (s)", Table.Right);
        ("solve (s)", Table.Right);
        ("dense-LU (s)", Table.Right);
        ("nodes", Table.Right);
        ("pivots", Table.Right);
        ("pivots/s", Table.Right);
        ("status", Table.Left);
      ]
  in
  List.iter
    (fun ((tier : Mm_workload.Gen.tier), p, model_seconds, r, mip, rd) ->
      Table.add_row t
        [
          tier.Mm_workload.Gen.tier_name;
          string_of_int tier.Mm_workload.Gen.spec.Mm_workload.Gen.segments;
          string_of_int tier.Mm_workload.Gen.spec.Mm_workload.Gen.banks;
          string_of_int p.Mm_lp.Problem.ncols;
          string_of_int p.Mm_lp.Problem.nrows;
          Printf.sprintf "%.2f" model_seconds;
          Printf.sprintf "%.2f" mip.Mm_lp.Branch_bound.time;
          Printf.sprintf "%.2f" rd.Mm_lp.Solver.mip.Mm_lp.Branch_bound.time;
          string_of_int mip.Mm_lp.Branch_bound.nodes;
          string_of_int r.Mm_lp.Solver.stats.Mm_lp.Solver.lp.Mm_lp.Simplex.pivots;
          Printf.sprintf "%.0f" (pivots_per_second r);
          status_name mip;
        ])
    shots;
  Table.print t;
  (* model budget: generation plus ILP freeze; throughput floor is in
     pivots per second of LP time. Pinned to the measured hypersparse
     A/B on this ladder: the slowest point (s3 under the 60s quick cap,
     parallelism 2) sustains ~325 pivots/s under either kernel, so 250
     leaves headroom for machine noise while still catching a fallback
     to pre-hypersparse per-pass cost. *)
  let model_budget = if !Record.full_mode then 120.0 else 30.0 in
  let throughput_floor = 250.0 in
  let tier_cell ((tier : Mm_workload.Gen.tier), p, model_seconds, r, mip, rd)
      =
    let lp = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp in
    let dmip = rd.Mm_lp.Solver.mip in
    Mm_obs.Json.Obj
      ((("tier", Mm_obs.Json.Str tier.Mm_workload.Gen.tier_name)
       :: spec_fields tier.Mm_workload.Gen.spec)
      @ [
          ("vars", Record.int p.Mm_lp.Problem.ncols);
          ("rows", Record.int p.Mm_lp.Problem.nrows);
          ("model_seconds", Record.num model_seconds);
          ("solve_seconds", Record.num mip.Mm_lp.Branch_bound.time);
          ("nodes", Record.int mip.Mm_lp.Branch_bound.nodes);
          ("pivots", Record.int lp.Mm_lp.Simplex.pivots);
          ("pivots_per_second", Record.num ~digits:1 (pivots_per_second r));
          ("sparse_solves", Record.int lp.Mm_lp.Simplex.sparse_solves);
          ("dense_fallbacks", Record.int lp.Mm_lp.Simplex.dense_fallbacks);
          ("status", Mm_obs.Json.Str (status_name mip));
          ( "hypersparse_ab",
            Mm_obs.Json.Obj
              [
                ( "dense_solve_seconds",
                  Record.num dmip.Mm_lp.Branch_bound.time );
                ( "dense_pivots",
                  Record.int
                    rd.Mm_lp.Solver.stats.Mm_lp.Solver.lp.Mm_lp.Simplex.pivots
                );
                ( "dense_pivots_per_second",
                  Record.num ~digits:1 (pivots_per_second rd) );
                ("dense_status", Mm_obs.Json.Str (status_name dmip));
              ] );
        ])
  in
  Record.write ~experiment:"scaling"
    [ ("scaling", Mm_obs.Json.List (List.map tier_cell shots)) ];
  let failures = ref [] in
  List.iter
    (fun ((tier : Mm_workload.Gen.tier), _, model_seconds, r, mip, _) ->
      let name = tier.Mm_workload.Gen.tier_name in
      if model_seconds > model_budget then
        failures :=
          Printf.sprintf "%s: model construction took %.1fs (budget %.0fs)"
            name model_seconds model_budget
          :: !failures;
      if
        mip.Mm_lp.Branch_bound.status = Mm_lp.Branch_bound.Unknown
        && mip.Mm_lp.Branch_bound.nodes <= 1
      then
        failures :=
          Printf.sprintf
            "%s: no branching progress within the %.0fs cap (root \
             relaxation stalled)"
            name cap
          :: !failures;
      let lp_time = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp_time in
      let pivots = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp.Mm_lp.Simplex.pivots in
      if lp_time > 1.0 && float_of_int pivots /. lp_time < throughput_floor
      then
        failures :=
          Printf.sprintf "%s: simplex throughput %.0f pivots/s (floor %.0f)"
            name
            (float_of_int pivots /. lp_time)
            throughput_floor
          :: !failures)
    shots;
  (match !failures with
  | [] -> line "all %d tiers within regression thresholds." (List.length shots)
  | fs ->
      List.iter (fun f -> Printf.eprintf "scaling: %s\n" f) (List.rev fs);
      exit 1)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  header "Micro-benchmarks of solver kernels (Bechamel)";
  let open Bechamel in
  let seg = Mm_design.Segment.make ~name:"s" ~depth:555 ~width:17 () in
  let bank = Mm_arch.Devices.virtex_blockram ~instances:64 () in
  let knapsack_problem =
    let m = Mm_lp.Model.create () in
    let rng = Prng.create 7 in
    let vars = Array.init 24 (fun _ -> Mm_lp.Model.binary m ()) in
    Mm_lp.Model.add_le m
      (Mm_lp.Expr.sum
         (Array.to_list
            (Array.map
               (fun v -> Mm_lp.Expr.var ~coeff:(float_of_int (Prng.int_in rng 1 20)) v)
               vars)))
      60.0;
    Mm_lp.Model.set_objective m Mm_lp.Model.Maximize
      (Mm_lp.Expr.sum
         (Array.to_list
            (Array.map
               (fun v -> Mm_lp.Expr.var ~coeff:(float_of_int (Prng.int_in rng 1 30)) v)
               vars)));
    Mm_lp.Model.to_problem m
  in
  let lp_problem =
    let m = Mm_lp.Model.create () in
    let rng = Prng.create 11 in
    let vars =
      Array.init 40 (fun _ ->
          Mm_lp.Model.add_var m ~ub:10.0
            ~obj:(float_of_int (Prng.int_in rng (-9) 9))
            Mm_lp.Problem.Continuous)
    in
    for _ = 1 to 30 do
      Mm_lp.Model.add_le m
        (Mm_lp.Expr.sum
           (Array.to_list
              (Array.map
                 (fun v ->
                   Mm_lp.Expr.var ~coeff:(float_of_int (Prng.int_in rng (-4) 5)) v)
                 vars)))
        (float_of_int (Prng.int_in rng 5 60))
    done;
    Mm_lp.Model.to_problem m
  in
  let tests =
    [
      Test.make ~name:"consumed_ports" (Staged.stage (fun () ->
          ignore
            (Mm_mapping.Preprocess.consumed_ports ~words:55 ~bank_depth:512
               ~ports:2 ())));
      Test.make ~name:"preprocess_coeffs" (Staged.stage (fun () ->
          ignore (Mm_mapping.Preprocess.coeffs seg bank)));
      Test.make ~name:"fragments_of" (Staged.stage (fun () ->
          ignore (Mm_mapping.Detailed.fragments_of ~segment:0 seg bank)));
      Test.make ~name:"lp_simplex_40x30" (Staged.stage (fun () ->
          let s = Mm_lp.Simplex.create lp_problem in
          ignore (Mm_lp.Simplex.solve s)));
      Test.make ~name:"bb_knapsack_24" (Staged.stage (fun () ->
          ignore (Mm_lp.Branch_bound.solve knapsack_problem)));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
    let results = Benchmark.all cfg instances test in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |])
        (Toolkit.Instance.monotonic_clock) results
    in
    ols
  in
  let t =
    Table.create [ ("kernel", Table.Left); ("ns/run", Table.Right) ]
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some [ e ] -> Printf.sprintf "%.1f" e
            | _ -> "-"
          in
          Table.add_row t [ name; estimate ])
        results)
    tests;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", run_table1);
    ("fig2", run_fig2);
    ("table2", run_table2);
    ("table3", run_table3);
    ("fig4", run_fig4);
    ("ablation-link", run_ablation_link);
    ("ablation-detailed", run_ablation_detailed);
    ("ablation-weights", run_ablation_weights);
    ("ablation-overlap", run_ablation_overlap);
    ("ablation-portmodel", run_ablation_portmodel);
    ("ablation-arbitration", run_ablation_arbitration);
    ("cuts-smoke", ab_smoke ~experiment:"cuts-smoke" cuts_ab);
    ("serve-smoke", run_serve_smoke);
    ("serve-batch-ab", run_serve_batch_ab);
    ("scaling", run_scaling);
    ("micro", run_micro);
  ]

let () =
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--full" -> Record.full_mode := true
        | "--quick" -> Record.full_mode := false
        | name when List.mem_assoc name experiments ->
            requested := name :: !requested
        | name ->
            Printf.eprintf "unknown experiment %S; known: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
    Sys.argv;
  let to_run =
    match List.rev !requested with
    | [] ->
        (* each experiment writes its own record, so this skip is only a
           runtime saving: cuts-smoke re-runs the cuts_ab legs of
           table3's point 0; run it by name *)
        List.filter (fun n -> n <> "cuts-smoke") (List.map fst experiments)
    | names -> names
  in
  line "Memory-mapping evaluation harness (%s mode)"
    (if !Record.full_mode then "full" else "quick");
  List.iter (fun name -> (List.assoc name experiments) ()) to_run
