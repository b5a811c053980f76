(* The benchmark program: one workload per run, end-to-end metrics with
   tracing off, per-layer metrics with --trace 1. See README.md. *)

module Mapper = Mm_mapping.Mapper
module J = Mm_obs.Json

(* A seed kept out of all tuning, so a later performance claim can be
   re-checked on inputs nobody looked at while making it. *)
let held_out_seed = 2_718_281

let header ~seed extra =
  [
    ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", J.Str Sys.ocaml_version);
    ("seed", J.Num (float_of_int seed));
    ("held_out_seed", J.Num (float_of_int held_out_seed));
    ("cap_s", J.Num Closed.cap_s);
  ]
  @ extra

let closed gate ~workload ~insts ~method_ ~seed ~seconds ~trace =
  let f = Closed.failures () in
  let m = Closed.measure gate f ~method_ ~seed ~seconds insts in
  let e2e, extra = Closed.e2e m in
  let layers, sums =
    if trace then Closed.traced_pass gate f ~method_ ~baseline_s:(Closed.raw_pass_s m) insts
    else ([], [])
  in
  {
    Out.workload;
    seed;
    seconds;
    trace;
    e2e;
    layers;
    extra = extra @ [ Closed.failed_share f ];
    sums;
    attempted = f.attempted;
    failed = f.failed;
    failures = f.msgs;
    info =
      header ~seed
        [ ("instances", J.List (List.map (fun (i : Wl.inst) -> J.Str i.name) insts)) ];
  }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0 and trace = ref 0 in
  let expected = ref "perfbench/expected.json" and record = ref "" in
  let mmap = ref "" and workdir = ref ".bench_results" and calibrate = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME global_sweep | complete_tree | serve_mixed");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--expected", Arg.Set_string expected, "FILE expected objectives");
      ("--record", Arg.Set_string record, "FILE write the full result record");
      ("--mmap", Arg.Set_string mmap, "EXE the mmap binary (serve_mixed)");
      ("--workdir", Arg.Set_string workdir, "DIR socket, daemon log and trace (serve_mixed)");
      ("--calibrate", Arg.Set_string calibrate, "FILE regenerate the expected objectives");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  (* a terminated run still stops the daemons it spawned (at_exit) *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 2));
  if !calibrate <> "" then Calibrate.run !calibrate
  else begin
    let gate = Gate.load !expected in
    let trace = !trace = 1 and seed = !seed and seconds = !seconds in
    let r =
      match !workload with
      | "global_sweep" ->
          closed gate ~workload:!workload ~insts:Wl.global_sweep
            ~method_:Mapper.Global_detailed ~seed ~seconds ~trace
      | "complete_tree" ->
          closed gate ~workload:!workload ~insts:Wl.complete_tree
            ~method_:Mapper.Complete_flat ~seed ~seconds ~trace
      | "serve_mixed" -> Serve.run gate ~mmap:!mmap ~workdir:!workdir ~seed ~seconds ~trace ~header
      | w ->
          prerr_endline ("perfbench: unknown workload " ^ w);
          exit 2
    in
    if !record <> "" then Out.write_record !record r;
    Out.print r;
    exit (if Out.correct r then 0 else 1)
  end
