open Mm_workload

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; 2026 |])
    (QCheck.Test.make ~count ~name gen prop)

let test_table3_points_exact () =
  (* every Table 3 point regenerates a board with the paper's exact
     complexity parameters *)
  List.iter
    (fun (p : Table3.point) ->
      let spec = p.Table3.spec in
      let board = Gen.board_of_spec spec in
      Alcotest.(check int)
        (Printf.sprintf "banks for %d segs" spec.Gen.segments)
        spec.Gen.banks
        (Mm_arch.Board.total_banks board);
      Alcotest.(check int) "ports" spec.Gen.ports (Mm_arch.Board.total_ports board);
      Alcotest.(check int) "configs" spec.Gen.configs
        (Mm_arch.Board.total_configs board);
      let design = Gen.design_of_spec spec board in
      Alcotest.(check int) "segments" spec.Gen.segments
        (Mm_design.Design.num_segments design))
    Table3.points

let test_table3_paper_times () =
  (* the paper's numbers are transcribed: 9 rows, increasing sizes,
     complete >= global on every row *)
  Alcotest.(check int) "nine points" 9 (List.length Table3.points);
  List.iter
    (fun (p : Table3.point) ->
      Alcotest.(check bool) "complete slower in the paper" true
        (p.Table3.paper_complete_seconds >= p.Table3.paper_global_seconds))
    Table3.points;
  let first = List.hd Table3.points and last = List.nth Table3.points 8 in
  Alcotest.(check (float 1e-9)) "first complete" 8.1 first.Table3.paper_complete_seconds;
  Alcotest.(check (float 1e-9)) "last complete" 2989.0 last.Table3.paper_complete_seconds;
  Alcotest.(check (float 1e-9)) "last global" 489.0 last.Table3.paper_global_seconds

let test_generation_deterministic () =
  let spec = (List.hd Table3.points).Table3.spec in
  let b1, d1 = Gen.instance spec and b2, d2 = Gen.instance spec in
  Alcotest.(check string) "same board" (Mm_arch.Board.describe b1)
    (Mm_arch.Board.describe b2);
  Alcotest.(check string) "same design" (Mm_design.Design.describe d1)
    (Mm_design.Design.describe d2)

let test_generated_segments_fit () =
  List.iter
    (fun (p : Table3.point) ->
      let board, design = Gen.instance p.Table3.spec in
      for d = 0 to Mm_design.Design.num_segments design - 1 do
        let s = Mm_design.Design.segment design d in
        Alcotest.(check bool)
          (Printf.sprintf "segment %d fits somewhere" d)
          true
          (List.exists
             (fun t ->
               Mm_mapping.Preprocess.fits s (Mm_arch.Board.bank_type board t))
             (Mm_util.Ints.range (Mm_arch.Board.num_types board)))
      done)
    Table3.points

let test_smallest_point_solvable () =
  let board, design = Gen.instance (List.hd Table3.points).Table3.spec in
  match Mm_mapping.Mapper.run board design with
  | Ok o ->
      Alcotest.(check bool) "legal mapping" true
        (Mm_mapping.Validate.is_legal board design o.Mm_mapping.Mapper.mapping)
  | Error e -> Alcotest.fail (Mm_mapping.Mapper.error_to_string e)

(* The proven optima of Table-3 points p0-p8 under the global/detailed
   pipeline (the [objective] column of perfbench/expected.json). *)
let table3_optima =
  [ 302649.; 458822.; 297826.; 810398.; 678153.; 752585.; 78985.; 568072.;
    820457. ]

let test_table3_objectives () =
  (* regression: every Table-3 point proves its recorded optimum at
     parallelism 1 and 2 (the global/detailed pipeline) *)
  List.iteri
    (fun i ((p : Table3.point), optimum) ->
      let board, design = Gen.instance p.Table3.spec in
      List.iter
        (fun parallelism ->
          let options =
            Mm_mapping.Mapper.options
              ~solver_options:(Mm_lp.Config.make ~parallelism ())
              ()
          in
          match Mm_mapping.Mapper.run ~options board design with
          | Ok o ->
              Alcotest.(check (float 1e-6))
                (Printf.sprintf "p%d, j=%d" i parallelism)
                optimum o.Mm_mapping.Mapper.objective
          | Error e -> Alcotest.fail (Mm_mapping.Mapper.error_to_string e))
        [ 1; 2 ])
    (List.combine Table3.points table3_optima)

let test_rejects_inconsistent_spec () =
  Alcotest.check_raises "configs not multiple of 5"
    (Invalid_argument "Gen.board_of_spec: configs must be a multiple of 5")
    (fun () ->
      ignore
        (Gen.board_of_spec { Gen.segments = 4; banks = 5; ports = 7; configs = 13; seed = 1 }));
  Alcotest.check_raises "ports below banks"
    (Invalid_argument "Gen.board_of_spec: ports < banks") (fun () ->
      ignore
        (Gen.board_of_spec { Gen.segments = 4; banks = 5; ports = 4; configs = 10; seed = 1 }))


let test_rejects_nonsensical_spec () =
  (* zero/negative fields get the typed error, not a crash or loop *)
  let check field spec =
    (match Gen.validate_spec spec with
    | Error (Gen.Nonpositive { field = f; _ }) ->
        Alcotest.(check string) "offending field" field f
    | Error e -> Alcotest.fail (Gen.spec_error_to_string e)
    | Ok () -> Alcotest.fail "validate_spec accepted a nonsensical spec");
    Alcotest.(check bool) "board_of_spec raises Invalid_spec" true
      (match Gen.board_of_spec spec with
      | _ -> false
      | exception Gen.Invalid_spec (Gen.Nonpositive _) -> true)
  in
  let base = { Gen.segments = 4; banks = 5; ports = 7; configs = 10; seed = 1 } in
  check "segments" { base with Gen.segments = 0 };
  check "segments" { base with Gen.segments = -3 };
  check "banks" { base with Gen.banks = 0 };
  check "ports" { base with Gen.ports = 0 };
  check "configs" { base with Gen.configs = 0 };
  (* design_of_spec guards segments itself *)
  let board = Gen.board_of_spec base in
  Alcotest.(check bool) "design_of_spec raises Invalid_spec" true
    (match Gen.design_of_spec { base with Gen.segments = 0 } board with
    | _ -> false
    | exception Gen.Invalid_spec (Gen.Nonpositive _) -> true)

let test_derived_seeds_distinct () =
  (* the historical 1000 + segments + banks formula collided for
     distinct points with equal sums; derived seeds must not *)
  let s1 = Gen.derived_seed ~segments:30 ~banks:47 ~ports:80 ~configs:150 in
  let s2 = Gen.derived_seed ~segments:32 ~banks:45 ~ports:80 ~configs:150 in
  let s3 = Gen.derived_seed ~segments:32 ~banks:45 ~ports:82 ~configs:150 in
  let s4 = Gen.derived_seed ~segments:32 ~banks:45 ~ports:80 ~configs:155 in
  Alcotest.(check bool) "equal-sum specs differ" true (s1 <> s2);
  Alcotest.(check bool) "ports mixed in" true (s2 <> s3);
  Alcotest.(check bool) "configs mixed in" true (s2 <> s4);
  let spec = Gen.make ~segments:32 ~banks:45 ~ports:80 ~configs:150 () in
  Alcotest.(check int) "make derives the same seed" s2 spec.Gen.seed

let test_table3_seeds_pinned () =
  (* the nine paper points keep the seeds the old formula produced, so
     recorded BENCH_table3.json baselines regenerate bit-identically *)
  List.iter
    (fun (p : Table3.point) ->
      let s = p.Table3.spec in
      Alcotest.(check int)
        (Printf.sprintf "seed for %d/%d" s.Gen.segments s.Gen.banks)
        (1000 + s.Gen.segments + s.Gen.banks)
        s.Gen.seed)
    Table3.points

let test_scale_tiers_valid () =
  (* every scale tier composes, exceeds the largest Table-3 point, and
     regenerates a board hitting its totals exactly *)
  let largest = (List.nth Table3.points 8).Table3.spec in
  Alcotest.(check bool) "at least 4 tiers" true (List.length Gen.scale_tiers >= 4);
  List.iter
    (fun (t : Gen.tier) ->
      let s = t.Gen.spec in
      (match Gen.validate_spec s with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Gen.spec_error_to_string e));
      Alcotest.(check bool)
        (Printf.sprintf "tier %s beyond Table 3" t.Gen.tier_name)
        true
        (s.Gen.segments > largest.Gen.segments
        && s.Gen.banks > largest.Gen.banks
        && s.Gen.ports > largest.Gen.ports
        && s.Gen.configs > largest.Gen.configs);
      let board = Gen.board_of_spec ~variety:t.Gen.variety s in
      Alcotest.(check int) "banks" s.Gen.banks (Mm_arch.Board.total_banks board);
      Alcotest.(check int) "ports" s.Gen.ports (Mm_arch.Board.total_ports board);
      Alcotest.(check int) "configs" s.Gen.configs
        (Mm_arch.Board.total_configs board))
    Gen.scale_tiers

let test_fill_scales_designs () =
  let spec = (List.hd Table3.points).Table3.spec in
  let board = Gen.board_of_spec spec in
  let small = Gen.design_of_spec ~fill:0.1 spec board in
  let large = Gen.design_of_spec ~fill:0.7 spec board in
  Alcotest.(check bool) "fill scales total bits" true
    (Mm_design.Design.total_bits small < Mm_design.Design.total_bits large)

let spec_gen =
  QCheck.make
    QCheck.Gen.(
      let* banks = int_range 4 60 in
      let* extra_ports = int_range 0 30 in
      let* cfg_units = int_range 1 12 in
      let* seed = int_range 0 100000 in
      return
        {
          Gen.segments = 8;
          banks;
          ports = banks + extra_ports;
          configs = 5 * cfg_units;
          seed;
        })

let prop_board_totals_exact =
  qtest "board composition hits arbitrary consistent totals exactly" spec_gen
    (fun spec ->
      (* not all random triples are composable; skip those *)
      match Gen.board_of_spec spec with
      | board ->
          Mm_arch.Board.total_banks board = spec.Gen.banks
          && Mm_arch.Board.total_ports board = spec.Gen.ports
          && Mm_arch.Board.total_configs board = spec.Gen.configs
      | exception Invalid_argument _ -> QCheck.assume_fail ())

let prop_random_instances_mappable =
  qtest ~count:30 "random boards and designs go through the pipeline"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Mm_util.Prng.create seed in
      let board = Gen.random_board rng in
      let design = Gen.random_design rng ~segments:5 board in
      match Mm_mapping.Mapper.run board design with
      | Ok o -> Mm_mapping.Validate.is_legal board design o.Mm_mapping.Mapper.mapping
      | Error Mm_mapping.Mapper.Solver_limit -> false
      | Error _ -> true)

let () =
  Alcotest.run "mm_workload"
    [
      ( "table3",
        [
          Alcotest.test_case "exact complexity parameters" `Quick test_table3_points_exact;
          Alcotest.test_case "paper times transcribed" `Quick test_table3_paper_times;
          Alcotest.test_case "deterministic" `Quick test_generation_deterministic;
          Alcotest.test_case "segments fit" `Quick test_generated_segments_fit;
          Alcotest.test_case "smallest point solvable" `Quick test_smallest_point_solvable;
          Alcotest.test_case "devex objectives at j=1,2" `Quick
            test_table3_objectives;
        ] );
      ( "gen",
        [
          Alcotest.test_case "rejects inconsistent" `Quick test_rejects_inconsistent_spec;
          Alcotest.test_case "rejects nonsensical" `Quick test_rejects_nonsensical_spec;
          Alcotest.test_case "derived seeds distinct" `Quick test_derived_seeds_distinct;
          Alcotest.test_case "table3 seeds pinned" `Quick test_table3_seeds_pinned;
          Alcotest.test_case "scale tiers valid" `Quick test_scale_tiers_valid;
          Alcotest.test_case "fill scales" `Quick test_fill_scales_designs;
          prop_board_totals_exact;
          prop_random_instances_mappable;
        ] );
    ]
