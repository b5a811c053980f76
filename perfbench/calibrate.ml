(* Regenerates expected.json, the correctness gate's data: the optimal
   objective of every closed-loop instance and of every serve_mixed pool
   design. Each entry is cross-checked once against the complete (flat)
   formulation where that proves optimality within its cap — the paper's
   invariant is that both formulations reach the same optimum.

     perfbench --calibrate perfbench/expected.json *)

module Mapper = Mm_mapping.Mapper
module J = Mm_obs.Json

let cross_check_cap_s = 30.0
let pool_designs_per_board = 10
let pool_cross_check_cap_s = 10.0
let pool_candidates_per_board = 80

(* Designs whose global solve needs more tree nodes than this stay out
   of the pool: one such multi-second request would set the tail of a
   whole rate and make it depend on the seed's draws. *)
let pool_max_nodes = 100

let solve ~method_ ~cap board design =
  Mapper.run ~method_
    ~options:
      (Mapper.options
         ~solver_options:(Mm_lp.Solver.quick_options ~time_limit:cap ~parallelism:1 ())
         ())
    board design

let optimal = function
  | Ok o
    when o.Mapper.ilp_result.Mm_lp.Solver.mip.Mm_lp.Branch_bound.status
         = Mm_lp.Branch_bound.Optimal ->
      Some o
  | _ -> None

(* The complete-formulation cross-check: its status, and its objective
   when it proved optimality. Disagreement aborts calibration. *)
let cross_check ~cap ~name board design objective =
  match optimal (solve ~method_:Mapper.Complete_flat ~cap board design) with
  | Some o ->
      if not (Gate.same_objective o.Mapper.objective objective) then
        failwith
          (Printf.sprintf "%s: global objective %.6g but complete proves %.6g" name
             objective o.Mapper.objective);
      [ ("complete", J.Str "optimal"); ("complete_objective", J.Num o.Mapper.objective) ]
  | None -> [ ("complete", J.Str "not proved within cap") ]

let entry ~name fields = J.Obj (("name", J.Str name) :: fields)

let instance (inst : Wl.inst) =
  let board, design = inst.gen () in
  match optimal (solve ~method_:Mapper.Global_detailed ~cap:Closed.cap_s board design) with
  | None -> failwith (inst.name ^ ": global solve not optimal within cap")
  | Some o ->
      Printf.eprintf "%s %.0f\n%!" inst.name o.Mapper.objective;
      entry ~name:inst.name
        ((("objective", J.Num o.Mapper.objective) :: [])
        @ cross_check ~cap:cross_check_cap_s ~name:inst.name board design o.Mapper.objective)

let pool_for_board b =
  let board = Wl.pool_board b in
  let rec go k kept =
    if List.length kept = pool_designs_per_board || k = pool_candidates_per_board then
      List.rev kept
    else
      let seed = Wl.candidate_seed b k in
      let _, board', design = Wl.wire_request board (Wl.pool_design board b seed) in
      match optimal (solve ~method_:Mapper.Global_detailed ~cap:Closed.cap_s board' design) with
      | Some o
        when o.Mapper.ilp_result.Mm_lp.Solver.mip.Mm_lp.Branch_bound.nodes <= pool_max_nodes
        ->
          let name = Wl.pool_name b seed in
          Printf.eprintf "%s %.0f\n%!" name o.Mapper.objective;
          let e =
            entry ~name
              ([
                 ("board", J.Num (float_of_int b));
                 ("seed", J.Num (float_of_int seed));
                 ("objective", J.Num o.Mapper.objective);
               ]
              @ cross_check ~cap:pool_cross_check_cap_s ~name board' design o.Mapper.objective)
          in
          go (k + 1) (e :: kept)
      | _ -> go (k + 1) kept
  in
  let kept = go 0 [] in
  if List.length kept < pool_designs_per_board then
    failwith (Printf.sprintf "board %d: only %d pool designs" b (List.length kept));
  kept

let run path =
  let instances = List.map instance Wl.global_sweep in
  let pool = List.concat_map pool_for_board (List.init Wl.pool_boards Fun.id) in
  let lines es = String.concat ",\n" (List.map (fun e -> "    " ^ J.to_string e) es) in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        "{\n  \"cap_s\": %g,\n  \"cross_check_cap_s\": %g,\n  \"pool_cross_check_cap_s\": %g,\n  \"instances\": [\n%s\n  ],\n  \"pool\": [\n%s\n  ]\n}\n"
        Closed.cap_s cross_check_cap_s pool_cross_check_cap_s (lines instances) (lines pool))
