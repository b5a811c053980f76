(* The benchmark's inputs: the fixed instance lists of the closed-loop
   workloads and the design pool of the serving workload. Instances are
   regenerated from their specs on every run (that is what [setup_s]
   times); the workload seed only orders and draws from them, so every
   seed exercises the same solves and the expected objectives in
   expected.json stay valid. *)

module Gen = Mm_workload.Gen

type inst = {
  name : string;
  gen : unit -> Mm_arch.Board.t * Mm_design.Design.t;
}

let points = Array.of_list Mm_workload.Table3.points

(* Table-3 points are numbered by their 0-based position in
   [Table3.points]: p0 is the smallest, p8 the 132-segment point. *)
let point i =
  {
    name = Printf.sprintf "p%d" i;
    gen = (fun () -> Gen.instance points.(i).Mm_workload.Table3.spec);
  }

let tier name =
  let t = List.find (fun t -> t.Gen.tier_name = name) Gen.scale_tiers in
  { name; gen = (fun () -> Gen.tier_instance t) }

(* global_sweep: the paper's own path over all nine Table-3 points plus
   the scale tiers s1 and s2 (s3 gets no incumbent within any cap yet). *)
let global_sweep = List.init 9 point @ [ tier "s1"; tier "s2" ]

(* complete_tree: the flat baseline where branch and bound dominates;
   p8 (about 20 s, the noisiest solve) is covered by global_sweep. *)
let complete_tree = [ point 5; point 6; point 7 ]

(* ---- serve_mixed design pool ------------------------------------------ *)

let pool_boards = 9

(* Design seeds tried for board [b], in order; expected.json records
   which of them made it into the pool. *)
let candidate_seed b k = points.(b).Mm_workload.Table3.spec.Gen.seed + (7919 * (k + 1))

let pool_board b = Gen.board_of_spec points.(b).Mm_workload.Table3.spec

let pool_design board b seed =
  Gen.design_of_spec { points.(b).Mm_workload.Table3.spec with Gen.seed } board

let pool_name b seed = Printf.sprintf "pool.b%d.%d" b seed

(* Boards and designs exactly as the daemon sees them: the wire format
   round-trips them through their canonical text, so expected
   objectives and legality checks use the decoded copies. *)
let wire_request board design =
  let req = Mm_service.Request.make board design in
  let fields =
    match Mm_service.Request.to_json req with
    | Mm_obs.Json.Obj kv ->
        List.filter (fun (k, _) -> k <> "id" && k <> "knobs") kv
    | _ -> assert false
  in
  let json = Mm_obs.Json.Obj fields in
  match Mm_service.Request.of_json json with
  | Ok r -> (Mm_obs.Json.to_string json, r.Mm_service.Request.board, r.design)
  | Error e -> failwith ("request round trip: " ^ e)
