open Mm_lp
open Mm_util

type options = {
  solver_options : Config.t;
  symmetry_breaking : bool;
  port_model : Preprocess.port_model;
}

let default_options =
  {
    solver_options = Config.default;
    symmetry_breaking = true;
    port_model = Preprocess.Fig3;
  }

let options ?(solver_options = Config.default)
    ?(symmetry_breaking = true) ?(port_model = Preprocess.Fig3) () =
  { solver_options; symmetry_breaking; port_model }

(* Turn a per-instance fragment list into placements: decreasing
   footprint order keeps offsets power-of-two aligned, as in the greedy
   placer. *)
let placements_of_instance ~type_index ~instance fragments =
  let sorted =
    List.sort
      (fun (a : Detailed.fragment) (b : Detailed.fragment) ->
        compare b.Detailed.footprint_bits a.Detailed.footprint_bits)
      fragments
  in
  let offset = ref 0 and port = ref 0 in
  List.map
    (fun (f : Detailed.fragment) ->
      let p =
        {
          Detailed.fragment = f;
          type_index;
          instance;
          first_port = !port;
          offset_bits = !offset;
          shared = false;
        }
      in
      offset := !offset + f.Detailed.footprint_bits;
      port := !port + f.Detailed.ports_needed;
      p)
    sorted

(* One placement ILP covering the segments a given bank type received:
   binary [a_fi] places fragment [f] on instance [i]; [used_i] marks
   occupied instances and is what the objective minimizes. *)
module F = struct
  type solution = Detailed.placement list

  let name = "detailed"
  let supports_forbidden = false

  let build (c : Formulation.ctx) =
    match (c.Formulation.assignment, c.Formulation.type_index) with
    | None, _ | _, None ->
        Error "detailed formulation needs an assignment and a type index"
    | Some assignment, Some ti ->
        let board = c.Formulation.board and design = c.Formulation.design in
        let port_model =
          Option.value c.Formulation.port_model ~default:Preprocess.Fig3
        in
        let m = Mm_design.Design.num_segments design in
        if Array.length assignment <> m then
          Error "detailed formulation: assignment arity"
        else begin
          let bt = Mm_arch.Board.bank_type board ti in
          let segs = List.filter (fun d -> assignment.(d) = ti) (Ints.range m) in
          let fragments =
            List.concat_map
              (fun d ->
                Detailed.fragments_of ~port_model ~segment:d
                  (Mm_design.Design.segment design d)
                  bt)
              segs
          in
          let nf = List.length fragments in
          let ni = bt.Mm_arch.Bank_type.instances in
          let frag_arr = Array.of_list fragments in
          let model =
            Model.create
              ~name:(Printf.sprintf "detailed_%s" bt.Mm_arch.Bank_type.name)
              ()
          in
          let a =
            Array.init nf (fun f ->
                Array.init ni (fun i ->
                    Model.add_var model
                      ~name:(Printf.sprintf "a_%d_%d" f i)
                      Problem.Binary))
          in
          let used =
            Array.init ni (fun i ->
                Model.add_var model
                  ~name:(Printf.sprintf "used_%d" i)
                  ~obj:1.0 Problem.Binary)
          in
          for f = 0 to nf - 1 do
            Model.add_eq model
              ~name:(Printf.sprintf "place_%d" f)
              (Expr.sum (List.map (fun i -> Expr.var a.(f).(i)) (Ints.range ni)))
              1.0
          done;
          for i = 0 to ni - 1 do
            Model.add_le model
              ~name:(Printf.sprintf "ports_%d" i)
              (Expr.sum
                 (List.map
                    (fun f ->
                      Expr.var
                        ~coeff:(float_of_int frag_arr.(f).Detailed.ports_needed)
                        a.(f).(i))
                    (Ints.range nf)))
              (float_of_int bt.Mm_arch.Bank_type.ports);
            Model.add_le model
              ~name:(Printf.sprintf "cap_%d" i)
              (Expr.sum
                 (List.map
                    (fun f ->
                      Expr.var
                        ~coeff:(float_of_int frag_arr.(f).Detailed.footprint_bits)
                        a.(f).(i))
                    (Ints.range nf)))
              (float_of_int (Mm_arch.Bank_type.capacity_bits bt));
            (* link: any placement on i forces used_i *)
            Model.add_le model
              ~name:(Printf.sprintf "link_%d" i)
              (Expr.sub
                 (Expr.sum (List.map (fun f -> Expr.var a.(f).(i)) (Ints.range nf)))
                 (Expr.var ~coeff:(float_of_int nf) used.(i)))
              0.0
          done;
          if c.Formulation.symmetry_breaking then
            for i = 0 to ni - 2 do
              Model.add_le model
                ~name:(Printf.sprintf "sym_%d" i)
                (Expr.sub (Expr.var used.(i + 1)) (Expr.var used.(i)))
                0.0
            done;
          let read x =
            List.concat_map
              (fun i ->
                let here =
                  List.filter_map
                    (fun f ->
                      if x.(a.(f).(i)) > 0.5 then Some frag_arr.(f) else None)
                    (Ints.range nf)
                in
                if here = [] then []
                else placements_of_instance ~type_index:ti ~instance:i here)
              (Ints.range ni)
          in
          Ok (Model.to_problem model, read)
        end
end

let run ?trace ?(options = default_options) (board : Mm_arch.Board.t)
    (design : Mm_design.Design.t) (assignment : Global_ilp.assignment) =
  let m = Mm_design.Design.num_segments design in
  if Array.length assignment <> m then
    invalid_arg "Detailed_ilp.run: assignment arity";
  let all_placements = ref [] in
  let failure = ref None in
  let ntypes = Mm_arch.Board.num_types board in
  let t = ref 0 in
  while !failure = None && !t < ntypes do
    let ti = !t in
    incr t;
    let bt = Mm_arch.Board.bank_type board ti in
    let segs = List.filter (fun d -> assignment.(d) = ti) (Ints.range m) in
    if segs <> [] then begin
      let c =
        Formulation.ctx ~port_model:options.port_model ~assignment
          ~type_index:ti ~symmetry_breaking:options.symmetry_breaking board
          design
      in
      match
        Formulation.solve
          (module F)
          ?trace ~solver_options:options.solver_options c
      with
      | Ok (placements, _stats) ->
          all_placements := List.rev_append placements !all_placements
      | Error (err, stats) ->
          let reason =
            match (err, stats) with
            | Formulation.Build_failed msg, _ -> msg
            | Formulation.Ilp_infeasible, _ -> "infeasible"
            | Formulation.Ilp_limit, Some s -> (
                match s.Formulation.ilp.Solver.mip.Branch_bound.status with
                | Branch_bound.Unknown -> "limit without incumbent"
                | _ -> "no solution")
            | Formulation.Ilp_limit, None -> "no solution"
          in
          failure :=
            Some
              {
                Detailed.type_index = ti;
                segment = (match segs with d :: _ -> d | [] -> 0);
                reason =
                  Printf.sprintf "detailed ILP for type %s: %s"
                    bt.Mm_arch.Bank_type.name reason;
              }
    end
  done;
  match !failure with
  | Some f -> Error f
  | None -> Ok { Detailed.assignment; placements = List.rev !all_placements }
