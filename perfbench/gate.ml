(* The correctness gate: every mapping the benchmark gets back must be
   legal ([Validate.check]), proved optimal, and carry the objective
   checked into expected.json for its instance. A violation is a failed
   operation that names the instance. *)

module J = Mm_obs.Json
module Mapper = Mm_mapping.Mapper
module Detailed = Mm_mapping.Detailed

type pool_entry = { board : int; seed : int; name : string }

type t = { objectives : (string, float) Hashtbl.t; pool : pool_entry list }

let num j k = Option.bind (J.member k j) J.to_float
let str j k = Option.bind (J.member k j) J.to_str
let list j k = match J.member k j with Some (J.List l) -> l | _ -> []

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match J.of_string text with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j ->
      let objectives = Hashtbl.create 128 in
      let entry e =
        match (str e "name", num e "objective") with
        | Some n, Some o -> Hashtbl.replace objectives n o
        | _ -> failwith (path ^ ": entry without name/objective")
      in
      List.iter entry (list j "instances");
      List.iter entry (list j "pool");
      let pool =
        List.map
          (fun e ->
            match (str e "name", num e "board", num e "seed") with
            | Some name, Some b, Some s ->
                { board = int_of_float b; seed = int_of_float s; name }
            | _ -> failwith (path ^ ": pool entry without board/seed"))
          (list j "pool")
      in
      { objectives; pool }

let same_objective a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)

let check_objective t ~name got =
  match Hashtbl.find_opt t.objectives name with
  | None -> Some (Printf.sprintf "%s: no expected objective" name)
  | Some want when not (same_objective got want) ->
      Some (Printf.sprintf "%s: objective %.6g, expected %.6g" name got want)
  | Some _ -> None

let check_mapping ~name board design mapping =
  match Mm_mapping.Validate.check board design mapping with
  | [] -> None
  | v :: _ as vs ->
      Some
        (Printf.sprintf "%s: illegal mapping (%d violations, first %s: %s)" name
           (List.length vs) v.Mm_mapping.Validate.code v.message)

let first_failure checks = List.find_map (fun c -> c ()) checks

let check_outcome t ~name board design (o : Mapper.outcome) =
  first_failure
    [
      (fun () ->
        match o.Mapper.ilp_result.Mm_lp.Solver.mip.Mm_lp.Branch_bound.status with
        | Mm_lp.Branch_bound.Optimal -> None
        | _ -> Some (name ^ ": solve did not prove optimality"));
      (fun () -> check_objective t ~name o.Mapper.objective);
      (fun () -> check_mapping ~name board design o.Mapper.mapping);
    ]

(* ---- decoding a mapping from a wire report ----------------------------- *)

let lookup what n name_of =
  let h = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace h (name_of i) i
  done;
  fun k ->
    match Hashtbl.find_opt h k with
    | Some i -> i
    | None -> failwith (Printf.sprintf "unknown %s %S" what k)

let part_of_string = function
  | "full" -> Detailed.Full
  | "w-strip" -> Detailed.Width_strip
  | "d-strip" -> Detailed.Depth_strip
  | "corner" -> Detailed.Corner
  | s -> failwith ("unknown fragment part " ^ s)

let mapping_of_report board design report =
  let nseg = Mm_design.Design.num_segments design in
  let seg_index =
    lookup "segment" nseg (fun i ->
        (Mm_design.Design.segment design i).Mm_design.Segment.name)
  in
  let type_index n =
    match Mm_arch.Board.find_type board n with
    | Some i -> i
    | None -> failwith ("unknown bank type " ^ n)
  in
  let get j k = match num j k with Some v -> int_of_float v | None -> failwith ("missing " ^ k) in
  let gets j k = match str j k with Some v -> v | None -> failwith ("missing " ^ k) in
  let assignment = Array.make nseg (-1) in
  List.iter
    (fun a -> assignment.(seg_index (gets a "segment")) <- type_index (gets a "type"))
    (list report "assignment");
  let placement p =
    let config =
      Scanf.sscanf (gets p "config") "%dx%d" (fun depth width ->
          Mm_arch.Config.make ~depth ~width)
    in
    let rounded_words = get p "rounded_words" in
    {
      Detailed.fragment =
        {
          Detailed.segment = seg_index (gets p "segment");
          part = part_of_string (gets p "part");
          config;
          words = get p "words";
          rounded_words;
          ports_needed = get p "ports";
          footprint_bits = rounded_words * config.Mm_arch.Config.width;
        };
      type_index = type_index (gets p "type");
      instance = get p "instance";
      first_port = get p "first_port";
      offset_bits = get p "offset_bits";
      shared = (match J.member "shared" p with Some (J.Bool b) -> b | _ -> false);
    }
  in
  { Detailed.assignment; placements = List.map placement (list report "placements") }

let check_report t ~name board design report =
  first_failure
    [
      (fun () ->
        match str report "status" with
        | Some "optimal" -> None
        | s -> Some (Printf.sprintf "%s: status %s" name (Option.value s ~default:"?")));
      (fun () ->
        match num report "objective" with
        | Some o -> check_objective t ~name o
        | None -> Some (name ^ ": report without objective"));
      (fun () ->
        match mapping_of_report board design report with
        | m -> check_mapping ~name board design m
        | exception (Failure e | Invalid_argument e) ->
            Some (Printf.sprintf "%s: undecodable mapping (%s)" name e)
        | exception Scanf.Scan_failure e ->
            Some (Printf.sprintf "%s: undecodable mapping (%s)" name e));
    ]
