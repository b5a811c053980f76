module J = Mm_obs.Json

type t = {
  id : string;
  method_ : Mm_mapping.Mapper.method_;
  board : Mm_arch.Board.t;
  design : Mm_design.Design.t;
  knobs : Mm_lp.Config.t;
}

let make ?(id = "") ?(method_ = Mm_mapping.Mapper.Global_detailed)
    ?(knobs = Mm_lp.Config.default) board design =
  { id; method_; board; design; knobs }

let method_to_string = function
  | Mm_mapping.Mapper.Global_detailed -> "global"
  | Mm_mapping.Mapper.Complete_flat -> "complete"

let method_of_string = function
  | "global" -> Some Mm_mapping.Mapper.Global_detailed
  | "complete" -> Some Mm_mapping.Mapper.Complete_flat
  | _ -> None

(* Boards and designs travel as their canonical text-format rendering
   inside one JSON string: the formats round-trip ([Board_file] /
   [Design_file]), and canonicalizing here makes the cache fingerprint
   insensitive to comments and whitespace in what the client sent. *)
let to_json r =
  J.Obj
    [
      ("id", J.Str r.id);
      ("method", J.Str (method_to_string r.method_));
      ("board", J.Str (Mm_io.Board_file.to_string r.board));
      ("design", J.Str (Mm_io.Design_file.to_string r.design));
      ("knobs", Mm_lp.Config.to_json r.knobs);
    ]

let of_json ?(default = Mm_lp.Config.default) j =
  let ( let* ) = Result.bind in
  let str f =
    match Option.bind (J.member f j) J.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "request: missing string field %S" f)
  in
  let* id =
    match J.member "id" j with
    | None | Some J.Null -> Ok ""
    | Some (J.Str s) -> Ok s
    | Some _ -> Error "request: id must be a string"
  in
  let* method_ =
    match J.member "method" j with
    | None | Some J.Null -> Ok Mm_mapping.Mapper.Global_detailed
    | Some (J.Str s) -> (
        match method_of_string s with
        | Some m -> Ok m
        | None -> Error (Printf.sprintf "request: unknown method %S" s))
    | Some _ -> Error "request: method must be a string"
  in
  let* board_text = str "board" in
  let* board =
    Result.map_error (fun e -> "request: board: " ^ e)
      (Mm_io.Board_file.parse board_text)
  in
  let* design_text = str "design" in
  let* design =
    Result.map_error (fun e -> "request: design: " ^ e)
      (Mm_io.Design_file.parse design_text)
  in
  let* knobs =
    match J.member "knobs" j with
    | None | Some J.Null -> Ok default
    | Some k ->
        Result.map_error
          (fun e -> "request: knobs: " ^ e)
          (Mm_lp.Config.of_json k)
  in
  Ok { id; method_; board; design; knobs }

let fingerprint r =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            method_to_string r.method_;
            Mm_io.Board_file.to_string r.board;
            Mm_io.Design_file.to_string r.design;
            Mm_lp.Config.fingerprint_string r.knobs;
          ]))

(* The coalescing key deliberately drops the design: queued requests
   against one board under one solver configuration are solved as a
   batch by a single worker, sharing that board's freshly-trained warm
   state. Any fingerprinted knob difference separates batches — batch
   members must be exchangeable down to the search schedule. *)
let batch_key r =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            method_to_string r.method_;
            Mm_io.Board_file.to_string r.board;
            Mm_lp.Config.fingerprint_string r.knobs;
          ]))

(* ---- responses -------------------------------------------------------- *)

type error_code =
  | Bad_request
  | Overloaded
  | Unmappable
  | Retries_exhausted
  | Solver_limit
  | Server_error

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Unmappable -> "unmappable"
  | Retries_exhausted -> "retries_exhausted"
  | Solver_limit -> "solver_limit"
  | Server_error -> "server_error"

let error_code_of_string = function
  | "bad_request" -> Some Bad_request
  | "overloaded" -> Some Overloaded
  | "unmappable" -> Some Unmappable
  | "retries_exhausted" -> Some Retries_exhausted
  | "solver_limit" -> Some Solver_limit
  | "server_error" -> Some Server_error
  | _ -> None

type response =
  | Ok_response of {
      id : string;
      cache_hit : bool;
      warm_solves : int;
      report : J.t;
    }
  | Error_response of { id : string; code : error_code; message : string }

let response_id = function
  | Ok_response { id; _ } | Error_response { id; _ } -> id

let response_to_json = function
  | Ok_response { id; cache_hit; warm_solves; report } ->
      J.Obj
        [
          ("id", J.Str id);
          ("status", J.Str "ok");
          ("cache", J.Str (if cache_hit then "hit" else "miss"));
          ("warm_solves", J.Num (float_of_int warm_solves));
          ("report", report);
        ]
  | Error_response { id; code; message } ->
      J.Obj
        [
          ("id", J.Str id);
          ("status", J.Str "error");
          ("code", J.Str (error_code_to_string code));
          ("message", J.Str message);
        ]

let response_of_json j =
  let ( let* ) = Result.bind in
  let* id =
    match J.member "id" j with
    | None | Some J.Null -> Ok ""
    | Some (J.Str s) -> Ok s
    | Some _ -> Error "response: id must be a string"
  in
  match Option.bind (J.member "status" j) J.to_str with
  | Some "ok" ->
      let* report =
        match J.member "report" j with
        | Some r -> Ok r
        | None -> Error "response: ok without report"
      in
      let cache_hit =
        Option.bind (J.member "cache" j) J.to_str = Some "hit"
      in
      let warm_solves =
        Option.value
          (Option.bind (J.member "warm_solves" j) J.to_int)
          ~default:0
      in
      Ok (Ok_response { id; cache_hit; warm_solves; report })
  | Some "error" ->
      let* code =
        match Option.bind (J.member "code" j) J.to_str with
        | Some s -> (
            match error_code_of_string s with
            | Some c -> Ok c
            | None -> Error (Printf.sprintf "response: unknown code %S" s))
        | None -> Error "response: error without code"
      in
      let message =
        Option.value
          (Option.bind (J.member "message" j) J.to_str)
          ~default:""
      in
      Ok (Error_response { id; code; message })
  | Some s -> Error (Printf.sprintf "response: unknown status %S" s)
  | None -> Error "response: missing status"
