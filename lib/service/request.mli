(** The service wire format: newline-delimited JSON, one request or
    response object per line.

    A mapping request:
    {v
    {"id":"r1","method":"global",
     "board":"board b\nbank BRAM instances=4 ...",
     "design":"design d\nsegment s depth=64 width=8\n",
     "knobs":{"parallelism":2,"time_limit":5.0}}
    v}
    [board]/[design] are the text formats of {!Mm_io.Board_file} /
    {!Mm_io.Design_file} carried inline as JSON strings; [id] is echoed
    in the response (responses may arrive out of submission order);
    [method] defaults to ["global"]; [knobs] is decoded by
    {!Mm_lp.Config.of_json} (its fields are the solver configuration's,
    absent ones take {!Mm_lp.Config.default}'s values).

    A response is either
    {v
    {"id":"r1","status":"ok","cache":"hit","warm_solves":3,
     "report":{...}}
    v}
    where [report] is exactly {!Mm_mapping.Report.to_json} — the same
    object [mmap solve --json] prints — or
    {v
    {"id":"r1","status":"error","code":"overloaded","message":"..."}
    v} *)

type t = {
  id : string;  (** client-chosen correlation id, echoed back *)
  method_ : Mm_mapping.Mapper.method_;
  board : Mm_arch.Board.t;
  design : Mm_design.Design.t;
  knobs : Mm_lp.Config.t;
}

val make :
  ?id:string ->
  ?method_:Mm_mapping.Mapper.method_ ->
  ?knobs:Mm_lp.Config.t ->
  Mm_arch.Board.t ->
  Mm_design.Design.t ->
  t

val method_to_string : Mm_mapping.Mapper.method_ -> string
val method_of_string : string -> Mm_mapping.Mapper.method_ option

val to_json : t -> Mm_obs.Json.t
(** Boards and designs are rendered in canonical text form, so
    [of_json (to_json r)] round-trips and equal mapping problems get
    equal JSON regardless of input formatting. *)

val of_json : ?default:Mm_lp.Config.t -> Mm_obs.Json.t -> (t, string) result
(** [?default] (default {!Mm_lp.Config.default}) fills in for an absent
    [knobs] field — the daemon passes its command-line solver flags
    here, so per-request knobs override the daemon's but omitting them
    inherits the daemon's configuration. An invalid [knobs] object is an
    [Error] prefixed ["request: knobs: "]. *)

val fingerprint : t -> string
(** Warm-cache key: a digest over the canonical board and design
    texts, the method and the ILP-shaping knobs
    ({!Mm_lp.Config.fingerprint_string} — time limits excluded). Two
    requests share a key iff a warm state trained on one is valid for
    the other. *)

val batch_key : t -> string
(** Coalescing key: like {!fingerprint} but without the design — a
    digest over the canonical board text, the method and the
    ILP-shaping knobs. Queued requests sharing a batch key are drained
    as one group by a single worker ({!Server}'s coalescing scheduler)
    and solved through {!Engine.run_batch}; members that also share a
    full {!fingerprint} ride the warm state the group's first solve
    trains. Requests differing in any fingerprinted knob never share a
    batch. *)

(** {2 Responses} *)

type error_code =
  | Bad_request  (** unparsable line or invalid board/design/knobs *)
  | Overloaded  (** bounded queue full — retry later (backpressure) *)
  | Unmappable
  | Retries_exhausted
  | Solver_limit  (** time/node budget hit before an incumbent *)
  | Server_error  (** unexpected exception while solving *)

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

type response =
  | Ok_response of {
      id : string;
      cache_hit : bool;  (** warm-start state found for this board *)
      warm_solves : int;
          (** solves that trained the state this request consumed *)
      report : Mm_obs.Json.t;  (** {!Mm_mapping.Report.to_json} *)
    }
  | Error_response of { id : string; code : error_code; message : string }

val response_id : response -> string
val response_to_json : response -> Mm_obs.Json.t
val response_of_json : Mm_obs.Json.t -> (response, string) result
