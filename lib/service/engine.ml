module Trace = Mm_obs.Trace
module J = Mm_obs.Json

type batch_counters = {
  mutable formed : int;
  mutable coalesced : int;
  mutable warm_hits : int;
  bmu : Mutex.t;
}

type t = {
  cache : Cache.t;
  default_knobs : Mm_lp.Config.t;
  batch : batch_counters;
}

let create ?(cache_capacity = 64) ?(default_knobs = Mm_lp.Config.default) ()
    =
  {
    cache = Cache.create ~capacity:cache_capacity;
    default_knobs;
    batch = { formed = 0; coalesced = 0; warm_hits = 0; bmu = Mutex.create () };
  }

let cache t = t.cache
let cache_stats t = Cache.stats t.cache

type batch_stats = {
  batches_formed : int;
  coalesced_requests : int;
  batch_warm_hits : int;
}

let batch_stats t =
  Mutex.lock t.batch.bmu;
  let s =
    {
      batches_formed = t.batch.formed;
      coalesced_requests = t.batch.coalesced;
      batch_warm_hits = t.batch.warm_hits;
    }
  in
  Mutex.unlock t.batch.bmu;
  s

let batch_stats_to_json (s : batch_stats) =
  J.Obj
    [
      ("batches_formed", J.Num (float_of_int s.batches_formed));
      ("coalesced_requests", J.Num (float_of_int s.coalesced_requests));
      ("batch_warm_hits", J.Num (float_of_int s.batch_warm_hits));
    ]

type timing = {
  queue_wait : Trace.hist;
  solve : Trace.hist;
  encode : Trace.hist;
  batch_size : Trace.hist;
}

let timing () =
  {
    queue_wait = Trace.hist_create ();
    solve = Trace.hist_create ();
    encode = Trace.hist_create ();
    batch_size = Trace.hist_create ();
  }

let emit_timing snk tm =
  Trace.emit_hist snk "queue_wait" tm.queue_wait;
  Trace.emit_hist snk "solve" tm.solve;
  Trace.emit_hist snk "encode" tm.encode;
  Trace.emit_hist snk "batch_size" tm.batch_size

let code_of_error = function
  | Mm_mapping.Mapper.Unmappable _ -> Request.Unmappable
  | Mm_mapping.Mapper.Retries_exhausted _ -> Request.Retries_exhausted
  | Mm_mapping.Mapper.Solver_limit -> Request.Solver_limit

(* Solve one request against an already-held lease. [~cache_hit] is
   what the response advertises: the lease's own hit flag for the
   request that acquired it, [true] for later batch members riding the
   state their group's first solve trained. *)
let solve_leased (lease : Cache.lease) ~cache_hit (req : Request.t) =
  let warm_solves = Mm_lp.Solver.warm_solves lease.Cache.warm in
  (* the mapper runs with tracing disabled: the solver's own sinks are
     per-solve and the service records request-level spans itself, so
     worker domains never share the trace's root sink *)
  let options =
    Mm_mapping.Mapper.options ~solver_options:req.Request.knobs ()
  in
  let result =
    try
      Ok
        (Mm_mapping.Mapper.run ~method_:req.Request.method_ ~options
           ~warm:lease.Cache.warm req.Request.board req.Request.design)
    with exn -> Error (Printexc.to_string exn)
  in
  match result with
  | Ok (Ok outcome) ->
      let report =
        Mm_mapping.Report.to_json
          (Mm_mapping.Report.of_outcome req.Request.board req.Request.design
             outcome)
      in
      Request.Ok_response { id = req.Request.id; cache_hit; warm_solves; report }
  | Ok (Error e) ->
      Request.Error_response
        {
          id = req.Request.id;
          code = code_of_error e;
          message = Mm_mapping.Mapper.error_to_string e;
        }
  | Error msg ->
      Request.Error_response
        { id = req.Request.id; code = Request.Server_error; message = msg }

let handle t ?(snk = Trace.null) (req : Request.t) =
  let key = Request.fingerprint req in
  let lease = Cache.acquire t.cache key in
  Trace.count snk (if lease.Cache.hit then "cache_hit" else "cache_miss") 1;
  Fun.protect
    ~finally:(fun () -> Cache.release t.cache lease)
    (fun () -> solve_leased lease ~cache_hit:lease.Cache.hit req)

(* ---- coalesced batches ------------------------------------------------- *)

type member = {
  req : Request.t;
  started : unit -> unit;
  respond : Request.response -> unit;
}

let run_batch t ?(snk = Trace.null) members =
  match members with
  | [] -> ()
  | [ m ] ->
      m.started ();
      let resp = Trace.span snk "request" (fun () -> handle t ~snk m.req) in
      m.respond resp
  | _ ->
      let n = List.length members in
      Mutex.lock t.batch.bmu;
      t.batch.formed <- t.batch.formed + 1;
      t.batch.coalesced <- t.batch.coalesced + (n - 1);
      Mutex.unlock t.batch.bmu;
      Trace.count snk "batches_formed" 1;
      Trace.count snk "coalesced_requests" (n - 1);
      (* The batch key equates board, method and knobs but not the
         design, and warm state is only valid across identical
         problems — so members are sub-grouped by full fingerprint
         (arrival order preserved) and each group shares one lease:
         its first member trains the state, the rest ride it. *)
      let order = ref [] in
      let groups : (string, member list ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun m ->
          let key = Request.fingerprint m.req in
          match Hashtbl.find_opt groups key with
          | Some l -> l := m :: !l
          | None ->
              let l = ref [ m ] in
              Hashtbl.add groups key l;
              order := key :: !order)
        members;
      List.iter
        (fun key ->
          let group = List.rev !(Hashtbl.find groups key) in
          let lease = Cache.acquire t.cache key in
          Trace.count snk
            (if lease.Cache.hit then "cache_hit" else "cache_miss")
            1;
          Fun.protect
            ~finally:(fun () -> Cache.release t.cache lease)
            (fun () ->
              List.iteri
                (fun i m ->
                  if i > 0 then begin
                    Mutex.lock t.batch.bmu;
                    t.batch.warm_hits <- t.batch.warm_hits + 1;
                    Mutex.unlock t.batch.bmu;
                    Trace.count snk "batch_warm_hits" 1
                  end;
                  m.started ();
                  let cache_hit = if i = 0 then lease.Cache.hit else true in
                  let resp =
                    Trace.span snk "request" (fun () ->
                        solve_leased lease ~cache_hit m.req)
                  in
                  m.respond resp)
                group))
        (List.rev !order)

let handle_json t ?timing:tm ?(snk = Trace.null) json =
  let solve f =
    match tm with
    | None -> Trace.span snk "request" f
    | Some tm ->
        let t0 = Trace.now_ns () in
        let r = Trace.span snk "request" f in
        Trace.hist_add tm.solve (Int64.sub (Trace.now_ns ()) t0);
        r
  in
  match Request.of_json ~default:t.default_knobs json with
  | Error msg ->
      let id =
        Option.value
          (Option.bind (J.member "id" json) J.to_str)
          ~default:""
      in
      Request.Error_response { id; code = Request.Bad_request; message = msg }
  | Ok req -> solve (fun () -> handle t ~snk req)

let handle_line t ?timing:tm ?(snk = Trace.null) line =
  let resp =
    match J.of_string line with
    | Error msg ->
        Request.Error_response
          { id = ""; code = Request.Bad_request; message = msg }
    | Ok json -> handle_json t ?timing:tm ~snk json
  in
  let t0 = Trace.now_ns () in
  let out = J.to_string (Request.response_to_json resp) in
  (match tm with
  | Some tm -> Trace.hist_add tm.encode (Int64.sub (Trace.now_ns ()) t0)
  | None -> ());
  out
