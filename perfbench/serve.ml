(* serve_mixed: a real [mmap serve] daemon (--workers 2 --max-batch 8,
   other flags at their defaults) driven by one single-threaded load
   generator over two connections. A reader thread per connection only
   timestamps reply lines; every reply is decoded and checked after its
   phase, off the clock.

   Phases, in order: in-process engine passes (see [engine_pass]), then
   open-loop Poisson arrivals at each of the three fixed rates with
   engine passes after each, then a ladder of higher rates for
   [max_rate_rps]. *)

module J = Mm_obs.Json
module Client = Mm_service.Client
module Request = Mm_service.Request
open Stats

(* Fixed arrival rates in requests/s at the nominal host speed (see
   {!Hostref}), frozen so that runs on different commits offer the same
   load. In five runs on a 2-core x86-64 host the daemon met the latency
   limit on this mix up to 14-21 req/s (median 14); the rates are about
   30/55/80% of 18. A rung offers its rate scaled by the host's speed
   measured just before it, so a slow period of the host does not turn
   [high] into an overload. The ladder then climbs past them; one rung
   keeps the run near a minute. *)
let rates = [ ("low", 6.0); ("mid", 10.0); ("high", 14.0) ]
let ladder = [ 18.0 ]
let latency_limit_ms = 1000.0
let connections = 2

(* Designs per board in an engine pass. *)
let pass_designs = 3

type item = {
  name : string;
  board : Mm_arch.Board.t;  (** as the daemon decodes it *)
  design : Mm_design.Design.t;
  body : string;  (** the request line after its leading [{"id":..,] *)
}

(* The pool: per Table-3 board, the designs expected.json lists, in
   order of popularity. *)
let pool (gate : Gate.t) =
  Array.init Wl.pool_boards (fun b ->
      let board = Wl.pool_board b in
      Array.of_list
        (List.filter_map
           (fun (e : Gate.pool_entry) ->
             if e.board <> b then None
             else
               let line, board', design =
                 Wl.wire_request board (Wl.pool_design board b e.seed)
               in
               Some
                 {
                   name = e.name;
                   board = board';
                   design;
                   body = String.sub line 1 (String.length line - 1);
                 })
           gate.pool))

(* What one open-loop rung sends: every board equally often and, within
   a board, design [k] in proportion to 1/(k+1) (largest-remainder
   counts), the same multiset for every rung and seed; the seed draws
   the order and the arrival times. With independent draws the p90
   would flip between the p8 board's slow solves and the rest depending
   on how many p8 requests a seed happened to draw. *)
let per_board = 12

let rung_items pool =
  List.concat_map
    (fun designs ->
      let w = Array.mapi (fun k _ -> 1.0 /. float_of_int (k + 1)) designs in
      let total = Array.fold_left ( +. ) 0.0 w in
      let share = Array.map (fun x -> x /. total *. float_of_int per_board) w in
      let counts = Array.map (fun x -> int_of_float (Float.floor x)) share in
      let left = per_board - Array.fold_left ( + ) 0 counts in
      let by_remainder =
        List.sort
          (fun i j -> Float.compare (share.(j) -. Float.floor share.(j)) (share.(i) -. Float.floor share.(i)))
          (List.init (Array.length w) Fun.id)
      in
      List.iteri (fun r k -> if r < left then counts.(k) <- counts.(k) + 1) by_remainder;
      List.concat (List.mapi (fun k c -> List.init c (fun _ -> designs.(k))) (Array.to_list counts)))
    (Array.to_list pool)

(* ---- the daemon ----------------------------------------------------------- *)

let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let rec connect_until sock deadline =
  match Client.connect sock with
  | Ok c -> c
  | Error e ->
      if now () > deadline then failwith ("daemon did not accept: " ^ e);
      Unix.sleepf 0.001;
      connect_until sock deadline

(* Spawns the daemon and returns its pid and the interval from spawn
   until its socket accepted a connection. *)
let spawn ~mmap ~sock ~trace_file =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let args =
    [ mmap; "serve"; "--socket"; sock; "--workers"; "2"; "--max-batch"; "8" ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log = Unix.openfile (sock ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid = Unix.create_process mmap (Array.of_list args) null_in log log in
  live := pid :: !live;
  Unix.close null_in;
  Unix.close log;
  let c = connect_until sock (t0 +. 20.0) in
  let t1 = now () in
  Client.close c;
  (pid, { Closed.t0; t1 })

let control sock op =
  match Client.request ~socket:sock (Printf.sprintf {|{"id":"ctl","op":%S}|} op) with
  | Ok line -> (
      match J.of_string line with Ok j -> j | Error e -> failwith ("control reply: " ^ e))
  | Error e -> failwith ("control op " ^ op ^ ": " ^ e)

let shutdown sock pid =
  ignore (control sock "shutdown");
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now () > deadline then Unix.kill pid Sys.sigkill;
        Unix.sleepf 0.005;
        wait ()
    | _ -> live := List.filter (( <> ) pid) !live
  in
  wait ()

(* ---- the load generator ---------------------------------------------------- *)

type gen = {
  conns : Client.t array;
  mu : Mutex.t;
  cv : Condition.t;
  replies : (string, float * string) Hashtbl.t;  (** id -> arrival, line *)
  inflight : int array;  (** per connection *)
  mutable next_id : int;
}

let reply_id line =
  let key = {|"id":"|} in
  let k = String.length key in
  let rec find i =
    if i + k > String.length line then None
    else if String.sub line i k = key then
      Option.map (fun j -> String.sub line (i + k) (j - i - k)) (String.index_from_opt line (i + k) '"')
    else find (i + 1)
  in
  find 0

let reader g ci =
  let rec loop () =
    match Client.recv g.conns.(ci) with
    | Error _ -> ()
    | Ok line ->
        let t = now () in
        Mutex.lock g.mu;
        (match reply_id line with
        | Some id -> Hashtbl.replace g.replies id (t, line)
        | None -> ());
        g.inflight.(ci) <- g.inflight.(ci) - 1;
        Condition.broadcast g.cv;
        Mutex.unlock g.mu;
        loop ()
  in
  loop ()

let connect sock =
  let conns =
    Array.init connections (fun _ ->
        match Client.connect sock with Ok c -> c | Error e -> failwith e)
  in
  let g =
    {
      conns;
      mu = Mutex.create ();
      cv = Condition.create ();
      replies = Hashtbl.create 1024;
      inflight = Array.make connections 0;
      next_id = 0;
    }
  in
  let threads = Array.to_list (Array.init connections (fun ci -> Thread.create (reader g) ci)) in
  (g, threads)

(* The daemon closes idle connections when it shuts down, which ends
   the reader threads. *)
let disconnect (g, threads) =
  List.iter Thread.join threads;
  Array.iter Client.close g.conns

let send g ci item =
  let id = Printf.sprintf "r%d" g.next_id in
  g.next_id <- g.next_id + 1;
  Mutex.lock g.mu;
  g.inflight.(ci) <- g.inflight.(ci) + 1;
  Mutex.unlock g.mu;
  (match Client.send g.conns.(ci) (Printf.sprintf {|{"id":"%s",%s|} id item.body) with
  | Ok () -> ()
  | Error e -> failwith ("send: " ^ e));
  id

let outstanding g =
  Mutex.lock g.mu;
  let n = Array.fold_left ( + ) 0 g.inflight in
  Mutex.unlock g.mu;
  n

(* Waits until every connection is idle or [deadline] passes. *)
let drain g deadline =
  Mutex.lock g.mu;
  while Array.exists (fun n -> n > 0) g.inflight && now () < deadline do
    Mutex.unlock g.mu;
    Unix.sleepf 0.002;
    Mutex.lock g.mu
  done;
  Mutex.unlock g.mu

type sent = { id : string; item : item; due : float }

type rung = {
  label : string;
  rate : float;  (** nominal *)
  offered : float;  (** requests/s actually offered *)
  span : Closed.span;  (** first scheduled send to last reply *)
  sent : sent list;
  late : float list;  (** seconds each send ran behind schedule *)
  backlog : int list;  (** requests outstanding at each send *)
}

(* One caller through the daemon, each request after the previous reply:
   the untimed warm-up that fills the daemon's cache before the rungs. *)
let warm_up g items =
  let t0 = now () in
  let sent =
    List.map
      (fun item ->
        Mutex.lock g.mu;
        while g.inflight.(0) > 0 do
          Condition.wait g.cv g.mu
        done;
        Mutex.unlock g.mu;
        { id = send g 0 item; item; due = now () })
      items
  in
  drain g (now () +. 120.0);
  { label = "warm-up"; rate = 0.0; offered = 0.0; span = { Closed.t0; t1 = now () }; sent; late = []; backlog = [] }

(* Open loop: Poisson arrivals at [rate], sent on schedule whatever the
   replies do, alternating connections. *)
let open_rung g rng items ~label ~rate =
  let order = Array.of_list items in
  Mm_util.Prng.shuffle rng order;
  let offered = rate *. Hostref.speed () in
  let start = now () +. 0.02 in
  let due = ref start in
  let sent = ref [] and late = ref [] and backlog = ref [] in
  Array.iteri (fun i item ->
    due := !due +. (-.Float.log (1.0 -. Mm_util.Prng.float rng 1.0) /. offered);
    let d = !due -. now () in
    if d > 0.0 then Unix.sleepf d;
    late := (now () -. !due) :: !late;
    backlog := outstanding g :: !backlog;
    sent := { id = send g (i mod connections) item; item; due = !due } :: !sent)
    order;
  drain g (now () +. 60.0);
  {
    label;
    rate;
    offered;
    span = { Closed.t0 = start; t1 = now () };
    sent = List.rev !sent;
    late = List.rev !late;
    backlog = List.rev !backlog;
  }

(* ---- checking replies ----------------------------------------------------- *)

type outcome = Answered of float (* latency, ms *) | Overloaded | Failed of string

(* A reply line checked against the gate; [latency_ms] is its latency
   when it is a correct answer. *)
let check_reply gate item line ~latency_ms =
  match Result.bind (J.of_string line) Request.response_of_json with
  | Error e -> Failed (item.name ^ ": bad reply: " ^ e)
  | Ok (Request.Error_response { code = Request.Overloaded; _ }) -> Overloaded
  | Ok (Request.Error_response { code; message; _ }) ->
      Failed (Printf.sprintf "%s: %s: %s" item.name (Request.error_code_to_string code) message)
  | Ok (Request.Ok_response { report; _ }) -> (
      match Gate.check_report gate ~name:item.name item.board item.design report with
      | Some f -> Failed f
      | None -> Answered latency_ms)

let outcome gate g s =
  match Hashtbl.find_opt g.replies s.id with
  | None -> Failed (s.item.name ^ ": no reply")
  | Some (t, line) -> check_reply gate s.item line ~latency_ms:((t -. s.due) *. 1000.0)

type rung_result = {
  r : rung;
  latencies : float list;  (** ms, host-speed adjusted *)
  raw_ms : float list;
  overloaded : int;
  errors : string list;
  valid : bool;  (** the generator kept its schedule and the backlog stayed bounded *)
  growth : float;
}

let quarter_mean xs first =
  let a = Array.of_list (List.map float_of_int xs) in
  let q = Array.length a / 4 in
  let off = if first then 0 else Array.length a - q in
  if q = 0 then 0.0 else mean (Array.to_list (Array.sub a off q))

let judge gate g r =
  let outs = List.map (outcome gate g) r.sent in
  let raw_ms = List.filter_map (function Answered l -> Some l | _ -> None) outs in
  let latencies = List.map (Hostref.adjust ~t0:r.span.Closed.t0 ~t1:r.span.Closed.t1) raw_ms in
  let overloaded = List.length (List.filter (( = ) Overloaded) outs) in
  let errors = List.filter_map (function Failed f -> Some f | _ -> None) outs in
  let growth = quarter_mean r.backlog false -. quarter_mean r.backlog true in
  let gap = 1.0 /. r.offered in
  let valid = percentile r.late 0.9 <= gap /. 10.0 && growth <= 8.0 in
  { r; latencies; raw_ms; overloaded; errors; valid; growth }

let meets_limit x =
  x.valid && x.overloaded = 0 && x.errors = []
  && List.length x.latencies = List.length x.r.sent
  && percentile x.latencies 0.9 <= latency_limit_ms

(* ---- the daemon's own layers (traced runs) ------------------------------------ *)

let daemon_layers ~trace_file ~stats ~overloaded ~requests =
  let events =
    match Mm_obs.Summary.read_file trace_file with
    | Ok evs -> evs
    | Error e -> failwith ("daemon trace: " ^ e)
  in
  let buckets name =
    List.concat_map
      (fun (ev : Mm_obs.Summary.event) ->
        if ev.kind = "hist" && ev.name = name then ev.buckets else [])
      events
  in
  let ms name q = 1000.0 *. hist_percentile (buckets name) q in
  let n name = List.fold_left (fun acc (_, c) -> acc + c) 0 (buckets name) in
  let field path =
    List.fold_left
      (fun j k -> Option.bind j (J.member k))
      (Some stats) path
    |> Fun.flip Option.bind J.to_float |> Option.value ~default:Float.nan
  in
  let hits = field [ "cache"; "hits" ] and misses = field [ "cache"; "misses" ] in
  Out.
    [
      metric ~n:(n "queue_wait") "server.queue_wait_p50_ms" "ms" (ms "queue_wait" 0.5);
      metric ~n:(n "queue_wait") "server.queue_wait_p90_ms" "ms" (ms "queue_wait" 0.9);
      metric "server.overloaded" "count" (float_of_int overloaded);
      metric ~n:(n "solve") "engine.solve_p50_ms" "ms" (ms "solve" 0.5);
      metric ~n:(n "solve") "engine.solve_p90_ms" "ms" (ms "solve" 0.9);
      metric ~n:(n "encode") "engine.encode_p50_ms" "ms" (ms "encode" 0.5);
      metric "cache.hit_share" "share" (hits /. (hits +. misses));
      metric "cache.evictions" "count" (field [ "cache"; "evictions" ]);
      metric "engine.batches_formed" "count" (field [ "batching"; "batches_formed" ]);
      metric "engine.coalesced_share" "share"
        (field [ "batching"; "coalesced_requests" ] /. float_of_int (max 1 requests));
    ]

(* ---- in-process engine passes ---------------------------------------------- *)

(* One caller sends each pass item straight to [Engine.handle_line], the
   daemon's request processor without its socket, queue and worker
   domains: decode, warm-cache lease, mapping, encode. These passes give
   the workload's gated metrics. Through the daemon, the same requests
   vary far more between runs than the host's speed explains: its three
   domains share two cores and wait for one another at every minor
   collection. *)
let engine_pass gate f engine items =
  Array.to_list
    (Array.map
       (fun item ->
         let reply, sp =
           Closed.timed (fun () ->
               Mm_service.Engine.handle_line engine (Printf.sprintf {|{"id":"e",%s|} item.body))
         in
         Hostref.sample ();
         (match check_reply gate item reply ~latency_ms:0.0 with
         | Answered _ -> Closed.record f None
         | Overloaded -> Closed.record f (Some (item.name ^ ": overloaded in process"))
         | Failed e -> Closed.record f (Some e));
         sp)
       items)

(* ---- the run ---------------------------------------------------------------- *)

let run gate ~mmap ~workdir ~seed ~seconds ~trace ~header =
  let pool = pool gate in
  (* an engine pass sends the three most popular designs of every
     board, boards interleaved, in the same order on every seed: 27
     requests, fewer than the cache holds, so passes after the first run
     warm *)
  let items =
    Array.concat
      (List.init pass_designs (fun k ->
           Array.of_list (List.map (fun designs -> designs.(k)) (Array.to_list pool))))
  in
  let rung = rung_items pool in
  let f = Closed.failures () in
  let sock = Filename.concat workdir (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
  let trace_file = Filename.concat workdir (Printf.sprintf "s%d.trace" (Unix.getpid ())) in
  (* set-up is spawning a daemon until its socket accepts: a few
     milliseconds, so besides the daemon that serves the run, throwaway
     daemons are spawned before it and after every phase, and
     [setup_s] is the median over the whole run *)
  let setup = ref [] in
  let probe_sock = Filename.concat workdir (Printf.sprintf "p%d.sock" (Unix.getpid ())) in
  let probe () =
    let p, sp = spawn ~mmap ~sock:probe_sock ~trace_file:None in
    shutdown probe_sock p;
    setup := sp :: !setup;
    Hostref.sample ()
  in
  for _ = 1 to 4 do
    probe ()
  done;
  let pid, sp = spawn ~mmap ~sock ~trace_file:(if trace then Some trace_file else None) in
  setup := sp :: !setup;
  let conn = connect sock in
  let g = fst conn in
  let rng = Mm_util.Prng.create seed in
  (* an [overloaded] reply is the daemon's typed backpressure, not a
     wrong answer: it fails its rung's limit and is counted, but is not a
     failed operation. On a ladder rung past saturation, missing replies
     end the ladder too. *)
  let overloaded = ref 0 in
  let account ?(probe = false) x =
    overloaded := !overloaded + x.overloaded;
    List.iter (fun _ -> Closed.record f None) x.latencies;
    List.iter
      (fun e -> if not (probe && String.ends_with ~suffix:"no reply" e) then Closed.record f (Some e))
      x.errors
  in
  let engine = Mm_service.Engine.create () in
  let passes = ref [] in
  let engine_passes () =
    for _ = 1 to 2 do
      passes := engine_pass gate f engine items :: !passes
    done
  in
  (* engine passes open the run and follow every fixed rung, so they
     sample the host's speed across the whole run *)
  engine_passes ();
  (* the whole pool through the daemon, least popular designs first, so
     that the cache starts the rungs holding the most popular ones *)
  let warm =
    List.concat_map
      (fun k -> List.filter_map (fun d -> if k < Array.length d then Some d.(k) else None) (Array.to_list pool))
      (List.rev (List.init (Array.fold_left (fun m d -> max m (Array.length d)) 0 pool) Fun.id))
  in
  account (judge gate g (warm_up g warm));
  let fixed =
    List.map
      (fun (label, rate) ->
        let x = judge gate g (open_rung g rng rung ~label ~rate) in
        account x;
        probe ();
        engine_passes ();
        x)
      rates
  in
  let rec climb best = function
    | [] -> (best, [])
    | rate :: rest ->
        let x = judge gate g (open_rung g rng rung ~label:(Printf.sprintf "ladder.%g" rate) ~rate) in
        account ~probe:true x;
        if meets_limit x then
          let best, xs = climb rate rest in
          (best, x :: xs)
        else (best, [ x ])
  in
  let rec upto best = function
    | x :: rest when meets_limit x -> upto x.r.rate rest
    | [] -> (best, true)
    | _ -> (best, false)
  in
  let max_rate, ladder_rungs =
    match upto 0.0 fixed with
    | best, true -> climb best ladder
    | best, false -> (best, [])
  in
  let passes = List.rev !passes in
  let calls = List.concat passes in
  let pass t = List.map (fun p -> sum (List.map t p)) passes in
  let stats = control sock "stats" in
  let rss = peak_rss_mb (Some pid) in
  shutdown sock pid;
  disconnect conn;
  List.iter (fun s -> try Sys.remove (s ^ ".log") with Sys_error _ -> ()) [ sock; probe_sock ];
  let valid = List.filter (fun x -> x.valid) fixed in
  let e2e =
    Out.
      [
        (* not host-speed adjusted: a spawn is mostly the kernel's work
           (fork, exec, page faults), which the reference does not follow *)
        metric ~n:(List.length !setup) "setup_s" "s" (median (List.map Closed.raw !setup));
        metric ~n:(List.length passes) "pass_s" "s" (median (pass Closed.adjusted));
        metric ~n:(List.length calls) "latency_p50_ms" "ms"
          (median (Closed.ms (List.map Closed.adjusted calls)));
        metric "peak_rss_mb" "MB" rss;
      ]
  in
  let per_rate =
    List.concat_map
      (fun x ->
        let n = List.length x.latencies in
        Out.
          [
            metric ~n ("latency_p50_ms." ^ x.r.label) "ms" (median x.latencies);
            metric ~n ("latency_p90_ms." ^ x.r.label) "ms" (percentile x.latencies 0.9);
          ])
      valid
  in
  let late = List.concat_map (fun x -> List.map (fun s -> s *. 1000.0) x.r.late) fixed in
  let backlog = List.concat_map (fun x -> x.r.backlog) fixed in
  let extra =
    per_rate
    @ Out.
        [
          metric ~n:(List.length ladder_rungs) "max_rate_rps" "1/s" max_rate;
          Closed.failed_share f;
          metric ~n:f.attempted "rejected_share" "share"
            (float_of_int !overloaded /. float_of_int (max 1 f.attempted));
          metric ~n:(List.length late) "loadgen.late_p90_ms" "ms" (percentile late 0.9);
          metric ~n:(List.length backlog) "loadgen.backlog_max" "count"
            (float_of_int (List.fold_left max 0 backlog));
          metric ~n:(List.length passes) "raw.pass_s" "s" (median (pass Closed.raw));
          metric ~n:(List.length calls) "raw.latency_p50_ms" "ms"
            (median (Closed.ms (List.map Closed.raw calls)));
          metric ~n:(List.length !Hostref.samples) "host.reference_ms" "ms" (Hostref.median_ms ());
        ]
  in
  let rung_info x =
    J.Obj
      [
        ("label", J.Str x.r.label);
        ("rate", J.Num x.r.rate);
        ("offered", J.Num x.r.offered);
        ("sent", J.Num (float_of_int (List.length x.r.sent)));
        ("answered", J.Num (float_of_int (List.length x.latencies)));
        ("overloaded", J.Num (float_of_int x.overloaded));
        ("errors", J.Num (float_of_int (List.length x.errors)));
        ("p90_ms", J.Num (percentile x.latencies 0.9));
        ("late_p90_ms", J.Num (1000.0 *. percentile x.r.late 0.9));
        ("backlog_growth", J.Num x.growth);
        ("valid", J.Bool x.valid);
        ("meets_limit", J.Bool (meets_limit x));
      ]
  in
  let layers, sums, extra =
    if not trace then ([], [], extra)
    else
      (* the solver layers, from a traced in-process pass over the most
         popular design of each board (the daemon traces no solver) *)
      let heads =
        Array.to_list
          (Array.map
             (fun designs ->
               let it = designs.(0) in
               { Wl.name = it.name; gen = (fun () -> (it.board, it.design)) })
             pool)
      in
      let baseline_s =
        sum
          (List.map
             (fun (i : Wl.inst) ->
               let b, d = i.gen () in
               snd (time (fun () -> Mm_mapping.Mapper.run ~options:(Closed.options ()) b d)))
             heads)
      in
      let layers, sums =
        Closed.traced_pass gate f ~method_:Mm_mapping.Mapper.Global_detailed ~baseline_s heads
      in
      let requests = List.length (List.concat_map (fun x -> x.r.sent) (fixed @ ladder_rungs)) in
      let daemon = daemon_layers ~trace_file ~stats ~overloaded:!overloaded ~requests in
      Sys.remove trace_file;
      (layers, sums, extra @ daemon)
  in
  {
    Out.workload = "serve_mixed";
    seed;
    seconds;
    trace;
    e2e;
    layers;
    extra;
    sums;
    attempted = f.attempted;
    failed = f.failed;
    failures = f.msgs;
    info =
      header ~seed
        [
          ("rates_rps", J.Obj (List.map (fun (l, r) -> (l, J.Num r)) rates));
          ("ladder_rps", J.List (List.map (fun r -> J.Num r) ladder));
          ("pool_designs", J.Num (float_of_int (Array.fold_left (fun n d -> n + Array.length d) 0 pool)));
          ("rungs", J.List (List.map rung_info (fixed @ ladder_rungs)));
        ];
  }
