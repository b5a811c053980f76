(* Result of one benchmark run: the human-readable report, the record
   file run.py keeps for [compare], and the one-line JSON result. *)

module J = Mm_obs.Json

type metric = { name : string; value : float; unit_ : string; n : int }

let metric ?(n = 1) name unit_ value = { name; value; unit_; n }

(* A parent time and the child layers measured inside it. [strict]
   groups must sum within [tolerance]; for the others the remainder is
   the layer's unattributed time, shown rather than judged. *)
type sum_check = {
  parent : string;
  parent_s : float;
  children : (string * float) list;
  strict : bool;
}

let tolerance = 0.05

let residual c = c.parent_s -. Stats.sum (List.map snd c.children)

let sum_ok c =
  let r = residual c in
  if c.strict then Float.abs r <= tolerance *. c.parent_s
  else r >= -.tolerance *. c.parent_s

type run = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  e2e : metric list;  (** BENCHMARK.json end_to_end, untraced runs *)
  layers : metric list;  (** BENCHMARK.json per_layer, traced runs *)
  extra : metric list;  (** printed and recorded, not in the result line *)
  sums : sum_check list;
  attempted : int;
  failed : int;
  failures : string list;
  info : (string * J.t) list;
}

let correct r = r.failed = 0 && List.for_all sum_ok r.sums

let metric_json m =
  J.Obj
    [
      ("value", J.Num m.value);
      ("unit", J.Str m.unit_);
      ("n", J.Num (float_of_int m.n));
    ]

let metrics_json ms = J.Obj (List.map (fun m -> (m.name, metric_json m)) ms)

let result_metrics r = if r.trace then r.layers else r.e2e

let result_line r =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (correct r));
         ("attempted", J.Num (float_of_int r.attempted));
         ("failed", J.Num (float_of_int r.failed));
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ]))
                (result_metrics r)) );
       ])

let record_json r =
  J.Obj
    ([
       ("workload", J.Str r.workload);
       ("seed", J.Num (float_of_int r.seed));
       ("seconds", J.Num r.seconds);
       ("trace", J.Bool r.trace);
       ("correct", J.Bool (correct r));
       ("attempted", J.Num (float_of_int r.attempted));
       ("failed", J.Num (float_of_int r.failed));
       ("failures", J.List (List.map (fun s -> J.Str s) r.failures));
       ("end_to_end", metrics_json r.e2e);
       ("per_layer", metrics_json r.layers);
       ("extra", metrics_json r.extra);
       ( "layer_sums",
         J.List
           (List.map
              (fun c ->
                J.Obj
                  [
                    ("parent", J.Str c.parent);
                    ("parent_s", J.Num c.parent_s);
                    ("residual_s", J.Num (residual c));
                    ("ok", J.Bool (sum_ok c));
                  ])
              r.sums) );
     ]
    @ r.info)

let print_metrics title ms =
  if ms <> [] then begin
    Printf.printf "%s\n" title;
    List.iter
      (fun m -> Printf.printf "  %-28s %14.6g %-6s n=%d\n" m.name m.value m.unit_ m.n)
      ms
  end

let print r =
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" r.workload r.seed
    r.seconds
    (if r.trace then 1 else 0);
  List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k (J.to_string v)) r.info;
  print_metrics "end-to-end" r.e2e;
  print_metrics "per-layer" r.layers;
  print_metrics "extra" r.extra;
  if r.sums <> [] then begin
    Printf.printf "layer sums (children + remainder = parent)\n";
    List.iter
      (fun c ->
        Printf.printf "  %-22s %10.4fs = %s + remainder %.4fs (%.1f%%) %s\n" c.parent
          c.parent_s
          (String.concat " + "
             (List.map (fun (n, v) -> Printf.sprintf "%s %.4f" n v) c.children))
          (residual c)
          (100.0 *. residual c /. Float.max c.parent_s 1e-12)
          (if sum_ok c then "ok" else "MISMATCH"))
      r.sums
  end;
  Printf.printf "attempted %d failed %d failed_share %g\n" r.attempted r.failed
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) r.failures;
  print_endline (result_line r)

let write_record path r =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (record_json r));
      output_char oc '\n')
