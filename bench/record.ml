(* The harness's one record path: every experiment writes its own
   BENCH_<experiment>.json, a run header followed by the experiment's
   cells, so no experiment overwrites another's numbers. *)

module Json = Mm_obs.Json

let full_mode = ref false
let cap () = if !full_mode then 900.0 else 60.0

(* Worker domains for the parallel legs.  At least 2 so the
   work-stealing machinery is actually exercised even on one core. *)
let parallelism = max 2 (Domain.recommended_domain_count ())

let int n = Json.Num (float_of_int n)

(* Rounded to [digits] decimals so the record reads like the tables. *)
let num ?(digits = 3) v =
  let scale = 10.0 ** float_of_int digits in
  Json.Num (Float.round (v *. scale) /. scale)

let opt f = function Some v -> f v | None -> Json.Null

(* One measured solve: wall time plus the LP-core counters.  A run that
   ends without an incumbent has [objective = None]. *)
type cell = {
  seconds : float;
  optimal : bool;
  objective : float option;
  pivots : int;
  nodes : int;
  domains : int;
  stolen : int;
  idle : float;
  cuts_root : int;
  cuts_node : int;
  cuts_dropped : int;
  cuts_fams : (string * int) list;
  incumbent : string;
  sparse_solves : int;
  dense_fallbacks : int;
}

let cell c =
  Json.Obj
    [
      ("seconds", num c.seconds);
      ("optimal", Json.Bool c.optimal);
      ("objective", opt num c.objective);
      ("pivots", int c.pivots);
      ("nodes", int c.nodes);
      ("domains", int c.domains);
      ("nodes_stolen", int c.stolen);
      ("idle_seconds", num c.idle);
      ( "cuts",
        Json.Obj
          [
            ("root", int c.cuts_root);
            ("node", int c.cuts_node);
            ("dropped", int c.cuts_dropped);
            ( "by_family",
              Json.Obj (List.map (fun (f, n) -> (f, int n)) c.cuts_fams) );
          ] );
      ("incumbent_source", Json.Str c.incumbent);
      ("sparse_solves", int c.sparse_solves);
      ("dense_fallbacks", int c.dense_fallbacks);
    ]

let agree a b =
  match (a.objective, b.objective) with
  | Some x, Some y -> Float.abs (x -. y) <= 1e-6
  | _ -> false

(* An A/B headline is only meaningful when both arms proved the same
   optimum. *)
let headline f a b =
  if a.optimal && b.optimal && agree a b then f a b else None

let pair (na, a) (nb, b) (key, f) =
  Json.Obj
    [
      (na, cell a); (nb, cell b); (key, opt (num ~digits:2) (headline f a b));
    ]

(* Compact JSON, broken over indented lines wherever a value does not
   fit in 100 columns. *)
let rec layout pad = function
  | Json.Num v when Float.is_finite v -> Printf.sprintf "%.15g" v
  | Json.List xs -> block pad "[" "]" (List.map (fun x -> ("", x)) xs)
  | Json.Obj kvs ->
      block pad "{" "}" (List.map (fun (k, x) -> (Json.quote k ^ ": ", x)) kvs)
  | leaf -> Json.to_string leaf

and block pad l r items =
  let inner = pad ^ "  " in
  let parts = List.map (fun (k, x) -> k ^ layout inner x) items in
  let flat = l ^ String.concat ", " parts ^ r in
  if String.length pad + String.length flat <= 100
     && not (String.contains flat '\n')
  then flat
  else l ^ "\n" ^ inner ^ String.concat (",\n" ^ inner) parts ^ "\n" ^ pad ^ r

let write ~experiment fields =
  let header =
    [
      ("experiment", Json.Str experiment);
      ("mode", Json.Str (if !full_mode then "full" else "quick"));
      ("time_cap_seconds", num (cap ()));
      ("parallelism", int parallelism);
      ("cores", int (Domain.recommended_domain_count ()));
    ]
  in
  let file = Printf.sprintf "BENCH_%s.json" experiment in
  let oc = open_out file in
  output_string oc (layout "" (Json.Obj (header @ fields)) ^ "\n");
  close_out oc;
  print_endline ("wrote " ^ file)
