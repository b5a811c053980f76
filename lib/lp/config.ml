module J = Mm_obs.Json

type t = {
  presolve : bool;
  cuts : bool;
  cut_rounds : int;
  max_cuts_per_round : int;
  cut_max_age : int;
  separators : string list;
  heuristics : bool;
  parallelism : int;
  lu_kernel : Lu.kernel;
  time_limit : float option;
  node_limit : int option;
  gap_tol : float;
  int_tol : float;
  log_every : int option;
  node_cut_depth : int;
  node_cut_freq : int;
}

let default =
  {
    presolve = true;
    cuts = true;
    cut_rounds = 3;
    max_cuts_per_round = 50;
    cut_max_age = 8;
    separators = [ "cover"; "lcover"; "gmi" ];
    heuristics = true;
    parallelism = 1;
    lu_kernel = Lu.Auto;
    time_limit = None;
    node_limit = None;
    gap_tol = 1e-9;
    int_tol = 1e-6;
    log_every = None;
    node_cut_depth = 2;
    node_cut_freq = 4;
  }

let make ?(presolve = default.presolve) ?(cuts = default.cuts)
    ?(cut_rounds = default.cut_rounds)
    ?(max_cuts_per_round = default.max_cuts_per_round)
    ?(cut_max_age = default.cut_max_age) ?(separators = default.separators)
    ?(heuristics = default.heuristics) ?(parallelism = default.parallelism)
    ?(lu_kernel = default.lu_kernel) ?time_limit ?node_limit
    ?(gap_tol = default.gap_tol) ?(int_tol = default.int_tol) ?log_every
    ?(node_cut_depth = default.node_cut_depth)
    ?(node_cut_freq = default.node_cut_freq) () =
  let or_default o d = match o with Some _ -> o | None -> d in
  {
    presolve;
    cuts;
    cut_rounds;
    max_cuts_per_round;
    cut_max_age;
    separators;
    heuristics;
    parallelism;
    lu_kernel;
    time_limit = or_default time_limit default.time_limit;
    node_limit = or_default node_limit default.node_limit;
    gap_tol;
    int_tol;
    log_every = or_default log_every default.log_every;
    node_cut_depth;
    node_cut_freq;
  }

let max_parallelism = 64

let separator_modules c =
  List.map
    (fun name ->
      match Separator.of_string name with
      | Some s -> s
      | None -> invalid_arg ("Config: unknown separator " ^ name))
    c.separators

(* ---- the field table ---------------------------------------------------- *)

(* One entry per field: its wire key, whether it keys the warm cache,
   its JSON encoding, a validating decoder (given the record decoded so
   far and the field's present value) and, for fields the CLI echoes,
   a label and rendering of the whole record. *)
type field = {
  key : string;
  fingerprinted : bool;
  encode : t -> J.t;
  decode : t -> J.t -> (t, string) result;
  echo : (string * (t -> string)) option;
}

let bad key = Error (Printf.sprintf "bad %s field" key)

(* JSON numbers are floats; only integers a double holds exactly are
   ints (a larger one would wrap through [int_of_float]) *)
let int_value = function
  | J.Num v when Float.is_integer v && Float.abs v <= 0x1p53 ->
      Some (int_of_float v)
  | _ -> None

let num n = J.Num (float_of_int n)

let int_where ok j =
  Option.bind (int_value j) (fun n -> if ok n then Some n else None)

let ranged key ~lo ~hi n =
  if n < lo then Error (Printf.sprintf "bad %s field: %d below %d" key n lo)
  else if n > hi then
    Error (Printf.sprintf "bad %s field: %d above %d" key n hi)
  else Ok n

let field ?(fingerprinted = true) ?echo key encode decode =
  { key; fingerprinted; encode; decode; echo }

let int_field ?echo ?(hi = max_int) key ~lo get set =
  field key
    (fun c -> num (get c))
    (fun c j ->
      match int_value j with
      | None -> bad key
      | Some n -> Result.map (set c) (ranged key ~lo ~hi n))
    ?echo:
      (Option.map (fun label -> (label, fun c -> string_of_int (get c))) echo)

(* [null] keeps the default, like an absent key *)
let bool_field ?echo key get set =
  field key
    (fun c -> J.Bool (get c))
    (fun c -> function
      | J.Null -> Ok c | J.Bool b -> Ok (set c b) | _ -> bad key)
    ?echo:
      (Option.map
         (fun label -> (label, fun c -> if get c then "on" else "off"))
         echo)

(* named variants: [null] keeps the default, an unknown name is its own
   error *)
let enum_field ~echo key to_string of_string get set =
  field key
    (fun c -> J.Str (to_string (get c)))
    (fun c -> function
      | J.Null -> Ok c
      | J.Str s -> (
          match of_string s with
          | Some v -> Ok (set c v)
          | None -> Error (Printf.sprintf "unknown %s %S" key s))
      | _ -> bad key)
    ~echo:(echo, fun c -> to_string (get c))

(* optional limits: [null] is "no limit" *)
let opt_field ?fingerprinted key encode value get set =
  field ?fingerprinted key
    (fun c -> match get c with None -> J.Null | Some v -> encode v)
    (fun c -> function
      | J.Null -> Ok (set c None)
      | j -> (
          match value j with Some v -> Ok (set c (Some v)) | None -> bad key))

let float_field key ok get set =
  field key
    (fun c -> J.Num (get c))
    (fun c j ->
      match J.to_float j with
      | Some v when ok v -> Ok (set c v)
      | _ -> bad key)

(* Table order is the echo line's order; JSON objects are unordered. *)
let fields =
  [
    (* the "cuts" echo renders the families the master switch gates *)
    {
      (bool_field "cuts" (fun c -> c.cuts) (fun c cuts -> { c with cuts })) with
      echo =
        Some
          ( "cuts",
            fun c ->
              if not c.cuts then "off"
              else if c.separators = [] then "none"
              else String.concat "+" c.separators );
    };
    field "separators"
      (fun c -> J.List (List.map (fun s -> J.Str s) c.separators))
      (fun c -> function
        | J.List xs ->
            List.fold_right
              (fun x acc ->
                Result.bind acc (fun names ->
                    match x with
                    | J.Str s when Separator.of_string s <> None ->
                        Ok (s :: names)
                    | J.Str s -> Error (Printf.sprintf "unknown separator %S" s)
                    | _ -> bad "separators"))
              xs (Ok [])
            |> Result.map (fun separators -> { c with separators })
        | _ -> bad "separators");
    int_field "cut_rounds" ~lo:0
      (fun c -> c.cut_rounds)
      (fun c cut_rounds -> { c with cut_rounds })
      ~echo:"rounds";
    int_field "max_cuts_per_round" ~lo:0
      (fun c -> c.max_cuts_per_round)
      (fun c max_cuts_per_round -> { c with max_cuts_per_round })
      ~echo:"max/round";
    (* [max_int] (no aging) travels as "inf": it has no exact double *)
    field "cut_max_age"
      (fun c ->
        if c.cut_max_age = max_int then J.Str "inf" else num c.cut_max_age)
      (fun c -> function
        | J.Str "inf" -> Ok { c with cut_max_age = max_int }
        | j -> (
            match int_value j with
            | None -> bad "cut_max_age"
            | Some n ->
                Result.map
                  (fun cut_max_age -> { c with cut_max_age })
                  (ranged "cut_max_age" ~lo:0 ~hi:max_int n)))
      ~echo:
        ( "max-age",
          fun c ->
            if c.cut_max_age = max_int then "inf"
            else string_of_int c.cut_max_age );
    int_field "node_cut_depth" ~lo:0
      (fun c -> c.node_cut_depth)
      (fun c node_cut_depth -> { c with node_cut_depth })
      ~echo:"node-depth";
    int_field "node_cut_freq" ~lo:1
      (fun c -> c.node_cut_freq)
      (fun c node_cut_freq -> { c with node_cut_freq })
      ~echo:"node-freq";
    bool_field "heuristics"
      (fun c -> c.heuristics)
      (fun c heuristics -> { c with heuristics })
      ~echo:"heuristics";
    enum_field "lu_kernel" ~echo:"lu-kernel" Lu.kernel_to_string
      Lu.kernel_of_string
      (fun c -> c.lu_kernel)
      (fun c lu_kernel -> { c with lu_kernel });
    int_field "parallelism" ~lo:0 ~hi:max_parallelism
      (fun c -> c.parallelism)
      (fun c parallelism -> { c with parallelism })
      ~echo:"parallelism";
    bool_field "presolve"
      (fun c -> c.presolve)
      (fun c presolve -> { c with presolve });
    opt_field ~fingerprinted:false "time_limit"
      (fun tl -> J.Num tl)
      (fun j ->
        Option.bind (J.to_float j) (fun tl ->
            if tl > 0.0 && Float.is_finite tl then Some tl else None))
      (fun c -> c.time_limit)
      (fun c time_limit -> { c with time_limit });
    opt_field "node_limit" num
      (int_where (fun n -> n >= 0))
      (fun c -> c.node_limit)
      (fun c node_limit -> { c with node_limit });
    float_field "gap_tol"
      (fun g -> g >= 0.0 && g <= 1.0)
      (fun c -> c.gap_tol)
      (fun c gap_tol -> { c with gap_tol });
    (* a looser integrality test would let fractional points decode as
       assignments *)
    float_field "int_tol"
      (fun e -> e > 0.0 && e <= 1e-3)
      (fun c -> c.int_tol)
      (fun c int_tol -> { c with int_tol });
    opt_field ~fingerprinted:false "log_every" num
      (int_where (fun n -> n > 0))
      (fun c -> c.log_every)
      (fun c log_every -> { c with log_every });
  ]

let to_json c = J.Obj (List.map (fun f -> (f.key, f.encode c)) fields)

let of_json j =
  let unknown (k, _) = not (List.exists (fun f -> f.key = k) fields) in
  match j with
  | J.Obj kvs when List.exists unknown kvs ->
      Error (Printf.sprintf "unknown field %S" (fst (List.find unknown kvs)))
  | _ ->
      List.fold_left
        (fun acc f ->
          Result.bind acc (fun c ->
              match J.member f.key j with
              | None -> Ok c
              | Some v -> f.decode c v))
        (Ok default) fields

let check c = Result.map (fun _ -> c) (of_json (to_json c))

let fingerprint_string c =
  String.concat ";"
    (List.filter_map
       (fun f ->
         if f.fingerprinted then Some (f.key ^ "=" ^ J.to_string (f.encode c))
         else None)
       fields)

let echo c =
  "Solver config: "
  ^ String.concat " "
      (List.filter_map
         (fun f ->
           Option.map (fun (label, show) -> label ^ "=" ^ show c) f.echo)
         fields)
