type method_ = Global_detailed | Complete_flat
type detailed_engine = Greedy | Ilp

type options = {
  weights : Cost.weights;
  access_model : Cost.access_model;
  port_model : Preprocess.port_model;
  arbitration : bool;
  solver_options : Mm_lp.Config.t;
  max_retries : int;
  allow_overlap : bool;
  detailed : detailed_engine;
  trace : Mm_obs.Trace.t;
}

let default_options =
  {
    weights = Cost.default_weights;
    access_model = Cost.Uniform;
    port_model = Preprocess.Fig3;
    arbitration = false;
    solver_options = Mm_lp.Config.default;
    max_retries = 5;
    allow_overlap = true;
    detailed = Greedy;
    trace = Mm_obs.Trace.disabled;
  }

let options ?(weights = default_options.weights)
    ?(access_model = default_options.access_model)
    ?(port_model = default_options.port_model)
    ?(arbitration = default_options.arbitration)
    ?(solver_options = default_options.solver_options)
    ?(trace = default_options.trace)
    ?(max_retries = default_options.max_retries)
    ?(allow_overlap = default_options.allow_overlap)
    ?(detailed = default_options.detailed) () =
  {
    weights;
    access_model;
    port_model;
    arbitration;
    solver_options;
    max_retries;
    allow_overlap;
    detailed;
    trace;
  }

type attempt = {
  index : int;
  ilp_status : Mm_lp.Branch_bound.status;
  ilp_objective : float option;
  ilp_nodes : int;
  ilp_seconds : float;
  detailed_failure : string option;
}

type outcome = {
  method_ : method_;
  assignment : Global_ilp.assignment;
  mapping : Detailed.t;
  objective : float;
  retries : int;
  attempts : attempt list;
  ilp_seconds : float;
  detailed_seconds : float;
  total_seconds : float;
  ilp_result : Mm_lp.Solver.result;
}

type error =
  | Unmappable of string
  | Retries_exhausted of int
  | Solver_limit

let error_to_string = function
  | Unmappable msg -> Printf.sprintf "unmappable: %s" msg
  | Retries_exhausted n -> Printf.sprintf "detailed mapping failed after %d retries" n
  | Solver_limit -> "ILP solver hit its budget before finding an assignment"

let formulation : method_ -> Formulation.assignment Formulation.t = function
  | Global_detailed -> (module Global_ilp.F)
  | Complete_flat -> (module Complete_ilp.F)

let run_detailed options board design assignment =
  match options.detailed with
  | Greedy ->
      Detailed.run ~port_model:options.port_model
        ~allow_overlap:options.allow_overlap
        ~allow_port_sharing:options.arbitration
        ~trace:(Mm_obs.Trace.root options.trace) board design assignment
  | Ilp -> (
      match
        Detailed_ilp.run ~trace:options.trace
          ~options:
            (Detailed_ilp.options ~solver_options:options.solver_options
               ~port_model:options.port_model ())
          board design assignment
      with
      | Ok t -> Ok t
      | Error _ ->
          (* the ILP placer has no overlap support; the greedy placer is
             strictly more permissive, so fall back before giving up *)
          Detailed.run ~port_model:options.port_model
            ~allow_overlap:options.allow_overlap
            ~allow_port_sharing:options.arbitration board design assignment)

let run ?(method_ = Global_detailed) ?(options = default_options) ?warm board
    design =
  let snk = Mm_obs.Trace.root options.trace in
  let t0 = Unix.gettimeofday () in
  let ilp_seconds = ref 0.0 and detailed_seconds = ref 0.0 in
  let attempts = ref [] in
  let record_attempt ~index ~(stats : Formulation.stats) ~detailed_failure =
    let mip = stats.Formulation.ilp.Mm_lp.Solver.mip in
    attempts :=
      {
        index;
        ilp_status = mip.Mm_lp.Branch_bound.status;
        ilp_objective = mip.Mm_lp.Branch_bound.objective;
        ilp_nodes = mip.Mm_lp.Branch_bound.nodes;
        ilp_seconds =
          stats.Formulation.build_seconds +. stats.Formulation.solve_seconds;
        detailed_failure;
      }
      :: !attempts
  in
  let finish ~retries ~assignment ~mapping ~ilp_result =
    let objective =
      Global_ilp.assignment_cost ~weights:options.weights
        ~access_model:options.access_model ~port_model:options.port_model
        board design assignment
    in
    Ok
      {
        method_;
        assignment;
        mapping;
        objective;
        retries;
        attempts = List.rev !attempts;
        ilp_seconds = !ilp_seconds;
        detailed_seconds = !detailed_seconds;
        total_seconds = Unix.gettimeofday () -. t0;
        ilp_result;
      }
  in
  let fm = formulation method_ in
  let module F = (val fm) in
  let rec attempt retries forbidden =
    if retries > options.max_retries then Error (Retries_exhausted retries)
    else
      let ctx =
        Formulation.ctx ~weights:options.weights
          ~access_model:options.access_model ~port_model:options.port_model
          ~arbitration:options.arbitration ~forbidden board design
      in
      (* warm-start state is only valid on the first attempt's problem:
         no-good cut rows on retries change the ILP, and training the
         cache on a cut-extended problem would poison every later
         request for the same board/design *)
      let warm = if retries = 0 then warm else None in
      match
        Mm_obs.Trace.span snk "ilp" (fun () ->
            Formulation.solve fm ~trace:options.trace
              ~solver_options:options.solver_options ?warm ctx)
      with
      | Error (Formulation.Build_failed msg, _) -> Error (Unmappable msg)
      | Error (Formulation.Ilp_infeasible, _) ->
          if forbidden = [] then
            Error (Unmappable (F.name ^ " ILP infeasible"))
          else Error (Retries_exhausted retries)
      | Error (Formulation.Ilp_limit, _) -> Error Solver_limit
      | Ok (assignment, stats) -> (
          ilp_seconds :=
            !ilp_seconds +. stats.Formulation.build_seconds
            +. stats.Formulation.solve_seconds;
          let td = Unix.gettimeofday () in
          match
            Mm_obs.Trace.span snk "detailed" (fun () ->
                run_detailed options board design assignment)
          with
          | Ok mapping ->
              detailed_seconds :=
                !detailed_seconds +. (Unix.gettimeofday () -. td);
              record_attempt ~index:retries ~stats ~detailed_failure:None;
              finish ~retries ~assignment ~mapping
                ~ilp_result:stats.Formulation.ilp
          | Error f ->
              detailed_seconds :=
                !detailed_seconds +. (Unix.gettimeofday () -. td);
              record_attempt ~index:retries ~stats
                ~detailed_failure:(Some f.Detailed.reason);
              if F.supports_forbidden then
                attempt (retries + 1) (assignment :: forbidden)
              else
                Error
                  (Unmappable
                     (Printf.sprintf "flat solution not placeable: %s"
                        f.Detailed.reason)))
  in
  attempt 0 []
