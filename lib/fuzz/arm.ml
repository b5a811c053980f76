module Solver = Mm_lp.Solver
module Config = Mm_lp.Config

type t = { name : string; config : Config.t; warm : bool }
type cuts_mode = Full | Off | Baseline

(* The arm's name spells out its configuration:
   [j<parallelism>-<cuts>[-warm][-slu|-dlu]]. *)
let mk ?(lu_kernel = Config.default.lu_kernel) parallelism cuts warm =
  let name =
    Printf.sprintf "j%d-%s%s%s" parallelism
      (match cuts with
      | Full -> "full"
      | Off -> "nocuts"
      | Baseline -> "baseline")
      (if warm then "-warm" else "")
      (match lu_kernel with
      | Mm_lp.Lu.Auto -> ""
      | Mm_lp.Lu.Sparse -> "-slu"
      | Mm_lp.Lu.Dense -> "-dlu")
  in
  let config =
    match cuts with
    | Full -> Config.make ~parallelism ~lu_kernel ()
    | Off -> Config.make ~cuts:false ~parallelism ~lu_kernel ()
    | Baseline -> Solver.baseline_options ~parallelism ~lu_kernel ()
  in
  { name; config; warm }

let reference = mk 1 Full false

let matrix =
  [
    mk 2 Full false;
    mk 4 Full false;
    mk 1 Off false;
    mk 4 Off false;
    mk 1 Baseline false;
    mk 2 Baseline false;
    mk 1 Full true;
    mk 2 Full true;
    (* fuzz instances sit far below the Auto size floor, so the Auto
       arms all run dense sweeps; the forced-Sparse [-slu] arms are
       what actually drags the hypersparse path through the campaign,
       and the forced-Dense [-dlu] arms pin the baseline. *)
    mk ~lu_kernel:Mm_lp.Lu.Sparse 1 Full false;
    mk ~lu_kernel:Mm_lp.Lu.Sparse 2 Full false;
    mk ~lu_kernel:Mm_lp.Lu.Dense 1 Off false;
    mk ~lu_kernel:Mm_lp.Lu.Dense 1 Full true;
  ]

let solve ?time_limit t p =
  let options = { t.config with Config.time_limit } in
  if not t.warm then Solver.solve ~options p
  else begin
    (* first solve trains the state, the reported result is the
       warm-started repeat — the mapping service's hot path *)
    let warm = Solver.warm () in
    ignore (Solver.solve ~options ~warm p);
    Solver.solve ~options ~warm p
  end
