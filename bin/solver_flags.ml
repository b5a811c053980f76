(* The one Cmdliner spec for the MIP-solver knobs, shared by [solve],
   [solve-mps] and [serve] (where it sets the daemon's default knobs).
   Evaluates to an [Mm_lp.Config.t], validated by the same checks the
   service applies to a request's [knobs] object; every flag default is
   read from [Mm_lp.Config.default]. *)

open Cmdliner

let default = Mm_lp.Config.default

let time_limit_arg =
  Arg.(value
       & opt (some float) default.time_limit
       & info [ "time-limit" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget for each ILP solve.")

let parallelism_arg =
  Arg.(value
       & opt int default.parallelism
       & info [ "j"; "parallelism" ] ~docv:"N"
         ~doc:"Worker domains for the branch-and-bound tree search. \
               $(b,1) (default) is the deterministic serial schedule; \
               $(b,0) uses all available cores. Any value proves the \
               same optimal objective.")

let lu_kernel_arg =
  Arg.(value
       & opt (enum
              [
                ("auto", Mm_lp.Lu.Auto);
                ("sparse", Mm_lp.Lu.Sparse);
                ("dense", Mm_lp.Lu.Dense);
              ])
           default.lu_kernel
       & info [ "lu-kernel" ]
           ~doc:"FTRAN/BTRAN triangular-solve kernel: $(b,auto) (default; \
                 hypersparse symbolic-reachability solves on bases large \
                 enough to profit, dense sweeps otherwise), $(b,sparse) \
                 (hypersparse whenever the operand is sparse enough, \
                 regardless of basis size) or $(b,dense) \
                 (plain dense sweeps). Both follow the identical pivot \
                 trajectory.")

let cut_rounds_arg =
  Arg.(value & opt int default.cut_rounds & info [ "cut-rounds" ] ~docv:"N"
         ~doc:"Root cutting-plane separation rounds ($(b,0) keeps the \
               solver cut-free at the root; node cuts may still fire).")

let max_cuts_arg =
  Arg.(value & opt int default.max_cuts_per_round
       & info [ "max-cuts-per-round" ] ~docv:"N"
         ~doc:"Cap on cuts accepted per separation round.")

let no_cuts_arg =
  Arg.(value & flag & info [ "no-cuts" ]
         ~doc:"Disable cutting planes entirely (root and node).")

let no_heuristics_arg =
  Arg.(value & flag & info [ "no-heuristics" ]
         ~doc:"Disable the GUB diving heuristic that seeds the incumbent \
               before the tree search.")

let term : Mm_lp.Config.t Term.t =
  let make time_limit parallelism lu_kernel cut_rounds
      max_cuts_per_round no_cuts no_heuristics =
    Result.map_error
      (fun e -> `Msg ("solver flags: " ^ e))
      (Mm_lp.Config.check
         (Mm_lp.Config.make ~parallelism ~lu_kernel
            ~cuts:(not no_cuts) ~cut_rounds ~max_cuts_per_round
            ~heuristics:(not no_heuristics) ?time_limit ()))
  in
  Term.(
    term_result
      (const make $ time_limit_arg $ parallelism_arg $ lu_kernel_arg
      $ cut_rounds_arg $ max_cuts_arg $ no_cuts_arg $ no_heuristics_arg))

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a structured trace (JSONL) to $(docv); inspect it \
               with $(b,mmap trace-summary).")
