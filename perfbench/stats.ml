(* Order statistics over samples, and percentiles read off the
   log2-bucketed histograms the daemon's trace records. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [q] in [0, 1]. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> Float.nan | _ -> sum xs /. float_of_int (List.length xs)

(* Percentile of a merged histogram given as (upper bound, count)
   buckets, interpolated geometrically inside the bucket that holds the
   rank: a log2 bucket spans (upper/2, upper]. *)
let hist_percentile buckets q =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ub, c) ->
      Hashtbl.replace tbl ub (c + Option.value ~default:0 (Hashtbl.find_opt tbl ub)))
    buckets;
  let bs = List.sort compare (Hashtbl.fold (fun ub c acc -> (ub, c) :: acc) tbl []) in
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 bs in
  if n = 0 then Float.nan
  else
    let rank = q *. float_of_int n in
    let rec walk seen = function
      | [] -> Float.nan
      | (ub, c) :: rest ->
          let seen' = seen + c in
          if float_of_int seen' >= rank then
            let frac = (rank -. float_of_int seen) /. float_of_int (max c 1) in
            ub /. 2.0 *. Float.pow 2.0 (Float.max 0.0 (Float.min 1.0 frac))
          else walk seen' rest
    in
    walk 0 bs

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Peak resident set (VmHWM) of a process, in MB, from /proc. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r
