(* Host-speed reference.

   The benchmark's hosts are shared virtual machines whose CPU speed
   drifts by up to 1.8x within a minute, in periods of several seconds,
   and the same drift moves every timing in a run. So the benchmark
   times a fixed unit of work of its own between the measured calls and
   reports each timing scaled to a host on which that unit takes
   [nominal_s]: [adjusted = raw *. nominal_s /. reference], with
   [reference] the median unit time sampled around the timed interval.
   The unit is benchmark code that no change to the program touches; it
   mixes what the mapper does: floating-point elimination on a small
   dense matrix, hashing and sorting. Raw seconds stay in the record
   beside the adjusted ones. *)

let nominal_s = 0.010

(* The unit's buffers are allocated once: [work] itself allocates
   nothing, so sampling the host never moves the heap, the collector or
   the peak resident set of the run it measures. *)
let n = 40
let matrix = Array.make_matrix n n 0.0
let table = Array.make 8192 (-1)
let keys = Array.make 6000 0

let work () =
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      matrix.(i).(j) <-
        float_of_int (((i * 31) + (j * 17)) mod 97) +. if i = j then 1000.0 else 0.0
    done
  done;
  for k = 0 to n - 1 do
    for i = k + 1 to n - 1 do
      let f = matrix.(i).(k) /. matrix.(k).(k) in
      for j = k to n - 1 do
        matrix.(i).(j) <- matrix.(i).(j) -. (f *. matrix.(k).(j))
      done
    done
  done;
  Array.fill table 0 (Array.length table) (-1);
  for i = 0 to Array.length keys - 1 do
    let key = i * 7919 mod 10007 in
    let slot = ref (key * 40503 land (Array.length table - 1)) in
    while table.(!slot) >= 0 && table.(!slot) <> key do
      slot := (!slot + 1) land (Array.length table - 1)
    done;
    table.(!slot) <- key
  done;
  for i = 0 to Array.length keys - 1 do
    keys.(i) <- i * 104729 mod 65521
  done;
  (* shell sort: [Array.sort] allocates as it goes *)
  let gap = ref (Array.length keys / 2) in
  while !gap > 0 do
    for i = !gap to Array.length keys - 1 do
      let x = keys.(i) in
      let j = ref i in
      while !j >= !gap && keys.(!j - !gap) > x do
        keys.(!j) <- keys.(!j - !gap);
        j := !j - !gap
      done;
      keys.(!j) <- x
    done;
    gap := !gap / 2
  done

(* (end time, seconds of one unit), newest first *)
let samples : (float * float) list ref = ref []

(* One unit is eight rounds of [work], about 9 ms on a 2-core x86-64
   host. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 8 do
    work ()
  done;
  let t1 = Unix.gettimeofday () in
  samples := (t1, t1 -. t0) :: !samples

(* Reference unit time around [t0, t1]: the median of the samples taken
   within half a second of the interval, else of the nearest one. *)
let around ~t0 ~t1 =
  match List.filter (fun (t, _) -> t >= t0 -. 0.5 && t <= t1 +. 0.5) !samples with
  | [] -> (
      let dist (t, _) = Float.min (Float.abs (t -. t0)) (Float.abs (t -. t1)) in
      match List.sort (fun a b -> Float.compare (dist a) (dist b)) !samples with
      | (_, d) :: _ -> d
      | [] -> nominal_s)
  | near -> Stats.median (List.map snd near)

let adjust ~t0 ~t1 raw = raw *. nominal_s /. around ~t0 ~t1

(* The host's speed relative to nominal from three fresh samples: below
   1 while the host is slow. *)
let speed () =
  let fresh =
    List.init 3 (fun _ ->
        sample ();
        snd (List.hd !samples))
  in
  nominal_s /. Stats.median fresh

let median_ms () = 1000.0 *. Stats.median (List.map snd !samples)
