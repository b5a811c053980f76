open Mm_util

let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; 2026 |])
    (QCheck.Test.make ~count ~name gen prop)

(* --- Ints ---------------------------------------------------------------- *)

let test_ceil_div () =
  Alcotest.(check int) "7/2" 4 (Ints.ceil_div 7 2);
  Alcotest.(check int) "8/2" 4 (Ints.ceil_div 8 2);
  Alcotest.(check int) "0/5" 0 (Ints.ceil_div 0 5);
  Alcotest.(check int) "1/5" 1 (Ints.ceil_div 1 5);
  Alcotest.check_raises "negative" (Invalid_argument "Ints.ceil_div") (fun () ->
      ignore (Ints.ceil_div (-1) 2))

let test_pow2 () =
  Alcotest.(check bool) "4 is pow2" true (Ints.is_pow2 4);
  Alcotest.(check bool) "6 not pow2" false (Ints.is_pow2 6);
  Alcotest.(check bool) "0 not pow2" false (Ints.is_pow2 0);
  Alcotest.(check bool) "neg not pow2" false (Ints.is_pow2 (-4));
  Alcotest.(check int) "ceil 0" 1 (Ints.ceil_pow2 0);
  Alcotest.(check int) "ceil 1" 1 (Ints.ceil_pow2 1);
  Alcotest.(check int) "ceil 5" 8 (Ints.ceil_pow2 5);
  Alcotest.(check int) "ceil 8" 8 (Ints.ceil_pow2 8);
  Alcotest.(check int) "floor 5" 4 (Ints.floor_pow2 5);
  Alcotest.(check int) "floor 8" 8 (Ints.floor_pow2 8)

let test_ilog2 () =
  Alcotest.(check int) "floor 1" 0 (Ints.ilog2_floor 1);
  Alcotest.(check int) "floor 7" 2 (Ints.ilog2_floor 7);
  Alcotest.(check int) "ceil 7" 3 (Ints.ilog2_ceil 7);
  Alcotest.(check int) "ceil 8" 3 (Ints.ilog2_ceil 8);
  Alcotest.(check int) "ceil 9" 4 (Ints.ilog2_ceil 9)

let test_sums () =
  Alcotest.(check int) "sum" 6 (Ints.sum [ 1; 2; 3 ]);
  Alcotest.(check int) "sum_by" 12 (Ints.sum_by (fun x -> 2 * x) [ 1; 2; 3 ]);
  Alcotest.(check int) "max_by empty" 0 (Ints.max_by Fun.id []);
  Alcotest.(check int) "max_by" 9 (Ints.max_by (fun x -> x * x) [ 1; -3; 2 ]);
  Alcotest.(check (list int)) "range" [ 0; 1; 2 ] (Ints.range 3)

let test_checked () =
  Alcotest.(check int) "mul ok" 12 (Ints.checked_mul 3 4);
  Alcotest.(check int) "mul zero" 0 (Ints.checked_mul 0 max_int);
  Alcotest.check_raises "mul overflow" (Failure "Ints.checked_mul: overflow")
    (fun () -> ignore (Ints.checked_mul max_int 2));
  Alcotest.check_raises "add overflow" (Failure "Ints.checked_add: overflow")
    (fun () -> ignore (Ints.checked_add max_int 1));
  Alcotest.(check int) "add mixed" 1 (Ints.checked_add 2 (-1))

let test_ceil_pow2_huge () =
  (* 2^61 is the largest representable power of two on a 64-bit int;
     anything above it used to spin forever on signed overflow *)
  let top = 1 lsl 61 in
  Alcotest.(check int) "2^61 is its own ceiling" top (Ints.ceil_pow2 top);
  Alcotest.check_raises "2^61 + 1 overflows"
    (Invalid_argument
       "Ints.ceil_pow2: no representable power of two >= n")
    (fun () -> ignore (Ints.ceil_pow2 (top + 1)));
  Alcotest.check_raises "max_int overflows"
    (Invalid_argument
       "Ints.ceil_pow2: no representable power of two >= n")
    (fun () -> ignore (Ints.ceil_pow2 max_int))

let prop_ceil_pow2 =
  qtest "ceil_pow2 is the least power of two >= n"
    QCheck.(int_range 1 (1 lsl 40))
    (fun n ->
      let p = Ints.ceil_pow2 n in
      Ints.is_pow2 p && p >= n && (p = 1 || p / 2 < n))

let prop_ceil_div =
  qtest "ceil_div matches float ceiling"
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 999))
    (fun (a, b) ->
      Ints.ceil_div a b = int_of_float (Float.ceil (float_of_int a /. float_of_int b)))

(* --- Prng ---------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let child = Prng.split a in
  let c1 = List.init 10 (fun _ -> Prng.int child 1000) in
  let a2 = Prng.create 7 in
  let child2 = Prng.split a2 in
  let c2 = List.init 10 (fun _ -> Prng.int child2 1000) in
  Alcotest.(check (list int)) "split deterministic" c1 c2

let test_prng_bounds () =
  let r = Prng.create 42 in
  for _ = 1 to 1000 do
    let v = Prng.int_in r (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty list")
    (fun () -> ignore (Prng.pick r []))

let test_prng_shuffle () =
  let r = Prng.create 11 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let prop_prng_nonneg =
  qtest "int is within [0, bound)" QCheck.(int_range 1 1_000_000) (fun bound ->
      let r = Prng.create bound in
      let v = Prng.int r bound in
      v >= 0 && v < bound)

(* --- Heap ---------------------------------------------------------------- *)

let test_heap_order () =
  let h = Heap.create float_of_int in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ] (drain [])

let test_heap_empty () =
  let h = Heap.create float_of_int in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop none" None (Heap.pop h);
  Alcotest.(check (option int)) "peek none" None (Heap.peek h)

let test_heap_filter () =
  let h = Heap.create float_of_int in
  List.iter (Heap.push h) [ 1; 2; 3; 4; 5 ];
  Heap.filter_in_place h (fun x -> x mod 2 = 0);
  Alcotest.(check int) "size" 2 (Heap.size h);
  Alcotest.(check (option int)) "min" (Some 2) (Heap.pop h)

let prop_heap_sorted =
  qtest "heap drains in sorted order"
    QCheck.(list (int_range (-1000) 1000))
    (fun xs ->
      let h = Heap.create float_of_int in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)


let test_prng_copy_independent () =
  let a = Prng.create 3 in
  ignore (Prng.int a 10);
  let b = Prng.copy a in
  let va = Prng.int a 1000 and vb = Prng.int b 1000 in
  Alcotest.(check int) "copies continue identically" va vb

let test_heap_min_priority () =
  let h = Heap.create float_of_int in
  Alcotest.(check (option (float 0.0))) "empty" None (Heap.min_priority h);
  Heap.push h 9;
  Heap.push h 2;
  Alcotest.(check (option (float 0.0))) "min" (Some 2.0) (Heap.min_priority h);
  Alcotest.(check (list int)) "to_list has both" [ 2; 9 ]
    (List.sort compare (Heap.to_list h))

(* --- Table & Ascii_plot -------------------------------------------------- *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true (contains_substring s "name");
  Alcotest.(check bool) "contains row" true (contains_substring s "alpha");
  (* all lines of the box have equal width *)
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  let widths = List.sort_uniq compare (List.map String.length lines) in
  Alcotest.(check int) "rectangular" 1 (List.length widths)

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_plot () =
  let s =
    Ascii_plot.render
      [
        { Ascii_plot.label = "a"; glyph = '*'; points = [ (0., 0.); (1., 10.) ] };
        { Ascii_plot.label = "b"; glyph = '+'; points = [ (0., 5.); (1., 5.) ] };
      ]
  in
  Alcotest.(check bool) "has glyphs" true
    (String.contains s '*' && String.contains s '+')

let () =
  Alcotest.run "mm_util"
    [
      ( "ints",
        [
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "pow2" `Quick test_pow2;
          Alcotest.test_case "ilog2" `Quick test_ilog2;
          Alcotest.test_case "sums" `Quick test_sums;
          Alcotest.test_case "checked" `Quick test_checked;
          Alcotest.test_case "ceil_pow2 huge" `Quick test_ceil_pow2_huge;
          prop_ceil_pow2;
          prop_ceil_div;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle;
          prop_prng_nonneg;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "filter" `Quick test_heap_filter;
          prop_heap_sorted;
          Alcotest.test_case "min priority" `Quick test_heap_min_priority;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "table arity" `Quick test_table_arity;
          Alcotest.test_case "plot" `Quick test_plot;
        ] );
    ]
