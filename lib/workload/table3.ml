type point = {
  spec : Gen.spec;
  paper_complete_seconds : float;
  paper_global_seconds : float;
}

(* Seeds are pinned per point to the values the historical
   [1000 + segments + banks] formula produced, so the boards/designs —
   and the BENCH_table3.json baselines recorded against them — regenerate
   bit-identically. That formula collided for distinct points with equal
   sums; new specs should derive seeds via [Gen.make], which mixes all
   four fields. *)
let mk segments banks ports configs ~seed complete global =
  {
    spec = { Gen.segments; banks; ports; configs; seed };
    paper_complete_seconds = complete;
    paper_global_seconds = global;
  }

let points =
  [
    mk 22 13 25 50 ~seed:1035 8.1 7.8;
    mk 32 23 45 100 ~seed:1055 29.4 25.3;
    mk 32 45 77 150 ~seed:1077 99.3 50.7;
    mk 42 45 77 150 ~seed:1087 130.4 59.2;
    mk 32 65 105 150 ~seed:1097 172.7 105.1;
    mk 62 65 105 150 ~seed:1127 411.0 140.4;
    mk 32 180 265 375 ~seed:1212 518.3 216.4;
    mk 62 180 265 375 ~seed:1242 1225.0 309.0;
    mk 132 180 265 375 ~seed:1312 2989.0 489.0;
  ]

let pp_header () =
  "#segments | #banks #ports #configs | complete(s) global(s) [paper: complete global]"
