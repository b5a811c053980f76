(* Bounded-variable revised simplex over a sparse LU factorization.

   Variables 0..n-1 are the structural columns of the problem; variables
   n..n+m-1 are row slacks with column -e_r, so that every constraint
   reads  A x - s = 0  with  row_lb <= s <= row_ub.

   [loc.(v)] encodes where variable [v] lives:
     k >= 0  basic, at basis position k;
     -1      nonbasic at lower bound;
     -2      nonbasic at upper bound;
     -3      nonbasic free (held at value 0).

   The basis is held as a sparse LU factorization (Markowitz pivoting,
   see {!Lu}) with product-form eta updates absorbed between
   refactorizations; ftran/btran replace the former dense basis-inverse
   row operations. Phase I is the composite (artificial-free) method:
   basic variables outside their bounds get cost +/-1 and the same
   pivoting machinery drives the total infeasibility to zero. Infeasible
   basics are blocked at their violated bound during the ratio test, so
   infeasibility is non-increasing and no new infeasibilities are
   created.

   Pricing is Devex reference-framework pricing over a rotating
   candidate-list window: each iteration scans only the window of
   nonbasic columns, scoring d^2/w with per-column reference weights
   updated on every basis change, and runs a full scan only when the
   window prices out (which is also the only place optimality is
   declared). The dual method prices leaving rows with dual Devex row
   weights, checked against the exact row norm from {!Lu.btran_unit}
   and reset on drift. The ratio test is a Harris-style
   two-pass: pass 1 finds the largest step with every blocking bound
   relaxed by [tols.harris], pass 2 picks the largest-magnitude pivot
   among blockers within that step; bounded columns whose opposite
   bound is within the relaxed step flip between bounds without a
   basis change. *)

type result = Optimal | Infeasible | Unbounded | Iteration_limit

(* Every numerical tolerance of the solver in one record, shared by the
   primal ratio test, the dual ratio test and the Harris passes (the
   dual test used to carry its own hard-coded 1e-12 tie window). *)
type tolerances = {
  feas : float;  (* primal feasibility on variable/row bounds *)
  opt : float;  (* dual feasibility: reduced-cost pricing threshold *)
  pivot : float;  (* smallest acceptable pivot magnitude *)
  zero : float;  (* drop threshold for update arithmetic *)
  ratio_tie : float;  (* tie window shared by primal and dual ratio tests *)
  harris : float;  (* Harris pass-1 bound relaxation *)
}

let tols =
  {
    feas = 1e-7;
    opt = 1e-7;
    pivot = 1e-8;
    zero = 1e-11;
    ratio_tie = 1e-12;
    harris = 1e-8;
  }

let feas_tol = tols.feas
let opt_tol = tols.opt
let pivot_tol = tols.pivot
let zero_tol = tols.zero
let tie_tol = tols.ratio_tie
let refactor_every = 120

(* Devex reference weights are reset to the all-ones framework once the
   selected weight drifts past this cap (primal), or once the exact row
   norm exceeds the approximate weight by this factor (dual). *)
let devex_weight_cap = 1e7
let devex_drift_factor = 100.0

type stats = {
  pivots : int;
  phase1_pivots : int;
  flips : int;
  refactorizations : int;
  devex_resets : int;
  max_eta : int;
  lu_fill : int;
  basis_nnz : int;
  sparse_solves : int;
  dense_fallbacks : int;
}

let empty_stats =
  {
    pivots = 0;
    phase1_pivots = 0;
    flips = 0;
    refactorizations = 0;
    devex_resets = 0;
    max_eta = 0;
    lu_fill = 0;
    basis_nnz = 0;
    sparse_solves = 0;
    dense_fallbacks = 0;
  }

let merge_stats a b =
  {
    pivots = a.pivots + b.pivots;
    phase1_pivots = a.phase1_pivots + b.phase1_pivots;
    flips = a.flips + b.flips;
    refactorizations = a.refactorizations + b.refactorizations;
    devex_resets = a.devex_resets + b.devex_resets;
    max_eta = max a.max_eta b.max_eta;
    lu_fill = max a.lu_fill b.lu_fill;
    basis_nnz = max a.basis_nnz b.basis_nnz;
    sparse_solves = a.sparse_solves + b.sparse_solves;
    dense_fallbacks = a.dense_fallbacks + b.dense_fallbacks;
  }

let diff_stats a b =
  {
    a with
    pivots = a.pivots - b.pivots;
    phase1_pivots = a.phase1_pivots - b.phase1_pivots;
    flips = a.flips - b.flips;
    refactorizations = a.refactorizations - b.refactorizations;
    devex_resets = a.devex_resets - b.devex_resets;
    sparse_solves = a.sparse_solves - b.sparse_solves;
    dense_fallbacks = a.dense_fallbacks - b.dense_fallbacks;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "%d pivots (%d phase-1, %d flips), %d refactorizations, %d devex resets, \
     eta<=%d, fill %d, basis nnz %d, %d sparse solves, %d dense fallbacks"
    s.pivots s.phase1_pivots s.flips s.refactorizations s.devex_resets
    s.max_eta s.lu_fill s.basis_nnz s.sparse_solves s.dense_fallbacks

type t = {
  p : Problem.t;
  n : int;
  m : int;
  nt : int;
  (* column [j] of [A | -I] is [cidx.(j)]/[cval.(j)]: structural columns
     share the problem's arrays, slack column [n + r] is [-e_r] *)
  cidx : int array array;
  cval : float array array;
  cost : float array;
  lb : float array;
  ub : float array;
  basis : int array;
  loc : int array;
  mutable lu : Lu.t;
  xval : float array;
  mutable niter : int;
  mutable phase1_iters : int;
  mutable nflip : int;
  mutable nrefactor : int;
  mutable ndevex_reset : int;
  mutable max_eta : int;
  mutable max_fill : int;
  mutable max_bnnz : int;
  mutable since_refactor : int;
  mutable degenerate_streak : int;
  mutable tr : Mm_obs.Trace.sink;
  mutable flushed_flips : int;
  mutable flushed_resets : int;
  pivot_hist : Mm_obs.Trace.hist;
  refactor_hist : Mm_obs.Trace.hist;
  ftran_hist : Mm_obs.Trace.hist; (* ftran result density, permille *)
  btran_hist : Mm_obs.Trace.hist; (* btran result density, permille *)
  (* hypersparse counters harvested from retired Lu instances; the live
     instance's counts are added on top by [stats] *)
  mutable acc_sparse : int;
  mutable acc_dense : int;
  y : Svec.t; (* duals, row-indexed; dense backing read by pricing *)
  alpha : Svec.t; (* entering column B^-1 A_q, pos-indexed *)
  beta : float array; (* compute_basics scratch, pos-indexed *)
  rhs : Svec.t; (* row-indexed scratch for ftran inputs *)
  bwork : float array; (* compute_basics accumulation scratch *)
  cbw : Svec.t; (* pos-indexed scratch for btran inputs *)
  rho : Svec.t; (* row [ip] of the basis inverse, for dual pricing *)
  pcost : float array;
  dw : float array; (* primal Devex reference weights, per variable *)
  drw : float array; (* dual Devex reference weights, per row *)
  cand : int array; (* candidate-list pricing window, [wsize] long *)
  mutable ncand : int;
  mutable scan_from : int; (* rotating cursor for window rebuilds *)
  wsize : int; (* window capacity *)
}

(* --- column access ---------------------------------------------------- *)

(* The per-pivot loops below (pricing, Devex updates, ratio test, step
   application) run once per candidate column or per nonzero, so they
   allocate nothing: no closures, no boxed float accumulators, no
   option or tuple per candidate or entry. Their float operations keep
   a fixed order, which is part of the pivot-trajectory contract. *)

let columns p =
  let n = p.Problem.ncols in
  let minus_one = [| -1.0 |] in
  ( Array.init (n + p.Problem.nrows) (fun j ->
        if j < n then fst p.Problem.cols.(j) else [| j - n |]),
    Array.init (n + p.Problem.nrows) (fun j ->
        if j < n then snd p.Problem.cols.(j) else minus_one) )

(* y . A_j *)
let[@inline] dot_col t y j =
  let idx = t.cidx.(j) and a = t.cval.(j) in
  let acc = ref 0.0 in
  for k = 0 to Array.length idx - 1 do
    acc := !acc +. (y.(idx.(k)) *. a.(k))
  done;
  !acc

(* Closure-free walk over a vector's entries: slot [s] in
   [0, slots v) holds entry [slot v s] — the pattern when it is known,
   every index when the vector is dense. Exact zeros may be visited;
   every caller's body is a no-op on them. *)
let[@inline] slots (v : Svec.t) =
  if v.nnz < 0 then Array.length v.vals else v.nnz

let[@inline] slot (v : Svec.t) s = if v.nnz < 0 then s else v.idx.(s)

(* [Svec.set] without boxing [x] for the call *)
let[@inline] push (v : Svec.t) i x =
  v.vals.(i) <- x;
  v.idx.(v.nnz) <- i;
  v.nnz <- v.nnz + 1

(* alpha := B^-1 A_j, hypersparse: the packed column ftrans through the
   sparse kernel and alpha's pattern drives the ratio test, the step
   application, the eta build and the dual weight updates *)
let ftran t j =
  Svec.clear t.rhs;
  let idx = t.cidx.(j) and a = t.cval.(j) in
  for k = 0 to Array.length idx - 1 do
    push t.rhs idx.(k) a.(k)
  done;
  Lu.ftran_sv t.lu ~src:t.rhs ~dst:t.alpha;
  if Mm_obs.Trace.active t.tr then
    Mm_obs.Trace.hist_add t.ftran_hist
      (Int64.of_int (1000 * Svec.nnz t.alpha / max 1 t.m))

(* --- creation and (re)factorization ----------------------------------- *)

let[@inline] nonbasic_value t v =
  match t.loc.(v) with
  | -1 -> t.lb.(v)
  | -2 -> t.ub.(v)
  | -3 -> 0.0
  | _ -> invalid_arg "nonbasic_value: basic"

let compute_basics t =
  (* the right-hand side accumulates over all nonbasic columns, so it
     is dense in general: use the dense scratch and entry point *)
  let b = t.bwork in
  Array.fill b 0 t.m 0.0;
  for v = 0 to t.nt - 1 do
    if t.loc.(v) < 0 then begin
      let x = nonbasic_value t v in
      t.xval.(v) <- x;
      if x <> 0.0 then
        let idx = t.cidx.(v) and a = t.cval.(v) in
        for k = 0 to Array.length idx - 1 do
          let r = idx.(k) in
          b.(r) <- b.(r) -. (a.(k) *. x)
        done
    end
  done;
  Lu.ftran t.lu ~src:b ~dst:t.beta;
  for k = 0 to t.m - 1 do
    t.xval.(t.basis.(k)) <- t.beta.(k)
  done

let reset_to_slack_basis t =
  for v = 0 to t.nt - 1 do
    t.loc.(v) <-
      (if t.lb.(v) > neg_infinity then -1
       else if t.ub.(v) < infinity then -2
       else -3)
  done;
  for r = 0 to t.m - 1 do
    t.basis.(r) <- t.n + r;
    t.loc.(t.n + r) <- r
  done

let factor_current t =
  Lu.factor ~kernel:(Lu.kernel t.lu) ~m:t.m (fun k f ->
      let idx = t.cidx.(t.basis.(k)) and a = t.cval.(t.basis.(k)) in
      for p = 0 to Array.length idx - 1 do
        f idx.(p) a.(p)
      done)

(* the Lu instance is replaced on every refactorization, so fold its
   solve counters into the accumulators before retiring it *)
let harvest_lu_counters t =
  t.acc_sparse <- t.acc_sparse + Lu.sparse_solves t.lu;
  t.acc_dense <- t.acc_dense + Lu.dense_fallbacks t.lu

let refactor t =
  let h0 = if Mm_obs.Trace.active t.tr then Mm_obs.Trace.now_ns () else 0L in
  harvest_lu_counters t;
  (try t.lu <- factor_current t
   with Lu.Singular ->
     reset_to_slack_basis t;
     t.lu <- factor_current t);
  t.nrefactor <- t.nrefactor + 1;
  if Lu.fill_nnz t.lu > t.max_fill then t.max_fill <- Lu.fill_nnz t.lu;
  if Lu.basis_nnz t.lu > t.max_bnnz then t.max_bnnz <- Lu.basis_nnz t.lu;
  compute_basics t;
  t.since_refactor <- 0;
  if Mm_obs.Trace.active t.tr then
    Mm_obs.Trace.hist_add t.refactor_hist
      (Int64.sub (Mm_obs.Trace.now_ns ()) h0)

let refactorize = refactor

let create ?(lu_kernel = Lu.Auto) p =
  let n = p.Problem.ncols and m = p.Problem.nrows in
  let nt = n + m in
  let lb = Array.make nt 0.0 and ub = Array.make nt 0.0 in
  Array.blit p.Problem.col_lb 0 lb 0 n;
  Array.blit p.Problem.col_ub 0 ub 0 n;
  Array.blit p.Problem.row_lb 0 lb n m;
  Array.blit p.Problem.row_ub 0 ub n m;
  let cost = Array.make nt 0.0 in
  Array.blit p.Problem.obj 0 cost 0 n;
  let wsize =
    max 8 (min nt (8 + (4 * int_of_float (Float.sqrt (float_of_int nt)))))
  in
  let cidx, cval = columns p in
  let t =
    {
      p;
      n;
      m;
      nt;
      cidx;
      cval;
      cost;
      lb;
      ub;
      basis = Array.make m 0;
      loc = Array.make nt (-1);
      (* slack basis: column at position k is -e_k *)
      lu = Lu.factor ~kernel:lu_kernel ~m (fun k f -> f k (-1.0));
      xval = Array.make nt 0.0;
      niter = 0;
      phase1_iters = 0;
      nflip = 0;
      nrefactor = 0;
      ndevex_reset = 0;
      max_eta = 0;
      max_fill = 0;
      max_bnnz = 0;
      since_refactor = 0;
      degenerate_streak = 0;
      tr = Mm_obs.Trace.null;
      flushed_flips = 0;
      flushed_resets = 0;
      pivot_hist = Mm_obs.Trace.hist_create ();
      refactor_hist = Mm_obs.Trace.hist_create ();
      ftran_hist = Mm_obs.Trace.hist_create ();
      btran_hist = Mm_obs.Trace.hist_create ();
      acc_sparse = 0;
      acc_dense = 0;
      y = Svec.create m;
      alpha = Svec.create m;
      beta = Array.make m 0.0;
      rhs = Svec.create m;
      bwork = Array.make m 0.0;
      cbw = Svec.create m;
      rho = Svec.create m;
      pcost = Array.make nt 0.0;
      dw = Array.make nt 1.0;
      drw = Array.make m 1.0;
      cand = Array.make wsize 0;
      ncand = 0;
      scan_from = 0;
      wsize;
    }
  in
  reset_to_slack_basis t;
  compute_basics t;
  t

(* Warm constructor for the root cut loop: [p'] must be [prev]'s problem
   with extra rows appended (columns, bounds and existing rows
   unchanged). The previous basis carries over — structural and old
   slack indices are identical in both problems — and the appended cut
   rows enter basic on their slacks, so after an optimal [prev] the new
   instance is dual feasible and a [prefer_dual] re-solve restores
   primal feasibility in a few pivots. *)
let create_from prev p' =
  if p'.Problem.ncols <> prev.n || p'.Problem.nrows < prev.m then
    invalid_arg "Simplex.create_from: not a row extension";
  let t = create ~lu_kernel:(Lu.kernel prev.lu) p' in
  (* carry the previous instance's *current* bounds for the shared
     variables (structural and old slacks occupy the same indices). At
     the root cut loop these equal [p']'s bounds; a branch-and-bound
     worker extending its LP with pooled cut rows mid-tree keeps its
     node bound tightenings this way. *)
  Array.blit prev.lb 0 t.lb 0 prev.nt;
  Array.blit prev.ub 0 t.ub 0 prev.nt;
  for v = 0 to prev.n - 1 do
    t.loc.(v) <- prev.loc.(v)
  done;
  for r = 0 to prev.m - 1 do
    (* slack indices coincide because ncols is unchanged *)
    t.loc.(t.n + r) <- prev.loc.(prev.n + r);
    t.basis.(r) <- prev.basis.(r)
  done;
  (* appended rows keep the slack basis set up by [create] *)
  Array.blit prev.dw 0 t.dw 0 prev.nt;
  Array.blit prev.drw 0 t.drw 0 prev.m;
  t.tr <- prev.tr;
  refactor t;
  t

(* Deep copy of the solve state: bounds, basis, values, Devex state,
   counters and the LU with its eta file. The problem, the column table
   and the costs are never written after [create] and stay shared;
   scratch, trace histograms and the sink are fresh. The flushed-count
   marks start at the current counts, so the copy's trace reports only
   the flips and resets it performs itself. *)
let copy t =
  let hist = Mm_obs.Trace.hist_create in
  {
    t with
    lb = Array.copy t.lb;
    ub = Array.copy t.ub;
    basis = Array.copy t.basis;
    loc = Array.copy t.loc;
    lu = Lu.copy t.lu;
    xval = Array.copy t.xval;
    tr = Mm_obs.Trace.null;
    flushed_flips = t.nflip;
    flushed_resets = t.ndevex_reset;
    pivot_hist = hist ();
    refactor_hist = hist ();
    ftran_hist = hist ();
    btran_hist = hist ();
    y = Svec.create t.m;
    alpha = Svec.create t.m;
    beta = Array.make t.m 0.0;
    rhs = Svec.create t.m;
    bwork = Array.make t.m 0.0;
    cbw = Svec.create t.m;
    rho = Svec.create t.m;
    pcost = Array.make t.nt 0.0;
    dw = Array.copy t.dw;
    drw = Array.copy t.drw;
    cand = Array.copy t.cand;
  }

(* --- pricing ----------------------------------------------------------- *)

let compute_duals t costs =
  (* in phase 1 only the (few) infeasible basics carry cost, so the
     right-hand side is typically hypersparse and the btran cheap *)
  Svec.clear t.cbw;
  for k = 0 to t.m - 1 do
    let c = costs.(t.basis.(k)) in
    if c <> 0.0 then push t.cbw k c
  done;
  Lu.btran_sv t.lu ~src:t.cbw ~dst:t.y;
  if Mm_obs.Trace.active t.tr then
    Mm_obs.Trace.hist_add t.btran_hist
      (Int64.of_int (1000 * Svec.nnz t.y / max 1 t.m))

(* Reduced cost of a nonbasic variable when it prices out, [nan] when
   it does not (basic, or fixed at a bound), assuming t.y holds the
   duals for [costs]. A fixed column is rejected before its dot
   product. An eligible [d] fixes the entering direction: see
   [direction]. *)
let[@inline] eligibility t costs v =
  let l = t.loc.(v) in
  if l >= 0 || (l > -3 && not (t.ub.(v) > t.lb.(v))) then Float.nan
  else
    let d = costs.(v) -. dot_col t t.y.Svec.vals v in
    match l with
    | -1 -> if d < -.opt_tol then d else Float.nan
    | -2 -> if d > opt_tol then d else Float.nan
    | _ -> if d < -.opt_tol || d > opt_tol then d else Float.nan

(* sigma = +1 when an eligible variable enters increasing from its lower
   bound (d < 0), -1 when it enters decreasing from its upper bound *)
let[@inline] direction d = if d < 0.0 then 1.0 else -1.0

(* Bland's first-eligible rule from variable [v] on: the anti-cycling
   fallback for long degenerate streaks. *)
let rec price_bland t costs v =
  if v >= t.nt then None
  else
    let d = eligibility t costs v in
    if Float.is_nan d then price_bland t costs (v + 1)
    else Some (v, direction d)

(* Devex pricing over the candidate window: re-price only the window,
   keep the members that still price out, and pick the best d^2/w
   score. When the window prices out, rebuild it with a full rotating
   scan — the only place optimality may be declared, so partial pricing
   can never terminate early on a stale window. *)
let price_devex t costs =
  let best = ref (-1) and best_score = ref 0.0 and best_d = ref 0.0 in
  let keep = ref 0 in
  for s = 0 to t.ncand - 1 do
    let v = t.cand.(s) in
    let d = eligibility t costs v in
    if not (Float.is_nan d) then begin
      t.cand.(!keep) <- v;
      incr keep;
      let sc = d *. d /. t.dw.(v) in
      if sc > !best_score then begin
        best := v;
        best_score := sc;
        best_d := d
      end
    end
  done;
  t.ncand <- !keep;
  if !best < 0 then begin
    t.ncand <- 0;
    let start = t.scan_from in
    let scanned = ref 0 in
    while !scanned < t.nt && t.ncand < t.wsize do
      let v = start + !scanned in
      let v = if v >= t.nt then v - t.nt else v in
      incr scanned;
      let d = eligibility t costs v in
      if not (Float.is_nan d) then begin
        t.cand.(t.ncand) <- v;
        t.ncand <- t.ncand + 1;
        let sc = d *. d /. t.dw.(v) in
        if sc > !best_score then begin
          best := v;
          best_score := sc;
          best_d := d
        end
      end
    done;
    t.scan_from <-
      (let c = start + !scanned in
       if c >= t.nt then c - t.nt else c)
  end;
  if !best < 0 then None else Some (!best, direction !best_d)

let price t costs ~bland =
  if bland then price_bland t costs 0 else price_devex t costs

(* Primal Devex weight update for the pivot that makes [q] enter at
   basis position [ip] (called before the LU update, while [t.lu] still
   factors the outgoing basis). Weights of the candidate window are
   updated from the pivot row [rho = B^-T e_ip]; the leaver gets its
   reference weight refreshed exactly. A selected weight past the cap
   means the framework has drifted: reset to all ones. *)
let devex_update t q ip =
  let piv = t.alpha.Svec.vals.(ip) in
  let wq = Float.max t.dw.(q) 1.0 in
  if wq > devex_weight_cap then begin
    Array.fill t.dw 0 t.nt 1.0;
    t.ndevex_reset <- t.ndevex_reset + 1
  end
  else begin
    let inv2 = 1.0 /. (piv *. piv) in
    if t.ncand > 0 then begin
      Lu.btran_unit_sv t.lu ~pos:ip ~dst:t.rho;
      if Mm_obs.Trace.active t.tr then
        Mm_obs.Trace.hist_add t.btran_hist
          (Int64.of_int (1000 * Svec.nnz t.rho / max 1 t.m));
      for s = 0 to t.ncand - 1 do
        let v = t.cand.(s) in
        if v <> q && t.loc.(v) < 0 then begin
          let arj = dot_col t t.rho.Svec.vals v in
          if Float.abs arj > zero_tol then begin
            let w = arj *. arj *. inv2 *. wq in
            if w > t.dw.(v) then t.dw.(v) <- w
          end
        end
      done
    end;
    t.dw.(t.basis.(ip)) <- Float.max (wq *. inv2) 1.0
  end

(* --- pivoting ---------------------------------------------------------- *)

type ratio_outcome =
  | Flip of float (* step length hits entering variable's opposite bound *)
  | Block of int * float * int (* position, step, new loc for leaver *)
  | NoBlock

(* [Float.max x 0.0], bit for bit, without boxing [x] for the call *)
let[@inline] clamp0 x =
  if x > 0.0 then x else if Float.is_nan x then x else 0.0

(* The bound basis row [i] blocks at when it moves at rate [d]; nan when
   the row does not block in this direction. *)
let[@inline] blocking_bound t i d ~phase1 =
  let bv = t.basis.(i) in
  let v = t.xval.(bv) and l = t.lb.(bv) and u = t.ub.(bv) in
  if phase1 && v > u +. feas_tol then if d < 0.0 then u else Float.nan
  else if phase1 && v < l -. feas_tol then if d > 0.0 then l else Float.nan
  else if d > 0.0 then u
  else l

(* The leaver's nonbasic status once row [i] blocks at rate [d]. *)
let leave_status t i d ~phase1 =
  let bv = t.basis.(i) in
  let v = t.xval.(bv) in
  if phase1 && v > t.ub.(bv) +. feas_tol then -2
  else if phase1 && v < t.lb.(bv) -. feas_tol then -1
  else if d > 0.0 then -2
  else -1

(* Harris two-pass ratio test. Pass 1 computes the largest step allowed
   when every blocking bound is relaxed by [tols.harris]; pass 2 picks,
   among the blockers whose strict step fits within that relaxed step,
   the one with the largest pivot magnitude — degenerate ties resolve
   to the numerically safest pivot at the price of bound violations no
   larger than the relaxation. A bounded entering column whose opposite
   bound lies within the relaxed step flips between its bounds without
   a basis change. [phase1] relaxes blocking for infeasible basics:
   they only block at the bound they currently violate. *)
let ratio_test t q sigma ~phase1 =
  (* both Harris passes sweep only alpha's entries: rows with
     alpha.(i) = 0 never block *)
  let alpha = t.alpha in
  let tmax_rel = ref infinity in
  for s = 0 to slots alpha - 1 do
    let i = slot alpha s in
    let d = -.sigma *. alpha.vals.(i) in
    if Float.abs d > pivot_tol then begin
      let bound = blocking_bound t i d ~phase1 in
      if Float.is_finite bound then begin
        let strict = clamp0 ((bound -. t.xval.(t.basis.(i))) /. d) in
        let relaxed = strict +. (tols.harris /. Float.abs d) in
        if relaxed < !tmax_rel then tmax_rel := relaxed
      end
    end
  done;
  let bound_gap = t.ub.(q) -. t.lb.(q) in
  if Float.is_finite bound_gap && bound_gap <= !tmax_rel then Flip bound_gap
  else if !tmax_rel = infinity then NoBlock
  else begin
    let blocker = ref (-1) and bstep = ref 0.0 and bmag = ref 0.0 in
    for s = 0 to slots alpha - 1 do
      let i = slot alpha s in
      let d = -.sigma *. alpha.vals.(i) in
      if Float.abs d > pivot_tol then begin
        let bound = blocking_bound t i d ~phase1 in
        if Float.is_finite bound then begin
          let strict = clamp0 ((bound -. t.xval.(t.basis.(i))) /. d) in
          if strict <= !tmax_rel +. tie_tol && Float.abs d > !bmag then begin
            blocker := i;
            bstep := strict;
            bmag := Float.abs d
          end
        end
      end
    done;
    if !blocker < 0 then NoBlock
    else
      let ip = !blocker in
      let d = -.sigma *. alpha.vals.(ip) in
      Block (ip, Float.min !bstep !tmax_rel, leave_status t ip d ~phase1)
  end

let apply_step t q sigma step =
  (* move entering by sigma*step, basics by -sigma*alpha*step *)
  if step <> 0.0 then begin
    t.xval.(q) <- t.xval.(q) +. (sigma *. step);
    let alpha = t.alpha in
    for s = 0 to slots alpha - 1 do
      let i = slot alpha s in
      let a = alpha.vals.(i) in
      if Float.abs a > zero_tol then begin
        let bv = t.basis.(i) in
        t.xval.(bv) <- t.xval.(bv) -. (sigma *. a *. step)
      end
    done
  end

(* Absorb the exchange at position [ip] into the eta file; refactorize on
   schedule, when the eta file outgrows the factors, or on a bad pivot. *)
let update_lu t ip =
  match Lu.update_sv t.lu ~pos:ip ~alpha:t.alpha with
  | () ->
      if Lu.eta_count t.lu > t.max_eta then t.max_eta <- Lu.eta_count t.lu;
      if
        t.since_refactor >= refactor_every
        || Lu.eta_nnz t.lu > (4 * t.m) + (2 * Lu.basis_nnz t.lu)
      then refactor t
  | exception Lu.Singular -> refactor t

let do_pivot t q sigma ip step leave_loc =
  let h0 = if Mm_obs.Trace.active t.tr then Mm_obs.Trace.now_ns () else 0L in
  devex_update t q ip;
  apply_step t q sigma step;
  let leaver = t.basis.(ip) in
  t.basis.(ip) <- q;
  t.loc.(q) <- ip;
  t.loc.(leaver) <- leave_loc;
  (* snap the leaver exactly onto its bound to kill drift *)
  t.xval.(leaver) <- nonbasic_value t leaver;
  t.niter <- t.niter + 1;
  t.since_refactor <- t.since_refactor + 1;
  if step <= 1e-10 then t.degenerate_streak <- t.degenerate_streak + 1
  else t.degenerate_streak <- 0;
  update_lu t ip;
  (* includes any refactorization triggered by this pivot *)
  if Mm_obs.Trace.active t.tr then
    Mm_obs.Trace.hist_add t.pivot_hist
      (Int64.sub (Mm_obs.Trace.now_ns ()) h0)

let do_flip t q sigma gap =
  apply_step t q sigma gap;
  t.loc.(q) <- (if t.loc.(q) = -1 then -2 else -1);
  t.xval.(q) <- nonbasic_value t q;
  t.niter <- t.niter + 1;
  t.nflip <- t.nflip + 1;
  t.degenerate_streak <- 0

(* --- phases ------------------------------------------------------------ *)

let infeasibility t =
  let acc = ref 0.0 in
  for i = 0 to t.m - 1 do
    let v = t.basis.(i) in
    let x = t.xval.(v) in
    if x > t.ub.(v) then acc := !acc +. (x -. t.ub.(v))
    else if x < t.lb.(v) then acc := !acc +. (t.lb.(v) -. x)
  done;
  !acc

let phase1_inner t limit out_of_time =
  let rec loop () =
    if t.niter >= limit || out_of_time () then Iteration_limit
    else if infeasibility t <= feas_tol *. float_of_int (t.m + 1) then Optimal
    else begin
      (* only basic entries are ever set, and they are cleared again
         once pricing has read them, so [pcost] is all zero between
         iterations without a sweep over all n + m entries *)
      for i = 0 to t.m - 1 do
        let v = t.basis.(i) in
        let x = t.xval.(v) in
        if x > t.ub.(v) +. feas_tol then t.pcost.(v) <- 1.0
        else if x < t.lb.(v) -. feas_tol then t.pcost.(v) <- -1.0
      done;
      compute_duals t t.pcost;
      let bland = t.degenerate_streak > 200 in
      let choice = price t t.pcost ~bland in
      for i = 0 to t.m - 1 do
        t.pcost.(t.basis.(i)) <- 0.0
      done;
      match choice with
      | None -> Infeasible
      | Some (q, sigma) -> (
          ftran t q;
          match ratio_test t q sigma ~phase1:true with
          | Flip gap ->
              do_flip t q sigma gap;
              loop ()
          | Block (ip, step, lloc) ->
              if Float.abs t.alpha.Svec.vals.(ip) < pivot_tol then begin
                refactor t;
                loop ()
              end
              else begin
                do_pivot t q sigma ip step lloc;
                loop ()
              end
          | NoBlock ->
              (* a priced-out phase-1 direction always has a blocking
                 infeasible basic; numerical drift can break this, so
                 refactor and retry once before giving up *)
              if t.since_refactor > 0 then begin
                refactor t;
                loop ()
              end
              else Infeasible)
    end
  in
  loop ()

let phase1 t limit out_of_time =
  let before = t.niter in
  let r = phase1_inner t limit out_of_time in
  t.phase1_iters <- t.phase1_iters + (t.niter - before);
  r

let phase2 t limit out_of_time =
  (* the Devex reference framework accumulated during phase 1 (or left
     behind by a previous solve after an arbitrary basis restore) prices
     the phase-2 geometry poorly; restart it *)
  if t.niter > 0 then begin
    Array.fill t.dw 0 t.nt 1.0;
    t.ncand <- 0
  end;
  (* a bound flip leaves the basis, its factorization and the costs
     unchanged, so the duals it leaves behind are still exact: only a
     pivot or a refactorization calls for a fresh btran *)
  let duals_valid = ref false in
  let rec loop () =
    if t.niter >= limit || out_of_time () then Iteration_limit
    else begin
      if not !duals_valid then compute_duals t t.cost;
      duals_valid := true;
      let bland = t.degenerate_streak > 200 in
      match price t t.cost ~bland with
      | None -> Optimal
      | Some (q, sigma) -> (
          ftran t q;
          match ratio_test t q sigma ~phase1:false with
          | Flip gap ->
              do_flip t q sigma gap;
              loop ()
          | Block (ip, step, lloc) ->
              duals_valid := false;
              if Float.abs t.alpha.Svec.vals.(ip) < pivot_tol then begin
                refactor t;
                loop ()
              end
              else begin
                do_pivot t q sigma ip step lloc;
                loop ()
              end
          | NoBlock -> Unbounded)
    end
  in
  loop ()

(* --- dual simplex ------------------------------------------------------ *)

(* Reduced cost of one nonbasic variable under the phase-2 objective,
   assuming t.y holds the duals. *)
let[@inline] reduced_cost t v = t.cost.(v) -. dot_col t t.y.Svec.vals v

let is_dual_feasible t =
  compute_duals t t.cost;
  let ok = ref true in
  for v = 0 to t.nt - 1 do
    if !ok && t.loc.(v) < 0 then begin
      let d = reduced_cost t v in
      match t.loc.(v) with
      | -1 -> if d < -1e-6 && t.ub.(v) > t.lb.(v) then ok := false
      | -2 -> if d > 1e-6 && t.ub.(v) > t.lb.(v) then ok := false
      | _ -> if Float.abs d > 1e-6 then ok := false
    end
  done;
  !ok

(* One dual simplex run from the current (dual-feasible) basis.
   Restores primal feasibility while keeping dual feasibility; ends
   Optimal, Infeasible (primal), or Iteration_limit. The leaving row
   maximizes violation^2 / weight with dual Devex row weights; the
   exact row norm from {!Lu.btran_unit} cross-checks the approximate
   weight and resets the framework on drift. *)
let dual_phase t limit out_of_time =
  let exception Numerical_trouble in
  try
    let rec loop () =
      if t.niter >= limit || out_of_time () then Iteration_limit
      else begin
        (* leaving row: best weighted violation *)
        let leave = ref (-1) and best = ref 0.0 and increase = ref false in
        for i = 0 to t.m - 1 do
          let v = t.basis.(i) in
          let x = t.xval.(v) in
          let viol_lo = t.lb.(v) -. x and viol_hi = x -. t.ub.(v) in
          if viol_lo > feas_tol then begin
            let sc = viol_lo *. viol_lo /. t.drw.(i) in
            if sc > !best then begin
              leave := i;
              best := sc;
              increase := true
            end
          end
          else if viol_hi > feas_tol then begin
            let sc = viol_hi *. viol_hi /. t.drw.(i) in
            if sc > !best then begin
              leave := i;
              best := sc;
              increase := false
            end
          end
        done;
        if !leave < 0 then Optimal
        else begin
          let ip = !leave in
          (* rho := row ip of the basis inverse, via btran of e_ip — the
             single-nonzero right-hand side is the ideal hypersparse case *)
          Lu.btran_unit_sv t.lu ~pos:ip ~dst:t.rho;
          if Mm_obs.Trace.active t.tr then
            Mm_obs.Trace.hist_add t.btran_hist
              (Int64.of_int (1000 * Svec.nnz t.rho / max 1 t.m));
          let wip =
            let rho = t.rho in
            let exact = ref 0.0 in
            for s = 0 to slots rho - 1 do
              let r = rho.vals.(slot rho s) in
              exact := !exact +. (r *. r)
            done;
            if !exact > devex_drift_factor *. t.drw.(ip) then begin
              (* the reference framework no longer tracks the true row
                 norms: reset it *)
              Array.fill t.drw 0 t.m 1.0;
              t.ndevex_reset <- t.ndevex_reset + 1
            end;
            Float.max t.drw.(ip) !exact
          in
          compute_duals t t.cost;
          (* entering variable: dual ratio test over sign-eligible
             nonbasic columns *)
          let best = ref (-1)
          and best_ratio = ref infinity
          and best_mag = ref 0.0 in
          for v = 0 to t.nt - 1 do
            if t.loc.(v) < 0 && t.ub.(v) > t.lb.(v) then begin
              let a = dot_col t t.rho.Svec.vals v in
              if Float.abs a > pivot_tol then begin
                let eligible =
                  match t.loc.(v) with
                  | -1 -> if !increase then a < 0.0 else a > 0.0
                  | -2 -> if !increase then a > 0.0 else a < 0.0
                  | _ -> true (* free variables can move either way *)
                in
                if eligible then begin
                  let d = reduced_cost t v in
                  let ratio = Float.abs d /. Float.abs a in
                  if
                    ratio < !best_ratio -. tie_tol
                    || (ratio < !best_ratio +. tie_tol
                        && Float.abs a > !best_mag)
                  then begin
                    best := v;
                    best_ratio := ratio;
                    best_mag := Float.abs a
                  end
                end
              end
            end
          done;
          if !best < 0 then Infeasible
          else begin
            let q = !best in
            ftran t q;
            let alpha = t.alpha in
            if Float.abs alpha.vals.(ip) < pivot_tol then
              raise Numerical_trouble;
            (* dual Devex row-weight update from the entering column's
               ftran, over alpha's nonzeros only *)
            let piv = alpha.vals.(ip) in
            let inv2 = 1.0 /. (piv *. piv) in
            for s = 0 to slots alpha - 1 do
              let i = slot alpha s in
              let a = alpha.vals.(i) in
              if i <> ip && Float.abs a > zero_tol then begin
                let w = a *. a *. inv2 *. wip in
                if w > t.drw.(i) then t.drw.(i) <- w
              end
            done;
            t.drw.(ip) <- Float.max (wip *. inv2) 1.0;
            let leaver = t.basis.(ip) in
            let leave_loc = if !increase then -1 else -2 in
            t.basis.(ip) <- q;
            t.loc.(q) <- ip;
            t.loc.(leaver) <- leave_loc;
            t.niter <- t.niter + 1;
            t.since_refactor <- t.since_refactor + 1;
            update_lu t ip;
            if t.since_refactor > 0 then compute_basics t;
            loop ()
          end
        end
      end
    in
    compute_basics t;
    loop ()
  with Numerical_trouble ->
    refactor t;
    Iteration_limit

let solve ?iteration_limit ?deadline ?(prefer_dual = false) t =
  let limit =
    t.niter
    + (match iteration_limit with
      | Some l -> l
      | None -> 50_000 + (20 * (t.m + t.n)))
  in
  let out_of_time =
    match deadline with
    | None -> fun () -> false
    | Some d ->
        let counter = ref 0 in
        fun () ->
          incr counter;
          if !counter land 63 = 0 then Unix.gettimeofday () > d else false
  in
  t.degenerate_streak <- 0;
  refactor t;
  let primal_path () =
    match phase1 t limit out_of_time with
    | Optimal ->
        let r = phase2 t limit out_of_time in
        if r = Optimal && infeasibility t > feas_tol *. float_of_int (t.m + 1)
        then begin
          (* numerical drift re-introduced infeasibility: one clean retry *)
          refactor t;
          match phase1 t limit out_of_time with
          | Optimal -> phase2 t limit out_of_time
          | other -> other
        end
        else r
    | other -> other
  in
  if prefer_dual && is_dual_feasible t then begin
    (* give the dual method a bounded head start; any trouble falls back
       to the safe primal two-phase path *)
    let dual_limit = min limit (t.niter + 2_000 + (4 * t.m)) in
    match dual_phase t dual_limit out_of_time with
    | Optimal ->
        (* confirm with a (normally zero-pivot) primal phase-2 pass *)
        if infeasibility t <= feas_tol *. float_of_int (t.m + 1) then
          phase2 t limit out_of_time
        else primal_path ()
    | Infeasible -> Infeasible
    | Unbounded | Iteration_limit ->
        if out_of_time () || t.niter >= limit then Iteration_limit
        else primal_path ()
  end
  else primal_path ()

(* --- accessors ---------------------------------------------------------- *)

let objective t =
  let acc = ref t.p.Problem.obj_const in
  for j = 0 to t.n - 1 do
    acc := !acc +. (t.cost.(j) *. t.xval.(j))
  done;
  !acc

let primal t = Array.sub t.xval 0 t.n

let reduced_costs t =
  compute_duals t t.cost;
  Array.init t.n (fun j -> t.cost.(j) -. dot_col t t.y.Svec.vals j)

let duals t =
  compute_duals t t.cost;
  Array.copy t.y.Svec.vals

let iterations t = t.niter
let problem t = t.p

let stats t =
  {
    pivots = t.niter;
    phase1_pivots = t.phase1_iters;
    flips = t.nflip;
    refactorizations = t.nrefactor;
    devex_resets = t.ndevex_reset;
    max_eta = t.max_eta;
    lu_fill = t.max_fill;
    basis_nnz = t.max_bnnz;
    sparse_solves = t.acc_sparse + Lu.sparse_solves t.lu;
    dense_fallbacks = t.acc_dense + Lu.dense_fallbacks t.lu;
  }

let set_trace t s = t.tr <- s

let flush_trace t =
  Mm_obs.Trace.emit_hist t.tr "pivot" t.pivot_hist;
  Mm_obs.Trace.emit_hist t.tr "refactor" t.refactor_hist;
  Mm_obs.Trace.emit_hist t.tr "ftran_density_permille" t.ftran_hist;
  Mm_obs.Trace.emit_hist t.tr "btran_density_permille" t.btran_hist;
  if Mm_obs.Trace.active t.tr then begin
    if t.nflip > t.flushed_flips then
      Mm_obs.Trace.count t.tr "flip" (t.nflip - t.flushed_flips);
    if t.ndevex_reset > t.flushed_resets then
      Mm_obs.Trace.count t.tr "devex_reset" (t.ndevex_reset - t.flushed_resets)
  end;
  t.flushed_flips <- t.nflip;
  t.flushed_resets <- t.ndevex_reset

let set_bounds t j lb ub =
  if j < 0 || j >= t.n then invalid_arg "Simplex.set_bounds";
  if lb > ub then invalid_arg "Simplex.set_bounds: lb > ub";
  t.lb.(j) <- lb;
  t.ub.(j) <- ub;
  if t.loc.(j) < 0 then begin
    (* keep the nonbasic variable on a valid bound *)
    (match t.loc.(j) with
    | -1 ->
        if not (Float.is_finite lb) then
          t.loc.(j) <- (if Float.is_finite ub then -2 else -3)
    | -2 ->
        if not (Float.is_finite ub) then
          t.loc.(j) <- (if Float.is_finite lb then -1 else -3)
    | _ -> ());
    t.xval.(j) <- nonbasic_value t j
  end

let get_bounds t j =
  if j < 0 || j >= t.n then invalid_arg "Simplex.get_bounds";
  (t.lb.(j), t.ub.(j))

let save_bounds t = (Array.sub t.lb 0 t.n, Array.sub t.ub 0 t.n)

let restore_bounds t (lb, ub) =
  if Array.length lb <> t.n || Array.length ub <> t.n then
    invalid_arg "Simplex.restore_bounds";
  Array.blit lb 0 t.lb 0 t.n;
  Array.blit ub 0 t.ub 0 t.n;
  for j = 0 to t.n - 1 do
    if t.loc.(j) < 0 then t.xval.(j) <- nonbasic_value t j
  done

(* --- basis snapshots ---------------------------------------------------- *)

(* Compact encoding for branch-and-bound warm starts: the basis array
   plus one status byte per variable. Basic positions are re-derived
   from the basis array on restore, so the snapshot is ~(m + n+m bytes)
   rather than two full int arrays. *)
type basis = { b : int array; status : Bytes.t }

let basis_snapshot t =
  let status = Bytes.create t.nt in
  for v = 0 to t.nt - 1 do
    Bytes.unsafe_set status v
      (match t.loc.(v) with
      | -1 -> '\000'
      | -2 -> '\001'
      | -3 -> '\002'
      | _ -> '\003')
  done;
  { b = Array.copy t.basis; status }

(* persistence view: status bytes '\000'..'\003' travel as the ASCII
   digits '0'..'3' so the serialized form is printable JSON *)
let basis_export { b; status } =
  let s = Bytes.map (fun c -> Char.chr (Char.code c + Char.code '0')) status in
  (Array.copy b, Bytes.to_string s)

let basis_import ~b ~status =
  let ok = ref true in
  String.iter (fun c -> if c < '0' || c > '3' then ok := false) status;
  if not !ok then Error "basis status has characters outside '0'..'3'"
  else if String.length status < Array.length b then
    Error "basis status shorter than the basic-variable array"
  else
    Ok
      {
        b = Array.copy b;
        status =
          Bytes.map
            (fun c -> Char.chr (Char.code c - Char.code '0'))
            (Bytes.of_string status);
      }

let restore_basis t { b; status } =
  let ms = Array.length b and nts = Bytes.length status in
  (* a snapshot from the same problem with fewer rows (taken before
     pooled cut rows were appended) is acceptable: the missing rows'
     slacks enter basic on themselves, the [create_from] convention *)
  if ms > t.m || nts - ms <> t.nt - t.m then
    invalid_arg "Simplex.restore_basis";
  for v = 0 to t.nt - 1 do
    t.loc.(v) <-
      (if v >= nts then 0 (* appended row's slack: basic, position below *)
       else
         match Bytes.unsafe_get status v with
         | '\000' -> -1
         | '\001' -> -2
         | '\002' -> -3
         | _ -> 0 (* basic; real position set below *))
  done;
  Array.blit b 0 t.basis 0 ms;
  for r = ms to t.m - 1 do
    t.basis.(r) <- t.n + r
  done;
  for k = 0 to t.m - 1 do
    t.loc.(t.basis.(k)) <- k
  done;
  (* bounds may have changed since the snapshot: snap nonbasic statuses *)
  for v = 0 to t.nt - 1 do
    if t.loc.(v) < 0 then begin
      (match t.loc.(v) with
      | -1 when not (Float.is_finite t.lb.(v)) ->
          t.loc.(v) <- (if Float.is_finite t.ub.(v) then -2 else -3)
      | -2 when not (Float.is_finite t.ub.(v)) ->
          t.loc.(v) <- (if Float.is_finite t.lb.(v) then -1 else -3)
      | _ -> ());
      t.xval.(v) <- nonbasic_value t v
    end
  done

(* --- tableau access ----------------------------------------------------- *)

type var_status = Basic | At_lower | At_upper | Free_nonbasic

let num_rows t = t.m

let basic_var t pos =
  if pos < 0 || pos >= t.m then invalid_arg "Simplex.basic_var";
  t.basis.(pos)

let var_status t v =
  if v < 0 || v >= t.nt then invalid_arg "Simplex.var_status";
  match t.loc.(v) with
  | -1 -> At_lower
  | -2 -> At_upper
  | -3 -> Free_nonbasic
  | _ -> Basic

let var_value t v =
  if v < 0 || v >= t.nt then invalid_arg "Simplex.var_value";
  t.xval.(v)

let var_bounds_all t v =
  if v < 0 || v >= t.nt then invalid_arg "Simplex.var_bounds_all";
  (t.lb.(v), t.ub.(v))

let tableau_row t ~pos =
  if pos < 0 || pos >= t.m then invalid_arg "Simplex.tableau_row";
  (* rho := row [pos] of B^-1, then one sparse dot product per nonbasic
     column. Fresh scratch arrays: separation runs off the pivot hot
     path and must not clobber the pricing buffers. *)
  let rho = Svec.create t.m in
  Lu.btran_unit_sv t.lu ~pos ~dst:rho;
  let row = Array.make t.nt 0.0 in
  for v = 0 to t.nt - 1 do
    if t.loc.(v) < 0 then row.(v) <- dot_col t rho.Svec.vals v
  done;
  row
