(* Pluggable cut separation. Each separator is a first-class module
   (mirroring Mm_mapping.Formulation) that reads a fractional point —
   and, for tableau-based families, the optimal simplex instance — and
   emits violated valid inequalities over the structural variables.
   Ranking, deduplication, naming and lifecycle belong to Cut_pool;
   separators only generate. *)

type cut = {
  family : string;  (** separator tag: ["cover"], ["lcover"], ["gmi"] *)
  terms : (int * float) list;
  lb : float;
  ub : float;
}

type ctx = {
  p : Problem.t;
  x : float array;
  sx : Simplex.t option;
      (* the instance that produced [x], freshly optimal; [None] when a
         caller has only the point (tableau separators then pass) *)
}

module type S = sig
  val name : string

  val bound_free : bool
  (** Cuts stay valid whatever the current variable bounds are, so they
      may be separated at branch-and-bound nodes (where bounds are
      tightened) and shared globally. Tableau-derived families read the
      node's bounds into the cut and must set this to [false]. *)

  val separate : ctx -> cut list
end

type t = (module S)

let name (module M : S) = M.name
let bound_free (module M : S) = M.bound_free
let separate (module M : S) ctx = M.separate ctx
let viol_tol = 1e-4

let activity terms x =
  List.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0.0 terms

let violation c x =
  let act = activity c.terms x in
  Float.max (act -. c.ub) (c.lb -. act)

(* --- knapsack covers ---------------------------------------------------- *)

(* Normalize an all-binary row with finite upper bound to
   sum a'_j y_j <= b' with a'_j > 0 and y_j in {x_j, 1 - x_j}.
   Items carry (variable, weight, complemented, current y value). *)
let knapsack_items p x r =
  let b = p.Problem.row_ub.(r) in
  if not (Float.is_finite b) || Problem.row_nnz p r < 2 then None
  else begin
    let all_binary = ref true in
    Problem.row_iter p r (fun j _ ->
        if p.Problem.kind.(j) <> Problem.Binary then all_binary := false);
    if not !all_binary then None
    else begin
      let b' = ref b in
      let rev_items = ref [] in
      Problem.row_iter p r (fun j a ->
          if a > 0.0 then rev_items := (j, a, false, x.(j)) :: !rev_items
          else if a < 0.0 then begin
            b' := !b' -. a;
            rev_items := (j, -.a, true, 1.0 -. x.(j)) :: !rev_items
          end);
      if !b' < 0.0 then None else Some (List.rev !rev_items, !b')
    end
  end

(* Greedy cover: add items by decreasing fractional value until the
   weight exceeds b. Returns the cover (reversed greedy order) or None
   when the whole row cannot cover. *)
let greedy_cover items b =
  let sorted =
    List.sort (fun (_, _, _, xa) (_, _, _, xb) -> compare xb xa) items
  in
  let rec take acc w = function
    | [] -> (acc, w)
    | (j, a, compl, xv) :: rest ->
        if w > b then (acc, w)
        else take ((j, a, compl, xv) :: acc) (w +. a) rest
  in
  let cover, w = take [] 0.0 sorted in
  if w <= b +. 1e-9 then None else Some cover

(* Translate a cover-style inequality  sum coef_j y_j <= rhs  back to
   the x variables: complemented items flip sign and shift the bound. *)
let to_x_space ~family cover_terms rhs =
  let ub = ref rhs and terms = ref [] in
  List.iter
    (fun (j, coef, compl) ->
      if compl then begin
        terms := (j, -.coef) :: !terms;
        ub := !ub -. coef
      end
      else terms := (j, coef) :: !terms)
    cover_terms;
  { family; terms = List.rev !terms; lb = neg_infinity; ub = !ub }

let cover_from_row p x r =
  match knapsack_items p x r with
  | None -> None
  | Some (items, b) -> (
      match greedy_cover items b with
      | None -> None
      | Some cover ->
          let size = List.length cover in
          let lhs_value =
            List.fold_left (fun acc (_, _, _, xv) -> acc +. xv) 0.0 cover
          in
          let rhs = float_of_int (size - 1) in
          if lhs_value <= rhs +. viol_tol then None
          else
            Some
              (to_x_space ~family:"cover"
                 (List.map (fun (j, _, compl, _) -> (j, 1.0, compl)) cover)
                 rhs))

module Cover = struct
  let name = "cover"
  let bound_free = true

  (* Emitted most-recent-row-first (prepend order): with the pool's
     stable violation sort this reproduces the historical Cuts.separate
     ordering pivot for pivot. *)
  let separate ctx =
    let cuts = ref [] in
    for r = 0 to ctx.p.Problem.nrows - 1 do
      match cover_from_row ctx.p ctx.x r with
      | Some c -> cuts := c :: !cuts
      | None -> ()
    done;
    !cuts
end

(* --- sequence-lifted covers ---------------------------------------------- *)

(* Exact sequential lifting of the cover inequality sum_C y <= |C| - 1.
   Non-cover items are lifted one at a time by decreasing weight; the
   lifting coefficient of item j is  rhs - z_j  where z_j is the best
   profit of already-lifted items within the capacity left once y_j = 1.
   z_j is computed by a min-weight-per-profit knapsack DP — profits are
   small integers (at most rhs) even though weights are floats. *)
module Lifted_cover = struct
  let name = "lcover"
  let bound_free = true

  let lift_row p x r =
    match knapsack_items p x r with
    | None -> None
    | Some (items, b) -> (
        match greedy_cover items b with
        | None -> None
        | Some cover ->
            let rhs = List.length cover - 1 in
            if rhs < 1 then None
            else begin
              let in_cover = Hashtbl.create 16 in
              List.iter (fun (j, _, _, _) -> Hashtbl.replace in_cover j ()) cover;
              let outside =
                items
                |> List.filter (fun (j, _, _, _) -> not (Hashtbl.mem in_cover j))
                |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a)
              in
              (* the DP item set: (weight, profit), growing as lifting
                 proceeds; starts as the cover items with profit 1 *)
              let dp_items =
                ref (List.map (fun (_, a, _, _) -> (a, 1)) cover)
              in
              let best_profit capacity =
                if capacity < 0.0 then -1 (* y_j cannot be 1 at all *)
                else begin
                  let minw = Array.make (rhs + 1) infinity in
                  minw.(0) <- 0.0;
                  List.iter
                    (fun (w, q) ->
                      for v = rhs downto 1 do
                        let v' = max 0 (v - q) in
                        if minw.(v') +. w < minw.(v) then
                          minw.(v) <- minw.(v') +. w
                      done)
                    !dp_items;
                  let z = ref 0 in
                  for v = 1 to rhs do
                    if minw.(v) <= capacity +. 1e-9 then z := v
                  done;
                  !z
                end
              in
              let lifted = ref [] in
              List.iter
                (fun (j, a, compl, xv) ->
                  let z = best_profit (b -. a) in
                  let pi = if z < 0 then 0 else rhs - z in
                  if pi >= 1 then begin
                    lifted := (j, float_of_int pi, compl, xv) :: !lifted;
                    dp_items := (a, pi) :: !dp_items
                  end)
                outside;
              if !lifted = [] then None (* degenerates to the plain cover *)
              else begin
                let frhs = float_of_int rhs in
                let lhs =
                  List.fold_left (fun acc (_, _, _, xv) -> acc +. xv) 0.0 cover
                  +. List.fold_left
                       (fun acc (_, pi, _, xv) -> acc +. (pi *. xv))
                       0.0 !lifted
                in
                if lhs <= frhs +. viol_tol then None
                else
                  Some
                    (to_x_space ~family:name
                       (List.map (fun (j, _, compl, _) -> (j, 1.0, compl)) cover
                       @ List.map
                           (fun (j, pi, compl, _) -> (j, pi, compl))
                           (List.rev !lifted))
                       frhs)
              end
            end)

  let separate ctx =
    let cuts = ref [] in
    for r = 0 to ctx.p.Problem.nrows - 1 do
      match lift_row ctx.p ctx.x r with
      | Some c -> cuts := c :: !cuts
      | None -> ()
    done;
    !cuts
end

(* --- Gomory mixed-integer cuts ------------------------------------------- *)

(* Read fractional rows of the optimal tableau: for an integer basic
   variable x_B with value b̂ the row reads  x_B + Σ_w ā_w z_w = 0
   (homogeneous: every constraint is A x - s = 0). Complementing each
   nonbasic to its distance-from-bound t_w ≥ 0 gives
   x_B + Σ ã_w t_w = b̂, and with f0 = frac(b̂) the GMI inequality
       Σ_int g(ã_w) t_w + Σ_cont g_c(ã_w) t_w ≥ f0
   is valid. Translating t back to z and substituting each slack by its
   row activity yields a structural-space cut. Derivation uses the
   instance's current bounds, so the family is not bound-free: it only
   runs where bounds equal the problem's (the root). *)
module Gomory = struct
  let name = "gmi"
  let bound_free = false
  let min_frac = 0.01
  let eps = 1e-11

  (* Tableau rows of large LPs are dense — their support grows with the
     column count, and on the biggest Table-3 instances a single GMI row
     carries thousands of nonzeros. Appending such rows fills the LU
     factors and halves the pivot rate, and (measured on the 180-bank
     points) steers branching into *larger* proof trees than the
     cut-free relaxation. Past this size the family abstains; the
     sparse combinatorial separators and the node-level pool carry the
     instance instead. Sparsifying the rows does not work: the
     violation lives in the long tail of small coefficients, so a
     truncated row is no longer violated. *)
  let max_tableau_cols = 5000

  let cut_of_row p sx ~pos =
    let n = p.Problem.ncols in
    let bv = Simplex.basic_var sx pos in
    let is_int v =
      v < n
      &&
      match p.Problem.kind.(v) with
      | Problem.Integer | Problem.Binary -> true
      | Problem.Continuous -> false
    in
    if not (is_int bv) then None
    else begin
      let bval = Simplex.var_value sx bv in
      let f0 = bval -. Float.floor bval in
      if f0 < min_frac || f0 > 1.0 -. min_frac then None
      else begin
        let row = Simplex.tableau_row sx ~pos in
        let nt = Array.length row in
        let gamma = Array.make n 0.0 in
        let rhs = ref f0 in
        let ok = ref true in
        (* coefficient of t_w under the GMI formula *)
        let gmi_coef ~integer a =
          if integer then begin
            let f = a -. Float.floor a in
            if f <= eps || f >= 1.0 -. eps then 0.0
            else if f <= f0 then f
            else f0 *. (1.0 -. f) /. (1.0 -. f0)
          end
          else if a >= 0.0 then a
          else f0 *. -.a /. (1.0 -. f0)
        in
        (* a coefficient g on variable z (z = l + t or z = u - t) *)
        let add_z v coef =
          if Float.abs coef > eps then
            if v < n then gamma.(v) <- gamma.(v) +. coef
            else
              (* slack: s_r = A_r x *)
              Problem.row_iter p (v - n) (fun j a ->
                  gamma.(j) <- gamma.(j) +. (coef *. a))
        in
        (try
           for v = 0 to nt - 1 do
             let a = row.(v) in
             if v <> bv && Float.abs a > eps then begin
               match Simplex.var_status sx v with
               | Simplex.Basic -> () (* residual of the unit columns *)
               | Simplex.Free_nonbasic -> raise Exit (* cannot complement *)
               | Simplex.At_lower ->
                   let l, _ = Simplex.var_bounds_all sx v in
                   let integer = is_int v && Float.is_integer l in
                   let g = gmi_coef ~integer a in
                   (* t = z - l:  g t ≥ …  ⇒  g z ≥ … + g l *)
                   add_z v g;
                   rhs := !rhs +. (g *. l)
               | Simplex.At_upper ->
                   let _, u = Simplex.var_bounds_all sx v in
                   let integer = is_int v && Float.is_integer u in
                   let g = gmi_coef ~integer (-.a) in
                   (* t = u - z:  g t ≥ …  ⇒  -g z ≥ … - g u *)
                   add_z v (-.g);
                   rhs := !rhs -. (g *. u)
             end
           done
         with Exit -> ok := false);
        if not !ok then None
        else begin
          (* numerical hygiene: drop tiny structural coefficients with a
             conservative rhs adjustment (valid for a ≥-cut as long as
             the dropped term is bounded), reject wild dynamic ranges
             and overly dense rows *)
          let terms = ref [] and nnz = ref 0 in
          let amax = ref 0.0 and amin = ref infinity in
          (try
             for j = n - 1 downto 0 do
               let g = gamma.(j) in
               let ag = Float.abs g in
               if ag > 1e-9 then begin
                 terms := (j, g) :: !terms;
                 incr nnz;
                 if ag > !amax then amax := ag;
                 if ag < !amin then amin := ag
               end
               else if ag > 0.0 then begin
                 let l = p.Problem.col_lb.(j) and u = p.Problem.col_ub.(j) in
                 let hi = Float.max (g *. l) (g *. u) in
                 if not (Float.is_finite hi) then raise Exit;
                 rhs := !rhs -. hi
               end
             done
           with Exit -> ok := false);
          if
            (not !ok)
            || !nnz < 1
            || !nnz > (p.Problem.ncols / 2) + 10
            || !amax /. !amin > 1e8
          then None
          else
            Some { family = name; terms = !terms; lb = !rhs; ub = infinity }
        end
      end
    end

  let separate ctx =
    match ctx.sx with
    | None -> []
    | Some sx when ctx.p.Problem.ncols <= max_tableau_cols ->
        let cuts = ref [] in
        for pos = 0 to Simplex.num_rows sx - 1 do
          match cut_of_row ctx.p sx ~pos with
          | Some c ->
              (* keep only cuts genuinely violated at the point *)
              if violation c ctx.x > viol_tol then cuts := c :: !cuts
          | None -> ()
        done;
        !cuts
    | Some _ -> []
end

let cover : t = (module Cover)
let lifted_cover : t = (module Lifted_cover)
let gomory : t = (module Gomory)
let of_string = function
  | "cover" -> Some cover
  | "lcover" -> Some lifted_cover
  | "gmi" -> Some gomory
  | _ -> None
