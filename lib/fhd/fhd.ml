module Bitset = Kit.Bitset
module Rational = Kit.Rational
module Hypergraph = Hg.Hypergraph

module Frac_cover = struct
  type t = { weight : float; gamma : (int * float) list }

  let eps = 1e-7

  let fail what =
    failwith ("Fhd.Frac_cover: duality certificate failed: " ^ what)

  (* Per-domain scratch: the LP's 0/1 matrix, row-major (row i is
     candidate edge cands.(i), column j vertex xs.(j)), and row_of, edge id
     -> row or -1. *)
  type scratch = { mutable matrix : Bytes.t; mutable row_of : int array }

  let scratch =
    Domain.DLS.new_key (fun () -> { matrix = Bytes.empty; row_of = [||] })

  (* Solves the packing dual of ρ*(X). [None], without solving, when some
     vertex of X lies in no candidate edge. *)
  let solve ?edges h x =
    let pool =
      match edges with Some e -> e | None -> Hypergraph.all_edges h
    in
    let cands = Bitset.inter pool (Hypergraph.edges_touching h x) in
    if not (Bitset.subset x (Hypergraph.vertices_of_edges h cands)) then None
    else begin
      let cands = Array.of_list (Bitset.to_list cands) in
      let xs = Array.of_list (Bitset.to_list x) in
      let ne = Array.length cands and nv = Array.length xs in
      let s = Domain.DLS.get scratch in
      if Bytes.length s.matrix < ne * nv then
        s.matrix <- Bytes.create (ne * nv);
      if Array.length s.row_of < h.Hypergraph.n_edges then
        s.row_of <- Array.make h.Hypergraph.n_edges (-1);
      let matrix = s.matrix and row_of = s.row_of in
      Bytes.fill matrix 0 (ne * nv) '\000';
      Array.iteri (fun i e -> row_of.(e) <- i) cands;
      let j = ref 0 in
      let mark e =
        let i = row_of.(e) in
        if i >= 0 then Bytes.set matrix ((i * nv) + !j) '\001'
      in
      while !j < nv do
        Bitset.iter mark h.Hypergraph.incidence.(xs.(!j));
        incr j
      done;
      Array.iter (fun e -> row_of.(e) <- -1) cands;
      let inc i j = Bytes.get matrix ((i * nv) + j) <> '\000' in
      Some (inc, cands, xs, Lp.pack ~rows:ne ~cols:nv inc)
    end

  (* Float duality certificate: γ >= 0 covers X, y >= 0 packs every
     candidate edge, and Σγ = Σy = value, all within [eps]. By weak
     duality value is then ρ*(X) up to [eps]. Plain loops over float refs:
     a fold would box every partial sum. *)
  let certify inc ~ne ~nv { Lp.value; gamma; y } =
    let sg = ref 0.0 and sy = ref 0.0 in
    for i = 0 to ne - 1 do
      if gamma.(i) < 0.0 then fail "negative gamma";
      sg := !sg +. gamma.(i);
      let load = ref 0.0 in
      for j = 0 to nv - 1 do
        if inc i j then load := !load +. y.(j)
      done;
      if !load > 1.0 +. eps then fail "y overloads a candidate edge"
    done;
    for j = 0 to nv - 1 do
      if y.(j) < 0.0 then fail "negative y";
      sy := !sy +. y.(j);
      let cover = ref 0.0 in
      for i = 0 to ne - 1 do
        if inc i j then cover := !cover +. gamma.(i)
      done;
      if !cover < 1.0 -. eps then fail "gamma leaves a vertex uncovered"
    done;
    if Float.abs (!sg -. value) > eps || Float.abs (!sy -. value) > eps then
      fail "objectives differ"

  let rho_star ?edges h x =
    match solve ?edges h x with
    | None -> None
    | Some (inc, cands, xs, sol) ->
        certify inc ~ne:(Array.length cands) ~nv:(Array.length xs) sol;
        let gamma = ref [] in
        for i = Array.length cands - 1 downto 0 do
          let g = sol.Lp.gamma.(i) in
          if g > eps then gamma := (cands.(i), g) :: !gamma
        done;
        Some { weight = sol.Lp.value; gamma = !gamma }

  (* Certified bounds without an LP. No edge holds two of the packed
     vertices, so y = 1 on them packs every edge: a lower bound. The
     greedy cover is a feasible integral cover: an upper bound. *)
  let greedy_packing h x =
    let picked = Bitset.empty h.Hypergraph.n_vertices in
    let blocked = Bitset.empty h.Hypergraph.n_vertices in
    Bitset.iter
      (fun v ->
        if not (Bitset.mem v blocked) then begin
          Bitset.add_in_place v picked;
          Bitset.union_indexed_into ~into:blocked h.Hypergraph.edges
            h.Hypergraph.incidence.(v)
        end)
      x;
    picked

  (* Repeatedly covers the smallest uncovered vertex by the edge through
     it that covers the most uncovered vertices (ties to the lowest id). *)
  let greedy_cover h x =
    let left = Bitset.copy x in
    let rec go acc =
      let v = Bitset.first left in
      if v < 0 then Some (List.rev acc)
      else begin
        let best = ref (-1) and gain = ref 0 in
        Bitset.iter
          (fun e ->
            let g = Bitset.inter_cardinal (Hypergraph.edge h e) left in
            if g > !gain then begin
              best := e;
              gain := g
            end)
          h.Hypergraph.incidence.(v);
        if !best < 0 then None
        else begin
          Bitset.diff_into ~into:left (Hypergraph.edge h !best);
          go (!best :: acc)
        end
      end
    in
    go []

  let verify h x { weight; gamma } =
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 gamma in
    Float.abs (total -. weight) <= 1e-5
    && List.for_all (fun (_, w) -> w >= -.eps && w <= 1.0 +. eps) gamma
    && Bitset.for_all
         (fun v ->
           let cover =
             List.fold_left
               (fun acc (e, w) ->
                 if Bitset.mem v (Hypergraph.edge h e) then acc +. w else acc)
               0.0 gamma
           in
           cover >= 1.0 -. 1e-5)
         x

  (* The same certificate in exact arithmetic, on the float pair rounded
     to denominators <= [max_den]. *)
  let rho_star_exact ?edges ?(max_den = 1024) h x =
    match solve ?edges h x with
    | None -> None
    | Some (inc, cands, xs, sol) ->
        let ne = Array.length cands and nv = Array.length xs in
        let q = Array.map (Rational.of_float_approx ~max_den) in
        let gamma = q sol.Lp.gamma and y = q sol.Lp.y in
        let zero = Rational.zero and one = Rational.one in
        let ( >=/ ) a b = Rational.compare a b >= 0 in
        let sum n f =
          let s = ref zero in
          for k = 0 to n - 1 do
            s := Rational.add !s (f k)
          done;
          !s
        in
        let nonneg = Array.for_all (fun r -> r >=/ zero) in
        if not (nonneg gamma && nonneg y) then fail "negative weight";
        for i = 0 to ne - 1 do
          let load = sum nv (fun j -> if inc i j then y.(j) else zero) in
          if not (one >=/ load) then fail "y overloads a candidate edge"
        done;
        for j = 0 to nv - 1 do
          let cover = sum ne (fun i -> if inc i j then gamma.(i) else zero) in
          if not (cover >=/ one) then fail "gamma leaves a vertex uncovered"
        done;
        let total = sum ne (Array.get gamma) in
        if not (Rational.equal total (sum nv (Array.get y))) then
          fail "objectives differ";
        Some total
end

module Improve_hd = struct
  let fractional_cover_of_bag h bag =
    match Frac_cover.rho_star h bag with
    | Some c -> c.Frac_cover.gamma
    | None ->
        (* Bags produced by our HD algorithms are always coverable. *)
        assert false

  let rec improve h (u : Decomp.node) : Decomp.Fractional.fnode =
    {
      Decomp.Fractional.fbag = u.Decomp.bag;
      fcover = fractional_cover_of_bag h u.Decomp.bag;
      fchildren = List.map (improve h) u.Decomp.children;
    }

  let improved_width h d = Decomp.Fractional.width (improve h d)
end

module Frac_improve_hd = struct
  type outcome =
    | Improved of Decomp.Fractional.fhd * float
    | No_improvement
    | Timeout

  module Memo = Hashtbl.Make (Bitset)

  (* ρ* bounds per bag, memoised: they do not depend on the threshold,
     so one table serves a whole tightening loop. [lo] and [hi] are the
     greedy packing and cover sizes (infinity when the bag is
     uncoverable); [rho] is the LP's value once solved. *)
  type entry = { lo : float; hi : float; mutable rho : float option }

  (* A bag passes at k' when the LP says ρ* <= k' + 1e-6. The certified
     LP value lies within 1e-7 * (ρ* + 1) of ρ* (see [Frac_cover.certify]),
     so a bound that clears the limit by [margin] already gives the LP's
     answer, and the LP runs only for bags whose bounds straddle it. *)
  let memo_filter h =
    let cache = Memo.create 256 in
    fun ~k' bag ->
      let e =
        match Memo.find_opt cache bag with
        | Some e -> e
        | None ->
            let e =
              match Frac_cover.greedy_cover h bag with
              | None -> { lo = infinity; hi = infinity; rho = None }
              | Some cover ->
                  {
                    lo = float (Bitset.cardinal (Frac_cover.greedy_packing h bag));
                    hi = float (List.length cover);
                    rho = None;
                  }
            in
            Memo.add cache bag e;
            e
      in
      let limit = k' +. 1e-6 in
      let margin = 1e-5 *. Float.max 1.0 limit in
      if e.hi <= limit -. margin then true
      else if e.lo > limit +. margin then false
      else
        let rho =
          match e.rho with
          | Some v -> v
          | None ->
              let v =
                match Frac_cover.rho_star h bag with
                | Some c -> c.Frac_cover.weight
                | None -> infinity
              in
              e.rho <- Some v;
              v
        in
        rho <= limit

  let check_with filter ?deadline h ~k ~k' =
    match
      Detk.solve_gen ?deadline ~bag_filter:(filter ~k')
        ~candidates:(Detk.candidates_of_edges h) h ~k
    with
    | Detk.Decomposition d ->
        let fhd = Improve_hd.improve h d in
        Improved (fhd, Decomp.Fractional.width fhd)
    | Detk.No_decomposition -> No_improvement
    | Detk.Timeout -> Timeout

  let check ?deadline h ~k ~k' = check_with (memo_filter h) ?deadline h ~k ~k'

  let best ?deadline ?(step = 0.1) h ~k =
    (* Start from any HD of width <= k, then tighten the threshold. *)
    match Detk.solve ?deadline h ~k with
    | Detk.No_decomposition | Detk.Timeout -> None
    | Detk.Decomposition d ->
        let initial = Improve_hd.improve h d in
        let filter = memo_filter h in
        let rec tighten best_fhd best_width =
          let target = best_width -. step in
          if target < 1.0 -. 1e-9 then Some (best_fhd, best_width)
          else
            match check_with filter ?deadline h ~k ~k':target with
            | Improved (fhd, w) ->
                (* The returned width can beat the target; keep tightening
                   from the actually achieved width. *)
                tighten fhd (Float.min w target)
            | No_improvement | Timeout -> Some (best_fhd, best_width)
        in
        tighten initial (Decomp.Fractional.width initial)
end
