type solution = { value : float; gamma : float array; y : float array }

let eps = 1e-9

(* Simplex effort per fractional-cover LP (Kit.Metrics; recorded only when
   enabled). *)
let m_pivots = Kit.Metrics.counter "lp.pivots"
let m_solves = Kit.Metrics.counter "lp.solves"

(* One flat row-major tableau per domain: rows [0, m) are the constraints,
   row m holds the reduced costs z_j - c_j; columns are [y | slacks | rhs].
   Reusing it matters beyond speed: a fresh matrix of more than
   Max_young_wosize words would be allocated straight into the major heap
   on every solve. [nz] lists the pivot row's nonzero columns. *)
type scratch = {
  mutable t : float array;
  mutable basis : int array;
  mutable nz : int array;
}

let scratch =
  Domain.DLS.new_key (fun () -> { t = [||]; basis = [||]; nz = [||] })

(* The pivot row stays sparse (the matrix is 0/1 plus a slack identity),
   so the elimination only visits its nonzero columns. *)
let pivot { t; basis; nz } ~w ~m ~row ~col =
  Kit.Metrics.incr m_pivots;
  let r0 = row * w in
  let p = t.(r0 + col) in
  let k = ref 0 in
  for j = 0 to w - 1 do
    if t.(r0 + j) <> 0.0 then begin
      t.(r0 + j) <- t.(r0 + j) /. p;
      nz.(!k) <- j;
      incr k
    end
  done;
  for i = 0 to m do
    let i0 = i * w in
    let f = t.(i0 + col) in
    if i <> row && f <> 0.0 then
      for q = 0 to !k - 1 do
        let j = nz.(q) in
        t.(i0 + j) <- t.(i0 + j) -. (f *. t.(r0 + j))
      done
  done;
  basis.(row) <- col

let pack ~rows:m ~cols:n a =
  Kit.Metrics.incr m_solves;
  let w = n + m + 1 and rhs = n + m in
  let s = Domain.DLS.get scratch in
  if Array.length s.t < (m + 1) * w then s.t <- Array.make ((m + 1) * w) 0.0;
  if Array.length s.basis < m then s.basis <- Array.make m 0;
  if Array.length s.nz < w then s.nz <- Array.make w 0;
  let t = s.t and basis = s.basis in
  Array.fill t 0 ((m + 1) * w) 0.0;
  for i = 0 to m - 1 do
    let i0 = i * w in
    for j = 0 to n - 1 do
      if a i j then t.(i0 + j) <- 1.0
    done;
    t.(i0 + n + i) <- 1.0;
    t.(i0 + rhs) <- 1.0;
    basis.(i) <- n + i
  done;
  let z = m * w in
  for j = 0 to n - 1 do
    t.(z + j) <- -1.0
  done;
  let optimal = ref false in
  while not !optimal do
    let col = ref 0 in
    while !col < rhs && t.(z + !col) >= -.eps do
      incr col
    done;
    if !col = rhs then optimal := true
    else begin
      let col = !col in
      let row = ref (-1) and best = ref infinity in
      for i = 0 to m - 1 do
        let aij = t.((i * w) + col) in
        if aij > eps then begin
          let ratio = t.((i * w) + rhs) /. aij in
          if
            ratio < !best -. eps
            || (!row >= 0 && ratio <= !best +. eps && basis.(i) < basis.(!row))
          then begin
            best := ratio;
            row := i
          end
        end
      done;
      if !row < 0 then invalid_arg "Lp.pack: a column meets no row";
      pivot s ~w ~m ~row:!row ~col
    end
  done;
  let y = Array.make n 0.0 in
  for i = 0 to m - 1 do
    if basis.(i) < n then y.(basis.(i)) <- Float.max 0.0 t.((i * w) + rhs)
  done;
  let gamma = Array.init m (fun i -> Float.max 0.0 t.(z + n + i)) in
  { value = t.(z + rhs); gamma; y }
