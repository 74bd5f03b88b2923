(* splitmix64: fast, high-quality, splittable. State is a single int64. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value is non-negative as a native 63-bit int. *)
  let x = Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL) in
  x mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t =
  let x = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t n k =
  if k > n then invalid_arg "Rng.sample: k > n";
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  Array.to_list (Array.sub arr 0 k)
