(* Bitsets backed by int arrays. The universe size is stored in the first
   cell so that sets over different universes cannot be mixed silently.
   Words hold [bits] elements each.

   Two API layers share the representation:
   - the immutable operations ([union], [add], ...) allocate their result
     and are the reference semantics;
   - the in-place kernel ([union_into], [add_in_place], ...) mutates its
     destination and exists for hot loops that would otherwise allocate a
     fresh array per fold step. A set reachable from two places must never
     be mutated; the search cores only mutate buffers they own (usually
     borrowed from a {!Scratch} arena). *)

let bits = Sys.int_size

type t = int array
(* t.(0) = universe size; t.(1..) = bit words. *)

let words n = (n + bits - 1) / bits

let empty n =
  assert (n >= 0);
  Array.make (1 + words n) 0 |> fun a -> a.(0) <- n; a

let universe s = s.(0)

let check_elt s x =
  if x < 0 || x >= s.(0) then
    invalid_arg (Printf.sprintf "Bitset: element %d outside universe %d" x s.(0))

let full n =
  let s = empty n in
  let w = words n in
  for i = 1 to w do s.(i) <- -1 done;
  (* Clear the bits beyond n in the last word. *)
  let rem = n mod bits in
  if w > 0 && rem <> 0 then s.(w) <- s.(w) land ((1 lsl rem) - 1);
  s

let mem x s =
  check_elt s x;
  s.(1 + x / bits) land (1 lsl (x mod bits)) <> 0

let same_universe a b =
  if a.(0) <> b.(0) then
    invalid_arg
      (Printf.sprintf "Bitset: universes differ (%d vs %d)" a.(0) b.(0))

(* --- in-place kernel ---------------------------------------------------- *)

let clear s = Array.fill s 1 (Array.length s - 1) 0

let add_in_place x s =
  check_elt s x;
  s.(1 + x / bits) <- s.(1 + x / bits) lor (1 lsl (x mod bits))

let remove_in_place x s =
  check_elt s x;
  s.(1 + x / bits) <- s.(1 + x / bits) land lnot (1 lsl (x mod bits))

let copy_into src ~into =
  same_universe src into;
  Array.blit src 1 into 1 (Array.length src - 1)

let union_into ~into s =
  same_universe into s;
  for i = 1 to Array.length into - 1 do
    into.(i) <- into.(i) lor s.(i)
  done

let inter_into ~into s =
  same_universe into s;
  for i = 1 to Array.length into - 1 do
    into.(i) <- into.(i) land s.(i)
  done

let diff_into ~into s =
  same_universe into s;
  for i = 1 to Array.length into - 1 do
    into.(i) <- into.(i) land lnot s.(i)
  done

let word_count n = words n

(* The flat-row boundary: one universe check and one bounds-checked blit
   per call, so a caller's word loops never see the header cell. *)
let check_row ~universe s what =
  if s.(0) <> universe then
    invalid_arg
      (Printf.sprintf "Bitset.%s: universe %d, row laid out for %d" what s.(0)
         universe)

let words_out ~universe s row off =
  check_row ~universe s "words_out";
  Array.blit s 1 row off (Array.length s - 1)

let words_in ~universe row off s =
  check_row ~universe s "words_in";
  Array.blit row off s 1 (Array.length s - 1)

(* --- immutable reference operations ------------------------------------- *)

let copy = Array.copy

let add x s =
  check_elt s x;
  let s' = Array.copy s in
  s'.(1 + x / bits) <- s'.(1 + x / bits) lor (1 lsl (x mod bits));
  s'

let remove x s =
  check_elt s x;
  let s' = Array.copy s in
  s'.(1 + x / bits) <- s'.(1 + x / bits) land lnot (1 lsl (x mod bits));
  s'

let singleton n x =
  let s = empty n in
  add_in_place x s;
  s

let of_list n xs =
  let s = empty n in
  List.iter (fun x -> add_in_place x s) xs;
  s

let map2 f a b =
  same_universe a b;
  let r = Array.copy a in
  for i = 1 to Array.length a - 1 do r.(i) <- f a.(i) b.(i) done;
  r

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

(* The scan predicates below use top-level recursive helpers rather than
   local [let rec go i = ...] closures: a local closure captures its
   environment and is allocated on every call, which shows up badly when
   [subset]/[intersects] run once per edge in the component BFS. With all
   state passed as arguments these compile to closed loops — zero
   allocation. *)

let rec empty_from s i = i >= Array.length s || (s.(i) = 0 && empty_from s (i + 1))
let is_empty s = empty_from s 1

let rec equal_from a b i =
  i >= Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

let equal a b =
  same_universe a b;
  equal_from a b 1

let rec compare_from a b i =
  if i >= Array.length a then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare a b =
  same_universe a b;
  compare_from a b 1

let rec subset_from a b i =
  i >= Array.length a || (a.(i) land lnot b.(i) = 0 && subset_from a b (i + 1))

let subset a b =
  same_universe a b;
  subset_from a b 1

let rec intersects_from a b i =
  i < Array.length a && (a.(i) land b.(i) <> 0 || intersects_from a b (i + 1))

let intersects a b =
  same_universe a b;
  intersects_from a b 1

(* --- population count and iteration ------------------------------------- *)

(* Word-parallel (SWAR) popcount. The usual 64-bit masks do not fit in
   OCaml's 63-bit int literals, so they are assembled by shifting; on a
   63-bit int the top 2-bit field is the lone bit 62, for which the
   pairwise-subtract step still holds (there is no bit 63 to borrow
   from). Falls back to the subtract-lowest-bit loop on sub-64-bit
   platforms, where the [lsl 32] mask assembly would be meaningless. *)
let m1 = 0x5555_5555 lor (0x5555_5555 lsl 32)
let m2 = 0x3333_3333 lor (0x3333_3333 lsl 32)
let m4 = 0x0F0F_0F0F lor (0x0F0F_0F0F lsl 32)

let popcount_loop x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let popcount_swar x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  let x = x + (x lsr 32) in
  x land 0x7f

let popcount x = if bits > 32 then popcount_swar x else popcount_loop x

let rec cardinal_from s i acc =
  if i >= Array.length s then acc else cardinal_from s (i + 1) (acc + popcount s.(i))

let cardinal s = cardinal_from s 1 0

let rec inter_cardinal_from a b i acc =
  if i >= Array.length a then acc
  else inter_cardinal_from a b (i + 1) (acc + popcount (a.(i) land b.(i)))

let inter_cardinal a b =
  same_universe a b;
  inter_cardinal_from a b 1 0

(* Count-trailing-zeros via a De Bruijn-style perfect hash: for an
   isolated bit [b = 2^i], [(b * ctz_magic) lsr ctz_shift] is a distinct
   table index for every i in [0, bits). The classic 64-bit De Bruijn
   constant does not survive OCaml's mod-2^63 arithmetic, so the
   multiplier is found once at module initialisation by stepping odd
   constants until the hash is collision-free over all [bits] powers of
   two — the table is correct by construction and the search is a few
   dozen probes at most (128 slots for at most 63 keys). *)
let ctz_shift = bits - 7

let ctz_magic =
  let perfect m =
    let seen = Array.make 128 false in
    let rec go i =
      i >= bits
      ||
      let key = (m * (1 lsl i)) lsr ctz_shift in
      (not seen.(key)) && (seen.(key) <- true; go (i + 1))
    in
    go 0
  in
  let rec find m = if perfect m then m else find (m + 2) in
  find 0x0218_A392_CD3D_5DBF

let ctz_table =
  let t = Array.make 128 0 in
  for i = 0 to bits - 1 do
    t.((ctz_magic * (1 lsl i)) lsr ctz_shift) <- i
  done;
  t

let ctz b = ctz_table.((b * ctz_magic) lsr ctz_shift)

(* Word state threaded through a tail call instead of a [ref]: an int ref
   is a heap block, and [iter] runs once per word of every set the search
   scans. *)
let rec iter_word f base w =
  if w <> 0 then begin
    let b = w land (-w) in
    f (base + ctz b);
    iter_word f base (w lxor b)
  end

let iter f s =
  for i = 1 to Array.length s - 1 do
    if s.(i) <> 0 then iter_word f ((i - 1) * bits) s.(i)
  done

let fold f s init =
  let acc = ref init in
  iter (fun x -> acc := f x !acc) s;
  !acc

let to_list s = List.rev (fold (fun x l -> x :: l) s [])

let rec first_from s i =
  if i >= Array.length s then -1
  else if s.(i) <> 0 then ((i - 1) * bits) + ctz (s.(i) land (- s.(i)))
  else first_from s (i + 1)

let first s = first_from s 1

let choose s =
  let x = first s in
  if x < 0 then None else Some x

(* [union_indexed_into ~into arr s] is [iter (fun i -> union_into ~into
   arr.(i)) s] without the closure: accumulation over an index set is the
   inner loop of both incidence directions ([vertices_of_edges],
   [edges_touching]), and at one closure per call those dominated what the
   in-place kernel left of the allocation profile. *)
let rec union_indexed_word ~into arr base w =
  if w <> 0 then begin
    let b = w land (-w) in
    union_into ~into arr.(base + ctz b);
    union_indexed_word ~into arr base (w lxor b)
  end

let union_indexed_into ~into arr s =
  for i = 1 to Array.length s - 1 do
    if s.(i) <> 0 then union_indexed_word ~into arr ((i - 1) * bits) s.(i)
  done

(* --- flat-row kernels ---------------------------------------------------- *)

(* The row counterparts of [union_indexed_into], [cardinal] and [first]
   for searches that keep their sets as flat word rows. *)

let rec union_indexed_row_word ~universe arr base w into off =
  if w <> 0 then begin
    let b = w land (-w) in
    let s = arr.(base + ctz b) in
    if s.(0) <> universe then check_row ~universe s "union_indexed_row";
    for j = 1 to Array.length s - 1 do
      into.(off + j - 1) <- into.(off + j - 1) lor s.(j)
    done;
    union_indexed_row_word ~universe arr base (w lxor b) into off
  end

let union_indexed_row ~universe arr idx ioff ~into off =
  for i = 0 to words (Array.length arr) - 1 do
    let w = idx.(ioff + i) in
    if w <> 0 then union_indexed_row_word ~universe arr (i * bits) w into off
  done

let row_cardinal ~universe row off =
  let c = ref 0 in
  for i = off to off + words universe - 1 do
    c := !c + popcount row.(i)
  done;
  !c

let rec row_pop_from row off i n =
  if i >= n then -1
  else
    let w = row.(off + i) in
    if w = 0 then row_pop_from row off (i + 1) n
    else begin
      let b = w land (-w) in
      row.(off + i) <- w lxor b;
      (i * bits) + ctz b
    end

let row_pop ~universe row off = row_pop_from row off 0 (words universe)

exception Stop
(* Constant exception, raised without allocating (unlike a [let exception
   Fail of ...] declared per call). *)

let for_all p s =
  try iter (fun x -> if not (p x) then raise_notrace Stop) s; true
  with Stop -> false

let exists p s = not (for_all (fun x -> not (p x)) s)

let filter p s =
  let r = empty s.(0) in
  iter (fun x -> if p x then add_in_place x r) s;
  r

(* The djb2 fold keeps each word's low bits in the low bits of the
   result, and [Hashtbl] buckets by the low bits: without the finaliser,
   sets that differ only in high vertices share a bucket. The finaliser
   is MurmurHash3's fmix64 with its multipliers cut to 62 bits (still
   odd, so nothing is lost); it spreads every bit into the low ones. *)
let hash s =
  let h = ref 5381 in
  for i = 1 to Array.length s - 1 do
    h := (!h * 33) lxor s.(i)
  done;
  let h = (!h lxor (!h lsr 33)) * 0x3f51_afd7_ed55_8ccd in
  let h = (h lxor (h lsr 33)) * 0x04ce_b9fe_1a85_ec53 in
  (h lxor (h lsr 33)) land max_int

let pp fmt s =
  Format.fprintf fmt "{%s}"
    (String.concat ", " (List.map string_of_int (to_list s)))

(* --- scratch arena ------------------------------------------------------- *)

module Scratch = struct
  (* A stack of reusable universe-sized buffers, keyed by universe size.
     Arenas are not thread-safe: each search call creates (or owns) its
     own, which also keeps borrow/release discipline local. The pool list
     is tiny in practice (one or two universes per search), so an assoc
     list beats a hash table. *)
  type set = t

  type arena = { mutable pools : (int * set list ref) list }

  let create () = { pools = [] }

  let pool a n =
    let rec find = function
      | [] ->
          let p = ref [] in
          a.pools <- (n, p) :: a.pools;
          p
      | (m, p) :: _ when m = n -> p
      | _ :: rest -> find rest
    in
    find a.pools

  let borrow a n =
    let p = pool a n in
    match !p with
    | s :: rest ->
        p := rest;
        clear s;
        s
    | [] -> empty n

  let release a s =
    let p = pool a (universe s) in
    p := s :: !p
end
