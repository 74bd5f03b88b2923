type t = int64

let init = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let add_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

let add_char h c = add_byte h (Char.code c)

(* Plain loops over a local ref: the compiler keeps the state unboxed,
   where a [String.iter] closure would box an [Int64] per byte. *)
let add_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := add_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let add_int h n =
  let v = Int64.of_int n in
  let h = ref h in
  for i = 0 to 7 do
    h := add_byte !h (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done;
  !h

let to_hex h = Printf.sprintf "%016Lx" h
