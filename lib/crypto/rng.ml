type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

let byte t = int t 256

(* [n] draws of [byte]: bits 2..9 of each output.  The state stays in
   a local so the loop boxes no int64, and is stored once. *)
let bytes t n =
  let b = Bytes.create n in
  let s = ref t.state in
  for i = 0 to n - 1 do
    s := Int64.add !s golden;
    Bytes.unsafe_set b i (Char.unsafe_chr ((Int64.to_int (mix !s) lsr 2) land 0xff))
  done;
  t.state <- !s;
  b

let bool t = Int64.logand (next64 t) 1L = 1L

let split t = { state = mix (next64 t) }
