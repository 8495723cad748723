(* State and schedule words are 32-bit values kept in native ints;
   [compress] computes on Int64 locals. *)

let mask = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
     0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
     0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
     0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

(* Compression runs on Int64 locals, which ocamlopt keeps unboxed in
   registers: a shift or logical op is one instruction with no tag bit
   to restore, and [lo32] is a 32-bit move.  Every rotation reads a
   doubled word: for a 32-bit x, [double x] holds two copies of x, and
   bits 0..31 of [double x lsr n] are x rotated right by n (n <= 32;
   SHA-256 rotates by 2 to 25).  The bits above 31 of a Σ or σ are
   junk.  Carries only move upward, so junk never reaches the low 32
   bits of a sum, and only a word that is rotated again (a schedule
   word, a round's new a and e) is cut to 32 bits. *)
let[@inline] lo32 x = Int64.logand x 0xFFFF_FFFFL
let[@inline] double x = Int64.logor x (Int64.shift_left x 32)

let[@inline] sum0 x =
  let xx = double x in
  Int64.(logxor (shift_right_logical xx 2) (logxor (shift_right_logical xx 13) (shift_right_logical xx 22)))

let[@inline] sum1 x =
  let xx = double x in
  Int64.(logxor (shift_right_logical xx 6) (logxor (shift_right_logical xx 11) (shift_right_logical xx 25)))

let[@inline] sig0 x =
  let xx = double x in
  Int64.(logxor (shift_right_logical xx 7) (logxor (shift_right_logical xx 18) (shift_right_logical x 3)))

let[@inline] sig1 x =
  let xx = double x in
  Int64.(logxor (shift_right_logical xx 17) (logxor (shift_right_logical xx 19) (shift_right_logical x 10)))

let[@inline] ch e f g = Int64.(logxor g (logand e (logxor f g)))
let[@inline] maj a b c = Int64.(logor (logand a b) (logand c (logor a b)))
let[@inline] word w i = Int64.of_int (Array.unsafe_get w i)

(* k.(i) + w.(i) as one term: both are below 2^32 *)
let[@inline] kw w i = Int64.of_int (Array.unsafe_get k i + Array.unsafe_get w i)

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    let s = Int64.(add (add (word w (i - 16)) (sig0 (word w (i - 15)))) (add (word w (i - 7)) (sig1 (word w (i - 2))))) in
    Array.unsafe_set w i (Int64.to_int (lo32 s))
  done;
  let h = ctx.h in
  let a = ref (word h 0) and b = ref (word h 1) and c = ref (word h 2) and d = ref (word h 3) in
  let e = ref (word h 4) and f = ref (word h 5) and g = ref (word h 6) and hh = ref (word h 7) in
  (* Eight rounds per turn, and no state word ever moves.  A round
     writes only d (which becomes e) and h (which becomes a); the next
     round reads every name shifted by one, so round i+1 takes
     (h, a, b, c, d, e, f, g) as its (a, ..., h), and after eight
     rounds the names line up again.  Ch is g ^ (e & (f ^ g)) and Maj
     is (a & b) | (c & (a | b)). *)
  for j = 0 to 7 do
    let i = 8 * j in
    let t1 = Int64.(add (add !hh (sum1 !e)) (add (ch !e !f !g) (kw w i))) in
    d := lo32 (Int64.add !d t1);
    hh := lo32 Int64.(add t1 (add (sum0 !a) (maj !a !b !c)));
    let t1 = Int64.(add (add !g (sum1 !d)) (add (ch !d !e !f) (kw w (i + 1)))) in
    c := lo32 (Int64.add !c t1);
    g := lo32 Int64.(add t1 (add (sum0 !hh) (maj !hh !a !b)));
    let t1 = Int64.(add (add !f (sum1 !c)) (add (ch !c !d !e) (kw w (i + 2)))) in
    b := lo32 (Int64.add !b t1);
    f := lo32 Int64.(add t1 (add (sum0 !g) (maj !g !hh !a)));
    let t1 = Int64.(add (add !e (sum1 !b)) (add (ch !b !c !d) (kw w (i + 3)))) in
    a := lo32 (Int64.add !a t1);
    e := lo32 Int64.(add t1 (add (sum0 !f) (maj !f !g !hh)));
    let t1 = Int64.(add (add !d (sum1 !a)) (add (ch !a !b !c) (kw w (i + 4)))) in
    hh := lo32 (Int64.add !hh t1);
    d := lo32 Int64.(add t1 (add (sum0 !e) (maj !e !f !g)));
    let t1 = Int64.(add (add !c (sum1 !hh)) (add (ch !hh !a !b) (kw w (i + 5)))) in
    g := lo32 (Int64.add !g t1);
    c := lo32 Int64.(add t1 (add (sum0 !d) (maj !d !e !f)));
    let t1 = Int64.(add (add !b (sum1 !g)) (add (ch !g !hh !a) (kw w (i + 6)))) in
    f := lo32 (Int64.add !f t1);
    b := lo32 Int64.(add t1 (add (sum0 !c) (maj !c !d !e)));
    let t1 = Int64.(add (add !a (sum1 !f)) (add (ch !f !g !hh) (kw w (i + 7)))) in
    e := lo32 (Int64.add !e t1);
    a := lo32 Int64.(add t1 (add (sum0 !b) (maj !b !c !d)))
  done;
  h.(0) <- (h.(0) + Int64.to_int !a) land mask;
  h.(1) <- (h.(1) + Int64.to_int !b) land mask;
  h.(2) <- (h.(2) + Int64.to_int !c) land mask;
  h.(3) <- (h.(3) + Int64.to_int !d) land mask;
  h.(4) <- (h.(4) + Int64.to_int !e) land mask;
  h.(5) <- (h.(5) + Int64.to_int !f) land mask;
  h.(6) <- (h.(6) + Int64.to_int !g) land mask;
  h.(7) <- (h.(7) + Int64.to_int !hh) land mask

let update ctx data =
  let len = Bytes.length data in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* top up a partial block first *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit data 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx data !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit data !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

let finalize ctx =
  let total_bits = ctx.total * 8 in
  let pad_len =
    let rem = (ctx.total + 1) mod 64 in
    if rem <= 56 then 56 - rem + 1 else 64 - rem + 56 + 1
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  Bytes.set_int64_be pad pad_len (Int64.of_int total_bits);
  (* update would adjust [total]; that is harmless after length capture *)
  update ctx pad;
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  out

let digest_bytes b =
  let ctx = init () in
  update ctx b;
  finalize ctx

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let hex_digits = "0123456789abcdef"

let hex_of_digest d =
  let n = Bytes.length d in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.unsafe_get d i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string out
