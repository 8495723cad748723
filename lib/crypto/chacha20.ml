let mask = 0xFFFFFFFF

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let word32_le b off = Int32.to_int (Bytes.get_int32_le b off) land mask

(* The input state: constants, key, counter (word 12, set per block)
   and nonce. *)
let setup ~key ~nonce =
  if Bytes.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
  if Bytes.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes";
  let st = Array.make 16 0 in
  st.(0) <- 0x61707865; st.(1) <- 0x3320646e; st.(2) <- 0x79622d32; st.(3) <- 0x6b206574;
  for i = 0 to 7 do st.(4 + i) <- word32_le key (4 * i) done;
  for i = 0 to 2 do st.(13 + i) <- word32_le nonce (4 * i) done;
  st

let[@inline] put ks st i x = Bytes.set_int32_le ks (4 * i) (Int32.of_int (x + Array.unsafe_get st i))

(* Twenty rounds over the 16 words held in locals, then the input is
   added back and the block written little-endian to [ks]. *)
let keystream st ks =
  let x0 = ref st.(0) and x1 = ref st.(1) and x2 = ref st.(2) and x3 = ref st.(3) in
  let x4 = ref st.(4) and x5 = ref st.(5) and x6 = ref st.(6) and x7 = ref st.(7) in
  let x8 = ref st.(8) and x9 = ref st.(9) and x10 = ref st.(10) and x11 = ref st.(11) in
  let x12 = ref st.(12) and x13 = ref st.(13) and x14 = ref st.(14) and x15 = ref st.(15) in
  for _ = 1 to 10 do
    (* columns *)
    x0 := (!x0 + !x4) land mask; x12 := rotl (!x12 lxor !x0) 16; x8 := (!x8 + !x12) land mask; x4 := rotl (!x4 lxor !x8) 12;
    x0 := (!x0 + !x4) land mask; x12 := rotl (!x12 lxor !x0) 8; x8 := (!x8 + !x12) land mask; x4 := rotl (!x4 lxor !x8) 7;
    x1 := (!x1 + !x5) land mask; x13 := rotl (!x13 lxor !x1) 16; x9 := (!x9 + !x13) land mask; x5 := rotl (!x5 lxor !x9) 12;
    x1 := (!x1 + !x5) land mask; x13 := rotl (!x13 lxor !x1) 8; x9 := (!x9 + !x13) land mask; x5 := rotl (!x5 lxor !x9) 7;
    x2 := (!x2 + !x6) land mask; x14 := rotl (!x14 lxor !x2) 16; x10 := (!x10 + !x14) land mask; x6 := rotl (!x6 lxor !x10) 12;
    x2 := (!x2 + !x6) land mask; x14 := rotl (!x14 lxor !x2) 8; x10 := (!x10 + !x14) land mask; x6 := rotl (!x6 lxor !x10) 7;
    x3 := (!x3 + !x7) land mask; x15 := rotl (!x15 lxor !x3) 16; x11 := (!x11 + !x15) land mask; x7 := rotl (!x7 lxor !x11) 12;
    x3 := (!x3 + !x7) land mask; x15 := rotl (!x15 lxor !x3) 8; x11 := (!x11 + !x15) land mask; x7 := rotl (!x7 lxor !x11) 7;
    (* diagonals *)
    x0 := (!x0 + !x5) land mask; x15 := rotl (!x15 lxor !x0) 16; x10 := (!x10 + !x15) land mask; x5 := rotl (!x5 lxor !x10) 12;
    x0 := (!x0 + !x5) land mask; x15 := rotl (!x15 lxor !x0) 8; x10 := (!x10 + !x15) land mask; x5 := rotl (!x5 lxor !x10) 7;
    x1 := (!x1 + !x6) land mask; x12 := rotl (!x12 lxor !x1) 16; x11 := (!x11 + !x12) land mask; x6 := rotl (!x6 lxor !x11) 12;
    x1 := (!x1 + !x6) land mask; x12 := rotl (!x12 lxor !x1) 8; x11 := (!x11 + !x12) land mask; x6 := rotl (!x6 lxor !x11) 7;
    x2 := (!x2 + !x7) land mask; x13 := rotl (!x13 lxor !x2) 16; x8 := (!x8 + !x13) land mask; x7 := rotl (!x7 lxor !x8) 12;
    x2 := (!x2 + !x7) land mask; x13 := rotl (!x13 lxor !x2) 8; x8 := (!x8 + !x13) land mask; x7 := rotl (!x7 lxor !x8) 7;
    x3 := (!x3 + !x4) land mask; x14 := rotl (!x14 lxor !x3) 16; x9 := (!x9 + !x14) land mask; x4 := rotl (!x4 lxor !x9) 12;
    x3 := (!x3 + !x4) land mask; x14 := rotl (!x14 lxor !x3) 8; x9 := (!x9 + !x14) land mask; x4 := rotl (!x4 lxor !x9) 7
  done;
  put ks st 0 !x0; put ks st 1 !x1; put ks st 2 !x2; put ks st 3 !x3;
  put ks st 4 !x4; put ks st 5 !x5; put ks st 6 !x6; put ks st 7 !x7;
  put ks st 8 !x8; put ks st 9 !x9; put ks st 10 !x10; put ks st 11 !x11;
  put ks st 12 !x12; put ks st 13 !x13; put ks st 14 !x14; put ks st 15 !x15

let block ~key ~nonce ~counter =
  let st = setup ~key ~nonce in
  st.(12) <- counter land mask;
  let ks = Bytes.create 64 in
  keystream st ks;
  ks

let encrypt ~key ~nonce ?(counter = 1) data =
  let st = setup ~key ~nonce in
  let len = Bytes.length data in
  let out = Bytes.create len and ks = Bytes.create 64 in
  let nblocks = (len + 63) / 64 in
  for b = 0 to nblocks - 1 do
    st.(12) <- (counter + b) land mask;
    keystream st ks;
    let off = b * 64 in
    let n = min 64 (len - off) in
    for i = 0 to (n / 8) - 1 do
      let j = off + (8 * i) in
      Bytes.set_int64_le out j (Int64.logxor (Bytes.get_int64_le data j) (Bytes.get_int64_le ks (8 * i)))
    done;
    for i = n land lnot 7 to n - 1 do
      Bytes.set out (off + i) (Char.chr (Char.code (Bytes.get data (off + i)) lxor Char.code (Bytes.get ks i)))
    done
  done;
  out
