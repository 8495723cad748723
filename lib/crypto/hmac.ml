let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest_bytes key else key in
  let k = Bytes.make block_size '\000' in
  Bytes.blit key 0 k 0 (Bytes.length key);
  k

let xor_pad key byte =
  let out = Bytes.create block_size in
  for i = 0 to block_size - 1 do
    Bytes.set out i (Char.chr (Char.code (Bytes.get key i) lxor byte))
  done;
  out

let mac ~key msg =
  let k = normalize_key key in
  let inner = Sha256.init () in
  Sha256.update inner (xor_pad k 0x36);
  Sha256.update inner msg;
  let inner_digest = Sha256.finalize inner in
  let outer = Sha256.init () in
  Sha256.update outer (xor_pad k 0x5c);
  Sha256.update outer inner_digest;
  Sha256.finalize outer

let verify ~key ~msg ~tag =
  let expected = mac ~key msg in
  if Bytes.length expected <> Bytes.length tag then false
  else begin
    let diff = ref 0 in
    for i = 0 to Bytes.length expected - 1 do
      diff := !diff lor (Char.code (Bytes.get expected i) lxor Char.code (Bytes.get tag i))
    done;
    !diff = 0
  end
