(* Crypto substrate tests: standard vectors + algebraic properties. *)

open Veil_crypto

let hex = Sha256.hex_of_digest

let check_hex msg expected got = Alcotest.(check string) msg expected (hex got)

(* --- SHA-256 (FIPS 180-4 / NIST vectors) --- *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc");
  check_hex "448-bit" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "896-bit, two blocks" "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.digest_string
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
  check_hex "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_string (String.make 1_000_000 'a'))

(* Reference model: textbook SHA-256 over a whole message, one round
   per loop turn with the eight-way state shuffle and masked
   rotations, independent of [Sha256]'s buffering and round layout. *)
let reference_sha256 msg =
  let mask = 0xFFFFFFFF in
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask in
  let k =
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
       0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
       0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
       0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
       0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
       0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
       0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
       0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]
  in
  let h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |] in
  let len = String.length msg in
  let padded = (len + 9 + 63) / 64 * 64 in
  let m = Bytes.make padded '\000' in
  Bytes.blit_string msg 0 m 0 len;
  Bytes.set m len '\x80';
  Bytes.set_int64_be m (padded - 8) (Int64.of_int (8 * len));
  let w = Array.make 64 0 in
  for blk = 0 to (padded / 64) - 1 do
    for i = 0 to 15 do
      w.(i) <- Int32.to_int (Bytes.get_int32_be m ((64 * blk) + (4 * i))) land mask
    done;
    for i = 16 to 63 do
      let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
      let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let t2 = (s0 + maj) land mask in
      hh := !g; g := !f; f := !e;
      e := (!d + t1) land mask;
      d := !c; c := !b; b := !a;
      a := (t1 + t2) land mask
    done;
    List.iteri (fun i v -> h.(i) <- (h.(i) + v) land mask) [ !a; !b; !c; !d; !e; !f; !g; !hh ]
  done;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) h;
  out

(* A message of 0..1000 bytes, padding-boundary lengths over-drawn,
   and the cut points that split it into [update] pieces. *)
let sha_message =
  let open QCheck.Gen in
  let len = frequency [ (1, oneofl [ 55; 56; 63; 64; 119; 120; 127; 128 ]); (2, 0 -- 1000) ] in
  len >>= fun n ->
  pair (string_size ~gen:char (return n)) (list_size (0 -- 12) (0 -- n))

let sha256_matches_reference =
  QCheck.Test.make ~name:"sha256 in pieces = reference model" ~count:2000
    (QCheck.make
       ~print:(fun (msg, cuts) ->
         Printf.sprintf "%d bytes cut at [%s]" (String.length msg)
           (String.concat "; " (List.map string_of_int cuts)))
       sha_message)
    (fun (msg, cuts) ->
      let ctx = Sha256.init () in
      let last =
        List.fold_left
          (fun pos cut ->
            Sha256.update_string ctx (String.sub msg pos (cut - pos));
            cut)
          0 (List.sort compare cuts)
      in
      Sha256.update ctx (Bytes.of_string (String.sub msg last (String.length msg - last)));
      Bytes.equal (Sha256.finalize ctx) (reference_sha256 msg))

let test_sha256_incremental () =
  let whole = Sha256.digest_string "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha256.init () in
  List.iter (Sha256.update_string ctx) [ "the quick brown "; "fox jumps"; ""; " over the lazy dog" ];
  Alcotest.(check string) "incremental = one-shot" (hex whole) (hex (Sha256.finalize ctx))

let test_sha256_block_boundaries () =
  (* lengths straddling the 55/56/64-byte padding boundaries *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update ctx (Bytes.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d byte-at-a-time" n)
        (hex (Sha256.digest_string s))
        (hex (Sha256.finalize ctx)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 127; 128; 129 ]

let test_hex_of_digest () =
  let all = Bytes.init 256 Char.chr in
  let reference = String.concat "" (List.init 256 (Printf.sprintf "%02x")) in
  Alcotest.(check string) "every byte value" reference (Sha256.hex_of_digest all);
  Alcotest.(check string) "empty" "" (Sha256.hex_of_digest Bytes.empty)

(* --- HMAC-SHA256 (RFC 4231) --- *)

let test_hmac_rfc4231 () =
  let case1 = Hmac.mac ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There") in
  check_hex "rfc4231 case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" case1;
  let case2 = Hmac.mac ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?") in
  check_hex "rfc4231 case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" case2;
  (* case 6: key longer than the block size *)
  let case6 =
    Hmac.mac ~key:(Bytes.make 131 '\xaa')
      (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")
  in
  check_hex "rfc4231 case 6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" case6

let test_hmac_verify () =
  let key = Bytes.of_string "secret" and msg = Bytes.of_string "message" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "verify ok" true (Hmac.verify ~key ~msg ~tag);
  Bytes.set tag 3 'z';
  Alcotest.(check bool) "tampered tag fails" false (Hmac.verify ~key ~msg ~tag);
  Alcotest.(check bool)
    "wrong key fails" false
    (Hmac.verify ~key:(Bytes.of_string "other") ~msg ~tag:(Hmac.mac ~key msg))

(* --- ChaCha20 (RFC 8439) --- *)

let test_chacha20_block () =
  let key = Bytes.init 32 Char.chr in
  let nonce = Bytes.of_string "\x00\x00\x00\x09\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let block = Chacha20.block ~key ~nonce ~counter:1 in
  Alcotest.(check string)
    "rfc8439 2.3.2 first 16 keystream bytes" "10f1e7e4d13b5915500fdd1fa32071c4"
    (hex (Bytes.sub block 0 16))

let test_chacha20_rfc_encrypt () =
  let key = Bytes.init 32 Char.chr in
  let nonce = Bytes.of_string "\x00\x00\x00\x00\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let pt =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, \
     sunscreen would be it."
  in
  let ct = Chacha20.encrypt ~key ~nonce ~counter:1 (Bytes.of_string pt) in
  Alcotest.(check string)
    "rfc8439 2.4.2 ciphertext"
    ("6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
   ^ "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
   ^ "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
   ^ "5af90bbf74a35be6b40b8eedf2785e42874d")
    (hex ct)

(* [encrypt] is the input XORed with consecutive [block]s from the
   starting counter, for partial and whole blocks alike. *)
let chacha_matches_blocks =
  QCheck.Test.make ~name:"chacha20 encrypt = xor with consecutive blocks" ~count:100
    QCheck.(triple (0 -- 300) small_nat (0 -- 0xFFFF_FFFF))
    (fun (len, seed, counter) ->
      let rng = Rng.create seed in
      let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 and data = Rng.bytes rng len in
      let expected =
        Bytes.mapi
          (fun i c ->
            let ks = Chacha20.block ~key ~nonce ~counter:(counter + (i / 64)) in
            Char.chr (Char.code c lxor Char.code (Bytes.get ks (i mod 64))))
          data
      in
      Bytes.equal expected (Chacha20.encrypt ~key ~nonce ~counter data))

let chacha_roundtrip =
  QCheck.Test.make ~name:"chacha20 roundtrip" ~count:100
    QCheck.(pair (bytes_of_size Gen.(0 -- 300)) small_nat)
    (fun (data, seed) ->
      let rng = Rng.create seed in
      let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 in
      Bytes.equal data (Chacha20.encrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce data)))

(* --- Bignum --- *)

let bn = Bignum.of_int

let small = QCheck.Gen.(0 -- 1_000_000)

let bignum_pair = QCheck.make QCheck.Gen.(pair small small)

let test_bignum_basic () =
  Alcotest.(check bool) "zero" true (Bignum.is_zero Bignum.zero);
  Alcotest.(check (option int)) "roundtrip" (Some 123456789) (Bignum.to_int_opt (bn 123456789));
  Alcotest.(check int) "compare" (-1) (Bignum.compare (bn 5) (bn 7));
  Alcotest.(check string) "hex" "ff" (Bignum.to_hex (bn 255));
  Alcotest.(check bool) "of_hex" true (Bignum.equal (Bignum.of_hex "deadbeef") (bn 0xdeadbeef));
  Alcotest.(check bool)
    "bytes roundtrip" true
    (Bignum.equal (bn 987654321) (Bignum.of_bytes_be (Bignum.to_bytes_be (bn 987654321))))

let test_bignum_underflow () =
  Alcotest.check_raises "sub underflow" Bignum.Underflow (fun () -> ignore (Bignum.sub (bn 3) (bn 5)));
  Alcotest.check_raises "div by zero" Bignum.Division_by_zero (fun () ->
      ignore (Bignum.divmod (bn 3) Bignum.zero))

let bignum_add_comm =
  QCheck.Test.make ~name:"bignum add commutative" ~count:200 bignum_pair (fun (a, b) ->
      Bignum.equal (Bignum.add (bn a) (bn b)) (Bignum.add (bn b) (bn a)))

let bignum_mul_matches_int =
  QCheck.Test.make ~name:"bignum mul matches int" ~count:200 bignum_pair (fun (a, b) ->
      Bignum.to_int_opt (Bignum.mul (bn a) (bn b)) = Some (a * b))

(* Operands of 1 to 16 limbs (26 bits each, so up to 416 bits), with the
   limbs 0, 1 and 2^26 - 1 over-represented: they drive the quotient
   estimate's corrections and the add-back step of long division. *)
let bignum_gen =
  let limb =
    QCheck.Gen.(frequency [ (1, return 0); (1, return 1); (1, return 0x3FF_FFFF); (3, 0 -- 0x3FF_FFFF) ])
  in
  QCheck.Gen.map
    (List.fold_left (fun acc l -> Bignum.add (Bignum.shift_left acc 26) (bn l)) Bignum.zero)
    QCheck.Gen.(list_size (1 -- 16) limb)

let bignum_divmod_identity =
  QCheck.Test.make ~name:"bignum a = q*b + r, r < b" ~count:2000
    (QCheck.make ~print:(fun (a, b) -> Bignum.to_hex a ^ " / " ^ Bignum.to_hex b)
       QCheck.Gen.(pair bignum_gen bignum_gen))
    (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let bignum_shift_roundtrip =
  QCheck.Test.make ~name:"bignum shift left then right" ~count:200
    (QCheck.make QCheck.Gen.(pair small (0 -- 120)))
    (fun (a, s) -> Bignum.equal (bn a) (Bignum.shift_right (Bignum.shift_left (bn a) s) s))

let test_bignum_powmod_fermat () =
  (* Fermat's little theorem on a known prime. *)
  let p = bn 1_000_003 in
  let rng = Rng.create 5 in
  for _ = 1 to 25 do
    let a = Bignum.add Bignum.one (Bignum.random_below rng (Bignum.sub p Bignum.two)) in
    let r = Bignum.powmod ~base:a ~exp:(Bignum.sub p Bignum.one) ~modulus:p in
    Alcotest.(check bool) "a^(p-1) = 1 mod p" true (Bignum.equal r Bignum.one)
  done

let test_bignum_invmod () =
  let m = bn 1_000_003 in
  let rng = Rng.create 9 in
  for _ = 1 to 25 do
    let a = Bignum.add Bignum.one (Bignum.random_below rng (Bignum.sub m Bignum.two)) in
    match Bignum.invmod a m with
    | None -> Alcotest.fail "inverse must exist modulo a prime"
    | Some inv ->
        Alcotest.(check bool) "a * a^-1 = 1" true (Bignum.equal (Bignum.rem (Bignum.mul a inv) m) Bignum.one)
  done;
  Alcotest.(check (option reject)) "gcd > 1 has no inverse"
    None
    (Option.map (fun _ -> ()) (Bignum.invmod (bn 6) (bn 9)))

let test_bignum_primality () =
  let rng = Rng.create 11 in
  List.iter
    (fun (n, expect) ->
      Alcotest.(check bool) (string_of_int n) expect (Bignum.is_probably_prime rng (bn n)))
    [ (2, true); (3, true); (4, false); (17, true); (561, false) (* Carmichael *); (7919, true);
      (1_000_003, true); (1_000_001, false) ]

let test_bignum_large_mul () =
  (* (2^200 - 1) * (2^200 + 1) = 2^400 - 1 *)
  let p200 = Bignum.shift_left Bignum.one 200 in
  let a = Bignum.sub p200 Bignum.one and b = Bignum.add p200 Bignum.one in
  let expected = Bignum.sub (Bignum.shift_left Bignum.one 400) Bignum.one in
  Alcotest.(check bool) "difference of squares" true (Bignum.equal (Bignum.mul a b) expected)

(* --- Group / DH / Schnorr --- *)

let test_group_structure () =
  let g = Group.default () in
  (* p = 2q + 1 *)
  Alcotest.(check bool) "p = 2q+1" true
    (Bignum.equal g.Group.p (Bignum.add (Bignum.shift_left g.Group.q 1) Bignum.one));
  (* g generates the order-q subgroup: g^q = 1 *)
  let gq = Bignum.powmod ~base:g.Group.g ~exp:g.Group.q ~modulus:g.Group.p in
  Alcotest.(check bool) "g^q = 1" true (Bignum.equal gq Bignum.one);
  Alcotest.(check bool) "g <> 1" false (Bignum.equal g.Group.g Bignum.one)

(* Pinned outputs: the default group is what the generator finds from
   its seed, and the key pairs and the launch measurement are derived
   from seeded PRNG draws through the Bignum and SHA-256 kernels, so
   any change to those kernels' results shows here. *)
let test_group_pinned () =
  let gen = Group.generate (Rng.create 0x5EC0DE) and def = Group.default () in
  Alcotest.(check string) "p" (Bignum.to_hex def.Group.p) (Bignum.to_hex gen.Group.p);
  Alcotest.(check string) "q" (Bignum.to_hex def.Group.q) (Bignum.to_hex gen.Group.q);
  Alcotest.(check string) "g" (Bignum.to_hex def.Group.g) (Bignum.to_hex gen.Group.g)

let test_keygen_pinned () =
  Alcotest.(check string) "schnorr public" "77dad5703268ef75f56ed3ab"
    (Bignum.to_hex (Schnorr.keygen (Rng.create 7)).Schnorr.public);
  Alcotest.(check string) "dh public" "b2ade91bf12ffb62b39ad172"
    (Bignum.to_hex (Dh.keygen (Rng.create 7)).Dh.public)

let test_launch_measurement_pinned () =
  let sys = Veil_core.Boot.boot_veil ~npages:2048 ~seed:7 () in
  Alcotest.(check (option string)) "launch measurement"
    (Some "d6870a1d3685710e0c1e21261c0930be90766f756702b6d5dc694ac27163d0fd")
    (Option.map hex (Sevsnp.Attestation.launch_measurement sys.Veil_core.Boot.platform.Sevsnp.Platform.attestation))

let test_dh_agreement () =
  let rng = Rng.create 21 in
  let a = Dh.keygen rng and b = Dh.keygen rng in
  let s1 = Dh.shared_secret ~secret:a.Dh.secret ~peer_public:b.Dh.public () in
  let s2 = Dh.shared_secret ~secret:b.Dh.secret ~peer_public:a.Dh.public () in
  Alcotest.(check string) "shared secrets agree" (hex s1) (hex s2);
  let c = Dh.keygen rng in
  let s3 = Dh.shared_secret ~secret:c.Dh.secret ~peer_public:a.Dh.public () in
  Alcotest.(check bool) "third party differs" false (Bytes.equal s1 s3)

let test_schnorr_sign_verify () =
  let rng = Rng.create 33 in
  let kp = Schnorr.keygen rng in
  let msg = Bytes.of_string "veil attestation report" in
  let s = Schnorr.sign rng ~secret:kp.Schnorr.secret msg in
  Alcotest.(check bool) "valid signature verifies" true (Schnorr.verify ~public:kp.Schnorr.public ~msg s);
  Alcotest.(check bool)
    "wrong message fails" false
    (Schnorr.verify ~public:kp.Schnorr.public ~msg:(Bytes.of_string "other") s);
  let other = Schnorr.keygen rng in
  Alcotest.(check bool) "wrong key fails" false (Schnorr.verify ~public:other.Schnorr.public ~msg s)

let test_schnorr_serialization () =
  let rng = Rng.create 44 in
  let kp = Schnorr.keygen rng in
  let s = Schnorr.sign rng ~secret:kp.Schnorr.secret (Bytes.of_string "x") in
  (match Schnorr.signature_of_bytes (Schnorr.signature_to_bytes s) with
  | Some s' ->
      Alcotest.(check bool) "roundtrip verifies" true
        (Schnorr.verify ~public:kp.Schnorr.public ~msg:(Bytes.of_string "x") s')
  | None -> Alcotest.fail "signature did not roundtrip");
  Alcotest.(check bool) "garbage rejected" true
    (Schnorr.signature_of_bytes (Bytes.of_string "zz") = None)

(* --- Measurement --- *)

let test_measurement_framing () =
  let m1 = Measurement.create ~domain:"d" in
  Measurement.add_string m1 ~label:"a" "bc";
  let m2 = Measurement.create ~domain:"d" in
  Measurement.add_string m2 ~label:"ab" "c";
  (* length framing must keep (a,"bc") and (ab,"c") distinct *)
  Alcotest.(check bool) "no framing collision" false
    (Bytes.equal (Measurement.digest m1) (Measurement.digest m2));
  let m3 = Measurement.create ~domain:"other" in
  Measurement.add_string m3 ~label:"a" "bc";
  let m4 = Measurement.create ~domain:"d" in
  Measurement.add_string m4 ~label:"a" "bc";
  Alcotest.(check bool) "domain separation" false
    (Bytes.equal (Measurement.digest m3) (Measurement.digest m4))

(* --- Rng determinism --- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done;
  let c = Rng.create 8 in
  Alcotest.(check bool) "different seed differs" false (Rng.next64 (Rng.create 7) = Rng.next64 c)

let test_rng_pinned () =
  let r = Rng.create 7 in
  Alcotest.(check string) "first 32 bytes" "7587807276843dbfd8dabacbd30c797eabb18dbe0bb3e73f8c7aae17d1079e2b"
    (hex (Rng.bytes r 32));
  Alcotest.(check int64) "next64 after them" 0x62184fdaeffa95c8L (Rng.next64 r)

let rng_bytes_are_byte_draws =
  QCheck.Test.make ~name:"rng bytes = byte draws, same state after" ~count:200
    QCheck.(pair small_nat (0 -- 300))
    (fun (seed, n) ->
      let a = Rng.create seed and b = Rng.create seed in
      let drawn = Bytes.init n (fun _ -> Char.chr (Rng.byte b)) in
      Bytes.equal (Rng.bytes a n) drawn && Rng.next64 a = Rng.next64 b)

let test_rng_bytes_unboxed () =
  let r = Rng.create 7 in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Rng.bytes r 4096));
  let words = Gc.minor_words () -. before in
  (* the 4 KiB result is allocated in the major heap *)
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words for 4096 bytes" words) true (words < 64.)

let rng_int_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:300
    (QCheck.make QCheck.Gen.(pair small_nat (1 -- 10000)))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let q = QCheck_alcotest.to_alcotest

let suite =
  [
    ("sha256 NIST vectors", `Quick, test_sha256_vectors);
    ("sha256 incremental", `Quick, test_sha256_incremental);
    ("sha256 block boundaries", `Quick, test_sha256_block_boundaries);
    ("hmac RFC 4231 vectors", `Quick, test_hmac_rfc4231);
    ("hmac verify", `Quick, test_hmac_verify);
    ("chacha20 RFC 8439 block", `Quick, test_chacha20_block);
    ("chacha20 RFC 8439 encrypt", `Quick, test_chacha20_rfc_encrypt);
    q chacha_roundtrip;
    q chacha_matches_blocks;
    ("sha256 hex_of_digest", `Quick, test_hex_of_digest);
    ("bignum basics", `Quick, test_bignum_basic);
    ("bignum underflow/divzero", `Quick, test_bignum_underflow);
    q bignum_add_comm;
    q bignum_mul_matches_int;
    q bignum_divmod_identity;
    q bignum_shift_roundtrip;
    ("bignum Fermat", `Quick, test_bignum_powmod_fermat);
    ("bignum invmod", `Quick, test_bignum_invmod);
    ("bignum Miller-Rabin", `Quick, test_bignum_primality);
    ("bignum large multiply", `Quick, test_bignum_large_mul);
    ("schnorr group structure", `Slow, test_group_structure);
    ("group pinned", `Quick, test_group_pinned);
    ("keygen pinned", `Quick, test_keygen_pinned);
    ("launch measurement pinned", `Quick, test_launch_measurement_pinned);
    ("dh agreement", `Quick, test_dh_agreement);
    ("schnorr sign/verify", `Quick, test_schnorr_sign_verify);
    ("schnorr serialization", `Quick, test_schnorr_serialization);
    ("measurement framing", `Quick, test_measurement_framing);
    ("rng determinism", `Quick, test_rng_deterministic);
    ("rng pinned", `Quick, test_rng_pinned);
    q rng_bytes_are_byte_draws;
    ("rng bytes boxes no int64", `Quick, test_rng_bytes_unboxed);
    q rng_int_bounds;
    q sha256_matches_reference;
  ]
