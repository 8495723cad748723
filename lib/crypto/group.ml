type t = { p : Bignum.t; q : Bignum.t; g : Bignum.t }

let generate ?(bits = 96) rng =
  (* Search odd q until both q and p = 2q+1 pass Miller-Rabin. *)
  let rec find_q () =
    let q = Bignum.random_bits rng (bits - 1) in
    let q = if Bignum.is_odd q then q else Bignum.add q Bignum.one in
    if Bignum.is_probably_prime ~rounds:12 rng q then begin
      let p = Bignum.add (Bignum.shift_left q 1) Bignum.one in
      if Bignum.is_probably_prime ~rounds:12 rng p then (p, q) else find_q ()
    end
    else find_q ()
  in
  let p, q = find_q () in
  (* g = h^2 mod p generates the order-q subgroup for any h with h^2 <> 1. *)
  let rec find_g () =
    let h = Bignum.add Bignum.two (Bignum.random_below rng (Bignum.sub p (Bignum.of_int 4))) in
    let g = Bignum.powmod ~base:h ~exp:Bignum.two ~modulus:p in
    if Bignum.equal g Bignum.one then find_g () else g
  in
  { p; q; g = find_g () }

(* [generate (Rng.create 0x5EC0DE)], precomputed: the search costs
   tens of milliseconds in every process that signs or agrees a key.
   A test checks that the generator still yields these values. *)
let default_group =
  {
    p = Bignum.of_hex "c996ce6bd23b517ea7a61cbb";
    q = Bignum.of_hex "64cb6735e91da8bf53d30e5d";
    g = Bignum.of_hex "e58b5989bb57849d4b4cbe8";
  }

let default () = default_group

let element_of_bytes t b =
  let h = Bignum.of_bytes_be (Sha256.digest_bytes b) in
  Bignum.add Bignum.one (Bignum.rem h (Bignum.sub t.q Bignum.one))
