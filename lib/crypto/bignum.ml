(* Little-endian limbs, base 2^26, normalized: highest limb non-zero.
   [zero] is the empty array. *)

type t = int array

exception Underflow
exception Division_by_zero

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

let zero : t = [||]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs n acc = if n = 0 then List.rev acc else limbs (n lsr limb_bits) ((n land limb_mask) :: acc) in
  Array.of_list (limbs n [])

let one = of_int 1
let two = of_int 2

let is_zero (a : t) = Array.length a = 0

let to_int_opt (a : t) =
  (* Fits when below 2^62 to stay clear of the sign bit. *)
  if Array.length a > 3 then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = Array.length a - 1 downto 0 do
      if !v >= 1 lsl (62 - limb_bits) then ok := false
      else v := (!v lsl limb_bits) lor a.(i)
    done;
    if !ok then Some !v else None
  end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let is_odd (a : t) = Array.length a > 0 && a.(0) land 1 = 1

let bit_length (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let b = ref 0 and v = ref top in
    while !v > 0 do incr b; v := !v lsr 1 done;
    (n - 1) * limb_bits + !b
  end

let testbit (a : t) i =
  let l = i / limb_bits in
  l < Array.length a && (a.(l) lsr (i mod limb_bits)) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then raise Underflow;
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin r.(i) <- s + limb_base; borrow := 1 end
    else begin r.(i) <- s; borrow := 0 end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry > 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left (a : t) bits : t =
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl off in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

let shift_right (a : t) bits : t =
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr off in
        let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - off)) land limb_mask else 0 in
        r.(i) <- if off = 0 then a.(i + limbs) else lo lor hi
      done;
      normalize r
    end
  end

(* Short division by a single limb: the running remainder times the
   base plus one limb stays below 2^52. *)
let divmod_limb (a : t) d : t * t =
  let q = Array.make (Array.length a) 0 and r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let x = (!r lsl limb_bits) lor Array.unsafe_get a i in
    q.(i) <- x / d;
    r := x mod d
  done;
  (normalize q, of_int !r)

(* Schoolbook long division, one quotient limb per step (Knuth TAOCP
   vol. 2, 4.3.1, Algorithm D).  Both operands are first shifted so the
   divisor's top limb has its high bit set; the two-limb estimate of
   each quotient limb is then at most 2 too large, the [qhat] loop
   below removes all but a rare last 1, and an add-back fixes that. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_limb a b.(0)
  else begin
    let n = Array.length b and m = Array.length a - Array.length b in
    let s = limb_bits - (bit_length b - ((n - 1) * limb_bits)) in
    let v = shift_left b s and a' = shift_left a s in
    let u = Array.make (m + n + 1) 0 and q = Array.make (m + 1) 0 in
    Array.blit a' 0 u 0 (Array.length a');
    let vtop = v.(n - 1) and vnext = v.(n - 2) in
    for j = m downto 0 do
      let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      while
        !rhat < limb_base
        && (!qhat >= limb_base || !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + vtop
      done;
      (* u[j..j+n] -= qhat * v, with a signed borrow [k] *)
      let k = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * Array.unsafe_get v i in
        let t = Array.unsafe_get u (i + j) - !k - (p land limb_mask) in
        Array.unsafe_set u (i + j) (t land limb_mask);
        k := (p lsr limb_bits) - (t asr limb_bits)
      done;
      let t = u.(j + n) - !k in
      u.(j + n) <- t land limb_mask;
      if t < 0 then begin
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let t = Array.unsafe_get u (i + j) + Array.unsafe_get v i + !carry in
          Array.unsafe_set u (i + j) (t land limb_mask);
          carry := t lsr limb_bits
        done;
        u.(j + n) <- (u.(j + n) + !carry) land limb_mask
      end;
      q.(j) <- !qhat
    done;
    (normalize q, shift_right (normalize (Array.sub u 0 n)) s)
  end

let rem a b = snd (divmod a b)

let powmod ~base ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let result = ref one and b = ref (rem base modulus) in
    let nbits = bit_length exp in
    for i = 0 to nbits - 1 do
      if testbit exp i then result := rem (mul !result !b) modulus;
      if i < nbits - 1 then b := rem (mul !b !b) modulus
    done;
    !result
  end

let gcd a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  if compare a b >= 0 then go a b else go b a

(* Extended Euclid with explicit signs on the Bezout coefficients. *)
let invmod a m =
  if is_zero m then raise Division_by_zero;
  let a = rem a m in
  if is_zero a then None
  else begin
    (* (old_r, r) magnitudes; (old_s, s) signed: (sign, mag), sign true = non-negative *)
    let old_r = ref m and r = ref a in
    let old_s = ref (true, zero) and s = ref (true, one) in
    let signed_sub (sx, x) (sy, y) =
      (* x - y with signs *)
      if sx = sy then (if compare x y >= 0 then (sx, sub x y) else (not sx, sub y x))
      else (sx, add x y)
    in
    let signed_mul_mag q (sx, x) = (sx, mul q x) in
    while not (is_zero !r) do
      let q, rm = divmod !old_r !r in
      old_r := !r; r := rm;
      let next_s = signed_sub !old_s (signed_mul_mag q !s) in
      old_s := !s; s := next_s
    done;
    if not (equal !old_r one) then None
    else begin
      let sign, mag = !old_s in
      let v = rem mag m in
      if sign || is_zero v then Some v else Some (sub m v)
    end
  end

let random_bits rng n =
  if n < 1 then invalid_arg "Bignum.random_bits";
  let nlimbs = (n + limb_bits - 1) / limb_bits in
  let r = Array.init nlimbs (fun _ -> Int64.to_int (Int64.logand (Rng.next64 rng) (Int64.of_int limb_mask))) in
  let top_bits = n - (nlimbs - 1) * limb_bits in
  r.(nlimbs - 1) <- (r.(nlimbs - 1) land ((1 lsl top_bits) - 1)) lor (1 lsl (top_bits - 1));
  normalize r

let random_below rng bound =
  if is_zero bound then invalid_arg "Bignum.random_below: zero bound";
  let bits = bit_length bound in
  let rec try_ () =
    let nlimbs = (bits + limb_bits - 1) / limb_bits in
    let r = normalize (Array.init nlimbs (fun _ -> Int64.to_int (Int64.logand (Rng.next64 rng) (Int64.of_int limb_mask)))) in
    let r = if bit_length r > bits then shift_right r (bit_length r - bits) else r in
    if compare r bound < 0 then r else try_ ()
  in
  try_ ()

let is_probably_prime ?(rounds = 20) rng n =
  if compare n two < 0 then false
  else if equal n two || equal n (of_int 3) then true
  else if not (is_odd n) then false
  else begin
    let n_minus_1 = sub n one in
    (* n-1 = 2^s * d *)
    let s = ref 0 and d = ref n_minus_1 in
    while not (is_odd !d) do d := shift_right !d 1; incr s done;
    let witness a =
      let x = ref (powmod ~base:a ~exp:!d ~modulus:n) in
      if equal !x one || equal !x n_minus_1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to !s - 1 do
             x := rem (mul !x !x) n;
             if equal !x n_minus_1 then begin composite := false; raise Exit end
           done
         with Exit -> ());
        !composite
      end
    in
    let rec go i =
      if i = 0 then true
      else begin
        let a = add two (random_below rng (sub n (of_int 3))) in
        if witness a then false else go (i - 1)
      end
    in
    go rounds
  end

let of_bytes_be b =
  let r = ref zero in
  Bytes.iter (fun c -> r := add (shift_left !r 8) (of_int (Char.code c))) b;
  !r

let to_bytes_be a =
  if is_zero a then Bytes.make 1 '\000'
  else begin
    let nbytes = (bit_length a + 7) / 8 in
    let b = Bytes.create nbytes in
    let v = ref a in
    for i = nbytes - 1 downto 0 do
      let lo = match to_int_opt (rem !v (of_int 256)) with Some x -> x | None -> assert false in
      Bytes.set b i (Char.chr lo);
      v := shift_right !v 8
    done;
    b
  end

let of_hex s =
  let r = ref zero in
  String.iter
    (fun c ->
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | '_' | ' ' -> -1
        | _ -> invalid_arg "Bignum.of_hex"
      in
      if d >= 0 then r := add (shift_left !r 4) (of_int d))
    s;
  !r

let to_hex a =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let nnib = (bit_length a + 3) / 4 in
    for i = nnib - 1 downto 0 do
      let nib =
        (if i * 4 / limb_bits < Array.length a then a.(i * 4 / limb_bits) lsr (i * 4 mod limb_bits) else 0)
        land 0xf
        lor
        (if (i * 4 mod limb_bits) > limb_bits - 4 && (i * 4 / limb_bits + 1) < Array.length a then
           (a.(i * 4 / limb_bits + 1) lsl (limb_bits - (i * 4 mod limb_bits))) land 0xf
         else 0)
      in
      Buffer.add_char buf "0123456789abcdef".[nib]
    done;
    (* strip leading zeros *)
    let s = Buffer.contents buf in
    let i = ref 0 in
    while !i < String.length s - 1 && s.[!i] = '0' do incr i done;
    String.sub s !i (String.length s - !i)
  end

let pp fmt a = Format.pp_print_string fmt (to_hex a)
