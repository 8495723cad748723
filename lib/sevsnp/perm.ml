type t = { read : bool; write : bool; user_exec : bool; super_exec : bool }

let none = { read = false; write = false; user_exec = false; super_exec = false }
let all = { read = true; write = true; user_exec = true; super_exec = true }
let rw = { none with read = true; write = true }
let rx = { none with read = true; user_exec = true; super_exec = true }
let r_user_exec = { none with read = true; user_exec = true }

let allows t access cpl =
  match (access : Types.access) with
  | Types.Read -> t.read
  | Types.Write -> t.write
  | Types.Execute -> ( match (cpl : Types.cpl) with Types.Cpl0 -> t.super_exec | Types.Cpl3 -> t.user_exec)

(* Packed form: the RMP stores permissions as one nibble per VMPL so
   the access check is a couple of bit tests. *)
let bit_read = 1
let bit_write = 2
let bit_user_exec = 4
let bit_super_exec = 8

let to_bits t =
  (if t.read then bit_read else 0)
  lor (if t.write then bit_write else 0)
  lor (if t.user_exec then bit_user_exec else 0)
  lor (if t.super_exec then bit_super_exec else 0)

let of_bits b =
  {
    read = b land bit_read <> 0;
    write = b land bit_write <> 0;
    user_exec = b land bit_user_exec <> 0;
    super_exec = b land bit_super_exec <> 0;
  }

let bits_allow bits access cpl =
  let bit =
    match (access : Types.access) with
    | Types.Read -> bit_read
    | Types.Write -> bit_write
    | Types.Execute -> ( match (cpl : Types.cpl) with Types.Cpl0 -> bit_super_exec | Types.Cpl3 -> bit_user_exec)
  in
  bits land bit <> 0

let subset a b =
  (not a.read || b.read)
  && (not a.write || b.write)
  && (not a.user_exec || b.user_exec)
  && (not a.super_exec || b.super_exec)

let union a b =
  {
    read = a.read || b.read;
    write = a.write || b.write;
    user_exec = a.user_exec || b.user_exec;
    super_exec = a.super_exec || b.super_exec;
  }

let inter a b =
  {
    read = a.read && b.read;
    write = a.write && b.write;
    user_exec = a.user_exec && b.user_exec;
    super_exec = a.super_exec && b.super_exec;
  }

let equal (a : t) b = a = b

let pp fmt t =
  let c b ch = if b then ch else '-' in
  Format.fprintf fmt "%c%c%c%c" (c t.read 'r') (c t.write 'w') (c t.user_exec 'u') (c t.super_exec 's')
