type flags = { present : bool; writable : bool; user : bool; nx : bool }

let kernel_rw = { present = true; writable = true; user = false; nx = true }
let user_rw = { present = true; writable = true; user = true; nx = true }
let user_ro = { present = true; writable = false; user = true; nx = true }

type pte = { pte_gpfn : Types.gpfn; pte_flags : flags }

(* bit 0 present, bit 1 writable, bit 2 user, bit 58 NX (bit 63 on real
   hardware — kept below OCaml's 63-bit int sign bit), frame in bits 12.. *)
let bit_present = 1
let bit_write = 2
let bit_user = 4
let bit_nx = 1 lsl 58

let encode { pte_gpfn; pte_flags = f } =
  (if f.present then bit_present else 0)
  lor (if f.writable then bit_write else 0)
  lor (if f.user then bit_user else 0)
  lor (if f.nx then bit_nx else 0)
  lor (pte_gpfn lsl Types.page_shift)

let decode v =
  if v land bit_present = 0 then None
  else
    Some
      {
        pte_gpfn = (v lsr Types.page_shift) land 0x3FFFFFFFF;
        pte_flags =
          {
            present = true;
            writable = v land bit_write <> 0;
            user = v land bit_user <> 0;
            nx = v land bit_nx <> 0;
          };
      }

type io = {
  read_u64 : Types.gpa -> int;
  write_u64 : Types.gpa -> int -> unit;
  alloc_frame : unit -> Types.gpfn;
  invalidate : unit -> unit;
}

let levels = 3
let entries_per_level = 512
let va_bits = 9 * levels + Types.page_shift
let max_va = (1 lsl va_bits) - 1

let index ~level va =
  if va < 0 || va > max_va then invalid_arg (Printf.sprintf "Pagetable: va 0x%x out of range" va);
  (va lsr (Types.page_shift + (9 * level))) land (entries_per_level - 1)

let entry_gpa table_gpfn idx = Types.gpa_of_gpfn table_gpfn + (8 * idx)

(* Descend to the leaf table, allocating intermediate tables when
   [create] and they are absent.  Returns the leaf table's frame. *)
let rec descend io ~create table level va =
  if level = 0 then Some table
  else begin
    let gpa = entry_gpa table (index ~level va) in
    match decode (io.read_u64 gpa) with
    | Some { pte_gpfn; _ } -> descend io ~create pte_gpfn (level - 1) va
    | None ->
        if not create then None
        else begin
          let frame = io.alloc_frame () in
          io.write_u64 gpa
            (encode { pte_gpfn = frame; pte_flags = { present = true; writable = true; user = true; nx = false } });
          descend io ~create frame (level - 1) va
        end
  end

let map io ~root va pte =
  match descend io ~create:true root (levels - 1) va with
  | Some leaf ->
      io.write_u64 (entry_gpa leaf (index ~level:0 va)) (encode pte);
      io.invalidate ()
  | None -> assert false

let unmap io ~root va =
  match descend io ~create:false root (levels - 1) va with
  | None -> false
  | Some leaf ->
      let gpa = entry_gpa leaf (index ~level:0 va) in
      if decode (io.read_u64 gpa) = None then false
      else begin
        io.write_u64 gpa 0;
        io.invalidate ();
        true
      end

let protect io ~root va flags =
  match descend io ~create:false root (levels - 1) va with
  | None -> false
  | Some leaf -> (
      let gpa = entry_gpa leaf (index ~level:0 va) in
      match decode (io.read_u64 gpa) with
      | None -> false
      | Some { pte_gpfn; _ } ->
          io.write_u64 gpa (encode { pte_gpfn; pte_flags = flags });
          io.invalidate ();
          true)

let walk ~read_u64 ~root va =
  let rec go table level =
    let gpa = entry_gpa table (index ~level va) in
    match decode (read_u64 gpa) with
    | None -> None
    | Some pte -> if level = 0 then Some pte else go pte.pte_gpfn (level - 1)
  in
  go root (levels - 1)

let iter_leaves ~read_u64 ~root f =
  let rec go table level va_base =
    for i = 0 to entries_per_level - 1 do
      match decode (read_u64 (entry_gpa table i)) with
      | None -> ()
      | Some pte ->
          let va = va_base lor (i lsl (Types.page_shift + (9 * level))) in
          if level = 0 then f va pte else go pte.pte_gpfn (level - 1) va
    done
  in
  go root (levels - 1) 0

let table_frames ~read_u64 ~root =
  let acc = ref [ root ] in
  let rec go table level =
    if level > 0 then
      for i = 0 to entries_per_level - 1 do
        match decode (read_u64 (entry_gpa table i)) with
        | None -> ()
        | Some pte ->
            acc := pte.pte_gpfn :: !acc;
            go pte.pte_gpfn (level - 1)
      done
  in
  go root (levels - 1);
  List.rev !acc
