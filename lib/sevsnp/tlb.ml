(* Per-VCPU software TLB: a direct-mapped table of translations keyed
   by (VA page, page-table root), each carrying the leaf flags and the
   RMP permission snapshot ({!Rmp.tlb_snapshot}) so a hit needs no
   table walk and no RMP lookup.

   The 512 slots live in one flat [Bytes.t] slab of four native-endian
   words each, which Marshal (a Veil-Explore snapshot) copies as one
   block instead of rebuilding 512 records.  The hit path is the single
   call [lookup]: slot, key, stamp and permission checks together.

   Coherence is by stamping: a slot is valid only while its stamp is
   [!gen + epoch].  [gen] is the machine-wide generation (bumped by
   every RMP mutation and page-table shootdown); [epoch] is this VCPU's
   private counter (bumped on instance/VMPL switches — the paper's
   VMPL-switch TLB flush).  Both only grow, so the sum strictly
   increases on any bump and every cached entry goes stale at once.
   Permission *evaluation* happens at lookup time against the caller's
   current CPL/VMPL, so ring transitions need no flush. *)

let slot_bits = 9
let slot_count = 1 lsl slot_bits

(* A slot is 32 bytes: the VA page (-1 = never filled), the root, the
   stamp, and the frame word [gpfn lsl 9 lor rmp lsl 3 lor flags]. *)
let slot_shift = 5
let w_vapage = 0
let w_root = 8
let w_stamp = 16
let w_frame = 24
let perm_bits = 9

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let get slab off = Int64.to_int (get64 slab off)
let set slab off v = set64 slab off (Int64.of_int v)

type t = { slab : Bytes.t; gen : int ref; mutable epoch : int }

let create ~gen =
  let slab = Bytes.make (slot_count lsl slot_shift) '\000' in
  for i = 0 to slot_count - 1 do
    set slab ((i lsl slot_shift) + w_vapage) (-1)
  done;
  { slab; gen; epoch = 0 }

let flush t = t.epoch <- t.epoch + 1

let slot ~vapage ~root = ((vapage lxor (root * 0x9E3779B1)) land (slot_count - 1)) lsl slot_shift

(* leaf flags, bits 0-2 of the frame word *)
let f_writable = 1
let f_user = 2
let f_nx = 4

(* RMP snapshot, bits 3-8: the {!Perm.to_bits} nibble plus shared and
   VMSA ({!Rmp.tlb_snapshot}) *)
let r_read = 1
let r_write = 2
let r_user_exec = 4
let r_super_exec = 8
let r_shared = 16
let r_vmsa = 32

let pack_flags (f : Pagetable.flags) =
  (if f.Pagetable.writable then f_writable else 0)
  lor (if f.Pagetable.user then f_user else 0)
  lor (if f.Pagetable.nx then f_nx else 0)

let fill t ~vapage ~root ~gpfn ~flags ~rmp =
  let off = slot ~vapage ~root in
  set t.slab (off + w_vapage) vapage;
  set t.slab (off + w_root) root;
  set t.slab (off + w_stamp) (!(t.gen) + t.epoch);
  set t.slab (off + w_frame) ((gpfn lsl perm_bits) lor ((rmp land 63) lsl 3) lor (flags land 7))

(* The page-walk flag check, then the RMP snapshot under the caller's
   VMPL: shared pages never execute, an in-use VMSA frame rejects
   non-VMPL-0 writes, otherwise the permission nibble decides. *)
let allows frame access cpl vmpl =
  let rmp = frame lsr 3 in
  let user = match (cpl : Types.cpl) with Types.Cpl3 -> true | Types.Cpl0 -> false in
  ((not user) || frame land f_user <> 0)
  &&
  match (access : Types.access) with
  | Types.Read -> rmp land (r_shared lor r_read) <> 0
  | Types.Write ->
      frame land f_writable <> 0
      && (rmp land r_shared <> 0
         || (rmp land r_write <> 0
            && (rmp land r_vmsa = 0 || match (vmpl : Types.vmpl) with Types.Vmpl0 -> true | _ -> false)))
  | Types.Execute ->
      frame land f_nx = 0
      && rmp land r_shared = 0
      && rmp land (if user then r_user_exec else r_super_exec) <> 0

let lookup t ~vapage ~root access cpl vmpl =
  let slab = t.slab in
  let off = slot ~vapage ~root in
  if
    get slab (off + w_vapage) = vapage
    && get slab (off + w_root) = root
    && get slab (off + w_stamp) = !(t.gen) + t.epoch
  then begin
    let frame = get slab (off + w_frame) in
    if allows frame access cpl vmpl then frame lsr perm_bits else -1
  end
  else -1
