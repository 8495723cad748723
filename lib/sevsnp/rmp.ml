type page_state = Invalid | Private | Shared

(* Dense layout: one metadata byte per frame in [meta]
   (bits 0-1 page state: 0 Invalid / 1 Private / 2 Shared,
    bit 2 VMSA attribute, bit 3 touched-by-RMPADJUST) and one int per
   frame in [perms] packing four {!Perm.to_bits} nibbles, VMPL-0 in the
   low nibble.  [check_guest_access] is therefore two array loads and a
   few bit tests — no hashing, no allocation on the Ok path.

   [gen] is the machine-wide TLB generation: every architectural event
   that can invalidate a cached translation's permission snapshot
   (PVALIDATE, RMPADJUST, page-table edits via {!Platform}) bumps it,
   and software TLBs stamp their entries with it. *)

let st_mask = 3
let st_private = 1
let st_shared = 2
let bit_vmsa = 4
let bit_touched = 8

(* fresh frame: Invalid, VMPL-0 full permissions, others none *)
let default_perms = 0xF

type entry = { state : page_state; vmsa : bool; touched : bool; perms : Perm.t array }

type t = { npages : int; meta : Bytes.t; perms : int array; gen : int ref }

let create ~npages =
  if npages <= 0 then invalid_arg "Rmp.create";
  { npages; meta = Bytes.make npages '\000'; perms = Array.make npages default_perms; gen = ref 0 }

let npages t = t.npages

let generation t = t.gen

let bump t = incr t.gen

let check_gpfn t gpfn op =
  if gpfn < 0 || gpfn >= t.npages then
    invalid_arg (Printf.sprintf "Rmp.%s: frame %d out of range" op gpfn)

let meta t gpfn = Char.code (Bytes.unsafe_get t.meta gpfn)
let set_meta t gpfn m = Bytes.unsafe_set t.meta gpfn (Char.unsafe_chr m)

let state_of_code m = if m = 0 then Invalid else if m = st_private then Private else Shared

let state t gpfn =
  check_gpfn t gpfn "state";
  state_of_code (meta t gpfn land st_mask)

let perm_bits t gpfn vmpl_idx = (Array.unsafe_get t.perms gpfn lsr (4 * vmpl_idx)) land 0xF

let perms_of t gpfn vmpl =
  check_gpfn t gpfn "perms_of";
  Perm.of_bits (perm_bits t gpfn (Types.vmpl_index vmpl))

let is_vmsa t gpfn =
  check_gpfn t gpfn "is_vmsa";
  meta t gpfn land bit_vmsa <> 0

let set_vmsa t gpfn v =
  check_gpfn t gpfn "set_vmsa";
  let m = meta t gpfn in
  set_meta t gpfn (if v then m lor bit_vmsa else m land lnot bit_vmsa);
  bump t

let touch t gpfn =
  check_gpfn t gpfn "touch";
  let m = meta t gpfn in
  if m land bit_touched = 0 then begin
    set_meta t gpfn (m lor bit_touched);
    true
  end
  else false

let validate t gpfn =
  check_gpfn t gpfn "validate";
  (* Private, VMSA cleared, touched preserved, VMPL-0 gets everything *)
  set_meta t gpfn ((meta t gpfn land bit_touched) lor st_private);
  t.perms.(gpfn) <- default_perms;
  bump t

let unvalidate t gpfn =
  check_gpfn t gpfn "unvalidate";
  set_meta t gpfn ((meta t gpfn land bit_touched) lor st_shared);
  bump t

let adjust t ~caller ~gpfn ~target ~perms ~vmsa =
  if gpfn < 0 || gpfn >= t.npages then Error "rmpadjust: frame out of range"
  else if vmsa && not (Types.equal_vmpl caller Types.Vmpl0) then
    (* VMSA creation is a VMPL-0 capability — the architectural root of
       Veil's VCPU-boot delegation (§5.3). *)
    Error "rmpadjust: FAIL_PERMISSION (VMSA attribute requires VMPL-0)"
  else if (not vmsa) && not (Types.vmpl_strictly_higher caller target) then
    Error
      (Format.asprintf "rmpadjust: %a may not adjust permissions for %a" Types.pp_vmpl caller Types.pp_vmpl
         target)
  else begin
    let m = meta t gpfn in
    match m land st_mask with
    | s when s = st_private ->
        if Types.vmpl_strictly_higher caller target then begin
          let shift = 4 * Types.vmpl_index target in
          t.perms.(gpfn) <- (t.perms.(gpfn) land lnot (0xF lsl shift)) lor (Perm.to_bits perms lsl shift)
        end;
        set_meta t gpfn (if vmsa then m lor bit_vmsa else m land lnot bit_vmsa);
        bump t;
        Ok ()
    | 0 -> Error "rmpadjust: page not validated"
    | _ -> Error "rmpadjust: page is shared with the host"
  end

let npf gpfn vmpl access reason =
  Error
    { Types.fault_gpa = Types.gpa_of_gpfn gpfn; fault_vmpl = vmpl; fault_access = access; fault_reason = reason }

let check_guest_access t ~gpfn ~vmpl ~cpl ~access =
  if gpfn < 0 || gpfn >= t.npages then npf gpfn vmpl access "frame out of range"
  else begin
    let m = meta t gpfn in
    match m land st_mask with
    | 0 -> npf gpfn vmpl access "page not validated"
    | s when s = st_shared -> (
        (* Shared pages are plain-text mailboxes: no execution. *)
        match access with
        | Types.Execute -> npf gpfn vmpl access "execute from shared page"
        | Types.Read | Types.Write -> Ok ())
    | _ ->
        if m land bit_vmsa <> 0 && access = Types.Write && vmpl <> Types.Vmpl0 then
          npf gpfn vmpl access "write to in-use VMSA page"
        else begin
          let bits = perm_bits t gpfn (Types.vmpl_index vmpl) in
          if Perm.bits_allow bits access cpl then Ok ()
          else
            npf gpfn vmpl access
              (Format.asprintf "VMPL permission violation (%a)" Perm.pp (Perm.of_bits bits))
        end
  end

(* TLB permission snapshot: the per-VMPL nibble plus shared/VMSA bits,
   consumed by {!Tlb.lookup}.  Only meaningful for frames that
   passed a check (state is Private or Shared). *)
let tlb_snapshot t gpfn ~vmpl =
  let m = meta t gpfn in
  perm_bits t gpfn (Types.vmpl_index vmpl)
  lor (if m land st_mask = st_shared then 16 else 0)
  lor (if m land bit_vmsa <> 0 then 32 else 0)

let host_can_access t gpfn = gpfn >= 0 && gpfn < t.npages && meta t gpfn land st_mask = st_shared

(* Shared-mailbox placement check (IDCBs, Veil-Ring rings): the frame
   must be plain validated guest memory the given VMPL can read *and*
   write — not a VMSA, not host-shared. *)
let guest_can_rw t gpfn ~vmpl =
  gpfn >= 0 && gpfn < t.npages
  &&
  let m = meta t gpfn in
  m land st_mask = st_private
  && m land bit_vmsa = 0
  &&
  let bits = perm_bits t gpfn (Types.vmpl_index vmpl) in
  Perm.bits_allow bits Types.Read Types.Cpl0 && Perm.bits_allow bits Types.Write Types.Cpl0

let iter_entries t f =
  for gpfn = 0 to t.npages - 1 do
    let m = meta t gpfn in
    let p = t.perms.(gpfn) in
    if m <> 0 || p <> default_perms then
      f gpfn
        {
          state = state_of_code (m land st_mask);
          vmsa = m land bit_vmsa <> 0;
          touched = m land bit_touched <> 0;
          perms =
            [|
              Perm.of_bits (p land 0xF);
              Perm.of_bits ((p lsr 4) land 0xF);
              Perm.of_bits ((p lsr 8) land 0xF);
              Perm.of_bits ((p lsr 12) land 0xF);
            |];
        }
  done
