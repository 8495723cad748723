(* Veil-Ring submission/completion ring (see ring.mli).

   Single producer (the owning VCPU's kernel), single consumer
   (VeilMon draining a flush).  [head] and [tail] are monotonic
   counters; slot indices are [counter land mask], so wraparound across
   the slot boundary needs no special casing and full-vs-empty is just
   [head - tail].  The hot submit path is allocation-free: slots are
   preallocated records with mutable fields, and requests are stored by
   reference (the monitor sanitizes each one at drain time — the slot
   contents are untrusted either way). *)

type slot = {
  mutable sl_req : Idcb.request;
  mutable sl_resp : Idcb.response;
  mutable sl_corrupt : bool;
}

type t = {
  gpfn : Sevsnp.Types.gpfn;
  vcpu_id : int;
  mask : int;
  slots : slot array;
  mutable head : int;  (* next submission writes slot [head land mask] *)
  mutable tail : int;  (* oldest pending slot is [tail land mask] *)
  mutable batch_seq : int;
}

let create ~gpfn ~vcpu_id ~slots =
  if slots < 2 || slots > 1024 || slots land (slots - 1) <> 0 then
    invalid_arg "Ring.create: slots must be a power of two in [2, 1024]";
  {
    gpfn;
    vcpu_id;
    mask = slots - 1;
    slots =
      Array.init slots (fun _ ->
          { sl_req = Idcb.R_none; sl_resp = Idcb.Resp_none; sl_corrupt = false });
    head = 0;
    tail = 0;
    batch_seq = 0;
  }

let gpfn t = t.gpfn
let vcpu_id t = t.vcpu_id
let pending t = t.head - t.tail
let is_empty t = t.head = t.tail
let is_full t = t.head - t.tail > t.mask

let submit t req =
  if is_full t then false
  else begin
    let s = t.slots.(t.head land t.mask) in
    s.sl_req <- req;
    s.sl_resp <- Idcb.Resp_none;
    s.sl_corrupt <- false;
    t.head <- t.head + 1;
    true
  end

let batch_seq t = t.batch_seq

let stamp_flush t =
  t.batch_seq <- t.batch_seq + 1;
  t.batch_seq

let slot_at t i =
  if i < 0 || i >= pending t then invalid_arg "Ring: slot index out of pending range";
  t.slots.((t.tail + i) land t.mask)

let peek t i = (slot_at t i).sl_req
let set_response t i resp = (slot_at t i).sl_resp <- resp
let response_at t i = (slot_at t i).sl_resp
let consume t = t.tail <- t.head

let corrupt_slot t i =
  let s = slot_at t i in
  s.sl_req <- Idcb.R_none;
  s.sl_corrupt <- true

let slot_is_corrupt t i = (slot_at t i).sl_corrupt
