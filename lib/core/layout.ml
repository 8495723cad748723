type region = { lo : Sevsnp.Types.gpfn; hi : Sevsnp.Types.gpfn }

type t = {
  total_frames : int;
  mon_image : region;
  kernel_text : region;
  kernel_data : region;
  mon_heap : region;
  svc_region : region;
  log_region : region;
  idcb_region : region;
  kernel_free : region;
  vmsa_region : region;
}

let standard ?log_frames ~npages () =
  if npages < 1024 then invalid_arg "Layout.standard: need at least 1024 frames";
  let log_frames = match log_frames with Some n -> n | None -> max 64 (npages / 32) in
  let cursor = ref 0 in
  let take n =
    let lo = !cursor in
    cursor := lo + n;
    { lo; hi = lo + n }
  in
  let mon_image = take 16 in
  let kernel_text = take 32 in
  let kernel_data = take 32 in
  let mon_heap = take (max 64 (npages / 64)) in
  let svc_region = take (max 64 (npages / 64)) in
  let log_region = take log_frames in
  (* 16 frames: the low 8 hold per-VCPU IDCBs (lo + vcpu_id), the high
     8 hold per-VCPU kernel GHCBs (hi - 1 - vcpu_id) — Veil-SMP supports
     up to 8 VCPUs with no frame shared between the two uses. *)
  let idcb_region = take 16 in
  let vmsa_frames = 64 in
  if !cursor + vmsa_frames >= npages then invalid_arg "Layout.standard: memory too small for layout";
  let kernel_free = { lo = !cursor; hi = npages - vmsa_frames } in
  let vmsa_region = { lo = npages - vmsa_frames; hi = npages } in
  {
    total_frames = npages;
    mon_image;
    kernel_text;
    kernel_data;
    mon_heap;
    svc_region;
    log_region;
    idcb_region;
    kernel_free;
    vmsa_region;
  }

let region_size r = r.hi - r.lo

let pp fmt t =
  let p name r = Format.fprintf fmt "%-12s [%6d, %6d)@." name r.lo r.hi in
  p "mon_image" t.mon_image;
  p "kernel_text" t.kernel_text;
  p "kernel_data" t.kernel_data;
  p "mon_heap" t.mon_heap;
  p "svc" t.svc_region;
  p "log" t.log_region;
  p "idcb" t.idcb_region;
  p "kernel_free" t.kernel_free;
  p "vmsa" t.vmsa_region
