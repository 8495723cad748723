module T = Sevsnp.Types
module C = Sevsnp.Cycles
module P = Sevsnp.Platform
module Pt = Sevsnp.Pagetable
module Ed = Guest_kernel.Enclave_desc

type stats = {
  mutable created : int;
  mutable destroyed : int;
  mutable rejected : int;
  mutable entries : int;
  mutable exits : int;
  mutable evictions : int;
  mutable restores : int;
}

type epage = {
  mutable frame : T.gpfn option;  (** [None] while evicted *)
  kind : Ed.page_kind;
  mutable prot : Guest_kernel.Ktypes.prot;
}

type enclave = {
  e_id : int;
  e_desc : Ed.t;
  e_key : bytes;  (** per-enclave paging key (§6.2) *)
  mutable e_meas : bytes;
  e_root : T.gpfn;  (** protected page-table clone root *)
  e_pages : (T.va, epage) Hashtbl.t;
  e_evicted : (T.va, bytes * int) Hashtbl.t;  (** integrity hash + freshness counter *)
  mutable e_ctr : int;
  mutable e_destroyed : bool;
  e_owner_vcpu : int;
  mutable e_shared_in : (int * T.va * int) list;  (** (owner id, va, npages) mapped in *)
}

type t = {
  mon : Monitor.t;
  stats : stats;
  enclaves : (int, enclave) Hashtbl.t;
  frames_in_use : (T.gpfn, int) Hashtbl.t;  (** global disjointness registry *)
  scheduled : (int, int) Hashtbl.t;  (** vcpu id -> enclave id its Dom_ENC VMSA holds *)
  c_entries : Obs.Metrics.counter;
  c_exits : Obs.Metrics.counter;
  g_degraded : Obs.Metrics.gauge;
      (** 1 after a persistent (retry-exhausted) RMPADJUST failure left
          an operation partially applied; the request still gets an
          explicit error instead of crashing the service *)
}

let stats t = t.stats
let monitor t = t.mon
let find t id = Hashtbl.find_opt t.enclaves id
let enclave_id e = e.e_id
let measurement e = e.e_meas
let pt_root e = e.e_root
let desc e = e.e_desc
let is_destroyed e = e.e_destroyed

let resident_frame e va =
  match Hashtbl.find_opt e.e_pages (va land lnot (T.page_size - 1)) with
  | Some p -> p.frame
  | None -> None

let charge vcpu b n = Sevsnp.Vcpu.charge vcpu b n

let perms_of_kind = function
  | Ed.Code -> Sevsnp.Perm.r_user_exec
  | Ed.Data | Ed.Stack | Ed.Heap -> Sevsnp.Perm.rw

let perms_of_prot (p : Guest_kernel.Ktypes.prot) =
  {
    Sevsnp.Perm.read = p.Guest_kernel.Ktypes.pr;
    write = p.Guest_kernel.Ktypes.pw;
    user_exec = p.Guest_kernel.Ktypes.px;
    super_exec = false;
  }

let flags_of_prot (p : Guest_kernel.Ktypes.prot) : Pt.flags =
  { Pt.present = true; writable = p.Guest_kernel.Ktypes.pw; user = true; nx = not p.Guest_kernel.Ktypes.px }

(* --- measurement (§6.2): contents + metadata, reproducible remotely --- *)

let measure_page m ~va ~kind ~(prot : Guest_kernel.Ktypes.prot) ~contents =
  Veil_crypto.Measurement.add_int m ~label:"va" va;
  Veil_crypto.Measurement.add_string m ~label:"kind" (Ed.kind_to_string kind);
  Veil_crypto.Measurement.add_int m ~label:"prot"
    ((if prot.Guest_kernel.Ktypes.pr then 4 else 0)
    lor (if prot.Guest_kernel.Ktypes.pw then 2 else 0)
    lor if prot.Guest_kernel.Ktypes.px then 1 else 0);
  Veil_crypto.Measurement.add_bytes m ~label:"contents" contents

let measure_expected ~binary ~npages_heap ~npages_stack ~base_va =
  let m = Veil_crypto.Measurement.create ~domain:"veil-enclave" in
  let ncode = max 1 ((Bytes.length binary + T.page_size - 1) / T.page_size) in
  let page i =
    let contents = Bytes.make T.page_size '\000' in
    let off = i * T.page_size in
    let n = min T.page_size (max 0 (Bytes.length binary - off)) in
    if n > 0 then Bytes.blit binary off contents 0 n;
    contents
  in
  for i = 0 to ncode - 1 do
    measure_page m ~va:(base_va + (i * T.page_size)) ~kind:Ed.Code ~prot:(Ed.prot_of_kind Ed.Code)
      ~contents:(page i)
  done;
  let zero = Bytes.make T.page_size '\000' in
  for i = 0 to npages_heap - 1 do
    measure_page m
      ~va:(base_va + ((ncode + i) * T.page_size))
      ~kind:Ed.Heap ~prot:(Ed.prot_of_kind Ed.Heap) ~contents:zero
  done;
  for i = 0 to npages_stack - 1 do
    measure_page m
      ~va:(base_va + ((ncode + npages_heap + i) * T.page_size))
      ~kind:Ed.Stack ~prot:(Ed.prot_of_kind Ed.Stack) ~contents:zero
  done;
  Veil_crypto.Measurement.digest m

(* --- finalize (§6.2 initialization) --- *)

exception Reject of string

(* Graceful degradation: [Monitor.mon_rmpadjust] already absorbs
   architecturally transient failures with bounded retry, so an [Error]
   reaching us is persistent.  Rather than crashing the whole service
   ([failwith]), flag the degraded state in the metrics registry and
   answer the request with an explicit error. *)
exception Degrade of string

let must = function Ok () -> () | Error e -> raise (Degrade e)

let degrade t e =
  Obs.Metrics.set t.g_degraded 1;
  Idcb.Resp_error ("VeilS-ENC: degraded: " ^ e)

let degraded t = Obs.Metrics.gauge_value t.g_degraded <> 0

(* Verified enclave-GHCB domain switch: under hypervisor fault
   injection a relayed switch may be refused (the GHCB comes back with
   an out-of-protocol response and no instance change), so re-request
   with cycle-accounted backoff and halt explicitly if the refusal
   persists.  The non-faulting path adds one VMPL comparison. *)
let switch_retries = 6

let ghcb_switch t vcpu ~target_vmpl ~what =
  let platform = Monitor.platform t.mon in
  let rec go attempt =
    (match P.ghcb_of_vcpu platform vcpu with
    | Some g -> g.Sevsnp.Ghcb.request <- Sevsnp.Ghcb.Req_domain_switch { target_vmpl }
    | None -> P.halt platform (what ^ " without GHCB"));
    P.vmgexit platform vcpu;
    if not (T.equal_vmpl (Sevsnp.Vcpu.vmpl vcpu) target_vmpl) then
      if attempt >= switch_retries then
        P.halt platform
          (Printf.sprintf "%s: enclave domain switch refused by hypervisor for %d attempts" what
             (attempt + 1))
      else begin
        charge vcpu C.Switch (500 * (1 lsl min attempt 6));
        go (attempt + 1)
      end
  in
  go 0

(* Synchronize a VCPU's Dom_ENC instance with this enclave (§7's
   sketch of multi-threaded support: "VeilMon must create a VMSA for
   the enclave thread on each VCPU and synchronize them").  The
   replica VMSAs already exist (created at boot/hotplug); this fills
   in the enclave-specific state. *)
let schedule_enc_vmsa t vcpu enclave ~vcpu_id =
  if Hashtbl.find_opt t.scheduled vcpu_id = Some enclave.e_id then Ok ()
    (* the instance already holds this enclave's state: no resync *)
  else begin
    match
      (try Some (Monitor.vmsa_of t.mon ~vcpu_id ~dom:Privdom.Enc) with Failure _ -> None)
    with
    | None -> Error (Printf.sprintf "no Dom_ENC instance for vcpu %d" vcpu_id)
    | Some enc_vmsa ->
        charge vcpu C.Monitor 1_800 (* per-thread VMSA synchronization *);
        enc_vmsa.Sevsnp.Vmsa.rip <- enclave.e_desc.Ed.entry_va;
        enc_vmsa.Sevsnp.Vmsa.cr3 <- enclave.e_root;
        enc_vmsa.Sevsnp.Vmsa.ghcb_gpa <- T.gpa_of_gpfn enclave.e_desc.Ed.ghcb_gpfn;
        Hashtbl.replace t.scheduled vcpu_id enclave.e_id;
        Ok ()
  end


let svc_pt_io t vcpu : Pt.io =
  let platform = Monitor.platform t.mon in
  {
    Pt.read_u64 = P.read_u64 platform vcpu;
    write_u64 = P.write_u64 platform vcpu;
    alloc_frame =
      (fun () ->
        charge vcpu C.Monitor 400;
        Monitor.alloc_svc_frame t.mon);
    invalidate = (fun () -> P.tlb_shootdown platform);
  }

let finalize t vcpu (d : Ed.t) : Idcb.response =
  let platform = Monitor.platform t.mon in
  try
    if Hashtbl.mem t.enclaves d.Ed.enclave_id then raise (Reject "enclave id already in use");
    (* Invariant 1: one-to-one virtual-to-physical mapping. *)
    let seen_va = Hashtbl.create 64 and seen_frame = Hashtbl.create 64 in
    List.iter
      (fun (pg : Ed.page) ->
        charge vcpu C.Monitor 120;
        if Hashtbl.mem seen_va pg.Ed.page_va then raise (Reject "duplicate virtual page in layout");
        if Hashtbl.mem seen_frame pg.Ed.page_gpfn then raise (Reject "aliased physical frame in layout");
        Hashtbl.replace seen_va pg.Ed.page_va ();
        Hashtbl.replace seen_frame pg.Ed.page_gpfn ();
        (* Invariant 2: physical pages disjoint across all enclaves. *)
        if Hashtbl.mem t.frames_in_use pg.Ed.page_gpfn then
          raise (Reject "physical frame already belongs to another enclave"))
      d.Ed.pages;
    (* Clone the page tables into protected (Dom_SEC) memory. *)
    let io = svc_pt_io t vcpu in
    let root = io.Pt.alloc_frame () in
    let pages = Hashtbl.create 64 in
    List.iter
      (fun (pg : Ed.page) ->
        let prot = Ed.prot_of_kind pg.Ed.page_kind in
        Pt.map io ~root pg.Ed.page_va { Pt.pte_gpfn = pg.Ed.page_gpfn; pte_flags = flags_of_prot prot };
        Hashtbl.replace pages pg.Ed.page_va { frame = Some pg.Ed.page_gpfn; kind = pg.Ed.page_kind; prot })
      d.Ed.pages;
    (* Map the user GHCB and the shared ocall arena (untrusted memory
       the enclave may touch). *)
    Pt.map io ~root d.Ed.ghcb_va
      { Pt.pte_gpfn = d.Ed.ghcb_gpfn; pte_flags = flags_of_prot Guest_kernel.Ktypes.prot_rw };
    List.iter
      (fun (va, frame) ->
        Pt.map io ~root va { Pt.pte_gpfn = frame; pte_flags = flags_of_prot Guest_kernel.Ktypes.prot_rw })
      d.Ed.shared;
    (* Revoke the OS and grant the enclave (RMPADJUST via VeilMon's
       authority — we are at Dom_SEC, privileged over VMPL-2/3). *)
    List.iter
      (fun (pg : Ed.page) ->
        (match
           Monitor.mon_rmpadjust t.mon vcpu ~gpfn:pg.Ed.page_gpfn ~target:Privdom.Enc
             ~perms:(perms_of_kind pg.Ed.page_kind)
         with
        | Ok () -> ()
        | Error e -> raise (Reject e));
        match
          Monitor.mon_rmpadjust t.mon vcpu ~gpfn:pg.Ed.page_gpfn ~target:Privdom.Unt
            ~perms:Sevsnp.Perm.none
        with
        | Ok () -> ()
        | Error e -> raise (Reject e))
      d.Ed.pages;
    (* The shared arena stays OS-accessible but also opens to Dom_ENC. *)
    List.iter
      (fun (_, frame) ->
        match Monitor.mon_rmpadjust t.mon vcpu ~gpfn:frame ~target:Privdom.Enc ~perms:Sevsnp.Perm.rw with
        | Ok () -> ()
        | Error e -> raise (Reject e))
      d.Ed.shared;
    (* Measure contents + metadata. *)
    let m = Veil_crypto.Measurement.create ~domain:"veil-enclave" in
    List.iter
      (fun (pg : Ed.page) ->
        let contents = P.read platform vcpu (T.gpa_of_gpfn pg.Ed.page_gpfn) T.page_size in
        charge vcpu C.Crypto (C.hash_cost T.page_size);
        measure_page m ~va:pg.Ed.page_va ~kind:pg.Ed.page_kind ~prot:(Ed.prot_of_kind pg.Ed.page_kind)
          ~contents)
      d.Ed.pages;
    let meas = Veil_crypto.Measurement.digest m in
    (* Record ownership. *)
    List.iter (fun (pg : Ed.page) -> Hashtbl.replace t.frames_in_use pg.Ed.page_gpfn d.Ed.enclave_id) d.Ed.pages;
    Monitor.add_protected_frames t.mon ~owner:Privdom.Enc (Ed.frames d);
    let rng = platform.P.rng in
    let enclave =
      {
        e_id = d.Ed.enclave_id;
        e_desc = d;
        e_key = Veil_crypto.Rng.bytes rng 32;
        e_meas = meas;
        e_root = root;
        e_pages = pages;
        e_evicted = Hashtbl.create 8;
        e_ctr = 0;
        e_destroyed = false;
        e_owner_vcpu = vcpu.Sevsnp.Vcpu.id;
        e_shared_in = [];
      }
    in
    Hashtbl.replace t.enclaves d.Ed.enclave_id enclave;
    (* Configure the Dom_ENC instance through the (cache-aware)
       scheduler so the instance state and the scheduling cache can
       never diverge; install the hypervisor switch policy for the
       enclave's GHCB. *)
    (match schedule_enc_vmsa t vcpu enclave ~vcpu_id:vcpu.Sevsnp.Vcpu.id with
    | Ok () -> ()
    | Error e -> raise (Reject e));
    Monitor.set_enclave_ghcb_policy t.mon vcpu ~ghcb_gpfn:d.Ed.ghcb_gpfn;
    t.stats.created <- t.stats.created + 1;
    Idcb.Resp_measurement meas
  with Reject reason ->
    t.stats.rejected <- t.stats.rejected + 1;
    Idcb.Resp_error ("VeilS-ENC: " ^ reason)

let destroy t vcpu (d : Ed.t) : Idcb.response =
  match Hashtbl.find_opt t.enclaves d.Ed.enclave_id with
  | None -> Idcb.Resp_error "VeilS-ENC: unknown enclave"
  | Some enclave -> (
      try
        let platform = Monitor.platform t.mon in
        let zero = Bytes.make T.page_size '\000' in
        Hashtbl.iter
          (fun _va (pg : epage) ->
            match pg.frame with
            | None -> ()
            | Some frame ->
                (* Scrub before returning memory to the OS. *)
                charge vcpu C.Copy (C.copy_cost T.page_size);
                P.write platform vcpu (T.gpa_of_gpfn frame) zero;
                must
                  (Monitor.mon_rmpadjust t.mon vcpu ~gpfn:frame ~target:Privdom.Unt
                     ~perms:Sevsnp.Perm.all);
                must
                  (Monitor.mon_rmpadjust t.mon vcpu ~gpfn:frame ~target:Privdom.Enc
                     ~perms:Sevsnp.Perm.none);
                Hashtbl.remove t.frames_in_use frame)
          enclave.e_pages;
        List.iter
          (fun (_, frame) ->
            must
              (Monitor.mon_rmpadjust t.mon vcpu ~gpfn:frame ~target:Privdom.Enc
                 ~perms:Sevsnp.Perm.none))
          d.Ed.shared;
        Monitor.remove_protected_frames t.mon (Ed.frames d);
        (* reclaim the protected page-table clone *)
        let table_frames =
          Sevsnp.Pagetable.table_frames ~read_u64:(P.raw_pt_read platform) ~root:enclave.e_root
        in
        List.iter (Monitor.free_svc_frame t.mon) table_frames;
        enclave.e_destroyed <- true;
        Hashtbl.remove t.enclaves d.Ed.enclave_id;
        Hashtbl.iter
          (fun vcpu_id eid -> if eid = enclave.e_id then Hashtbl.remove t.scheduled vcpu_id)
          (Hashtbl.copy t.scheduled);
        t.stats.destroyed <- t.stats.destroyed + 1;
        Idcb.Resp_ok
      with Degrade e -> degrade t e)

(* --- demand paging (§6.2) --- *)

let page_nonce enclave ~va ~ctr =
  let n = Bytes.make 12 '\000' in
  Bytes.set_int32_le n 0 (Int32.of_int (va lsr T.page_shift));
  Bytes.set_int32_le n 4 (Int32.of_int ctr);
  ignore enclave;
  n

let integrity_hash enclave ~va ~ctr plaintext =
  let buf = Buffer.create (T.page_size + 24) in
  Buffer.add_string buf (Printf.sprintf "page:%d:%d:" va ctr);
  Buffer.add_bytes buf plaintext;
  Veil_crypto.Hmac.mac ~key:enclave.e_key (Bytes.of_string (Buffer.contents buf))

let evict t vcpu ~enclave_id ~va : Idcb.response =
  match Hashtbl.find_opt t.enclaves enclave_id with
  | None -> Idcb.Resp_error "VeilS-ENC: unknown enclave"
  | Some enclave -> (
      match Hashtbl.find_opt enclave.e_pages va with
      | None -> Idcb.Resp_error "VeilS-ENC: no enclave page at this address"
      | Some ({ frame = Some frame; _ } as pg) -> (
          try
          let platform = Monitor.platform t.mon in
          let plaintext = P.read platform vcpu (T.gpa_of_gpfn frame) T.page_size in
          enclave.e_ctr <- enclave.e_ctr + 1;
          let ctr = enclave.e_ctr in
          charge vcpu C.Crypto (C.hash_cost T.page_size);
          let h = integrity_hash enclave ~va ~ctr plaintext in
          charge vcpu C.Crypto (C.cipher_cost T.page_size);
          let ciphertext =
            Veil_crypto.Chacha20.encrypt ~key:enclave.e_key ~nonce:(page_nonce enclave ~va ~ctr) plaintext
          in
          charge vcpu C.Copy (C.copy_cost T.page_size);
          P.write platform vcpu (T.gpa_of_gpfn frame) ciphertext;
          let io = svc_pt_io t vcpu in
          ignore (Pt.unmap io ~root:enclave.e_root va);
          must (Monitor.mon_rmpadjust t.mon vcpu ~gpfn:frame ~target:Privdom.Unt ~perms:Sevsnp.Perm.all);
          must (Monitor.mon_rmpadjust t.mon vcpu ~gpfn:frame ~target:Privdom.Enc ~perms:Sevsnp.Perm.none);
          Monitor.remove_protected_frames t.mon [ frame ];
          Hashtbl.remove t.frames_in_use frame;
          pg.frame <- None;
          Hashtbl.replace enclave.e_evicted va (h, ctr);
          t.stats.evictions <- t.stats.evictions + 1;
          Idcb.Resp_ok
          with Degrade e -> degrade t e)
      | Some { frame = None; _ } -> Idcb.Resp_error "VeilS-ENC: page already evicted")

let restore t vcpu ~enclave_id ~va ~gpfn : Idcb.response =
  match Hashtbl.find_opt t.enclaves enclave_id with
  | None -> Idcb.Resp_error "VeilS-ENC: unknown enclave"
  | Some enclave -> (
      match (Hashtbl.find_opt enclave.e_pages va, Hashtbl.find_opt enclave.e_evicted va) with
      | Some ({ frame = None; _ } as pg), Some (expected_hash, ctr) ->
          if Hashtbl.mem t.frames_in_use gpfn then Idcb.Resp_error "VeilS-ENC: frame belongs to an enclave"
          else begin
            let platform = Monitor.platform t.mon in
            let ciphertext = P.read platform vcpu (T.gpa_of_gpfn gpfn) T.page_size in
            charge vcpu C.Crypto (C.cipher_cost T.page_size);
            let plaintext =
              Veil_crypto.Chacha20.encrypt ~key:enclave.e_key ~nonce:(page_nonce enclave ~va ~ctr) ciphertext
            in
            charge vcpu C.Crypto (C.hash_cost T.page_size);
            let h = integrity_hash enclave ~va ~ctr plaintext in
            if not (Bytes.equal h expected_hash) then
              Idcb.Resp_error "VeilS-ENC: page integrity/freshness verification failed"
            else begin
              try
                (* Take the frame away from the OS, install plaintext,
                   remap in the protected tables. *)
                must
                  (Monitor.mon_rmpadjust t.mon vcpu ~gpfn ~target:Privdom.Unt ~perms:Sevsnp.Perm.none);
                must
                  (Monitor.mon_rmpadjust t.mon vcpu ~gpfn ~target:Privdom.Enc
                     ~perms:(perms_of_prot pg.prot));
                charge vcpu C.Copy (C.copy_cost T.page_size);
                P.write platform vcpu (T.gpa_of_gpfn gpfn) plaintext;
                let io = svc_pt_io t vcpu in
                Pt.map io ~root:enclave.e_root va { Pt.pte_gpfn = gpfn; pte_flags = flags_of_prot pg.prot };
                pg.frame <- Some gpfn;
                Hashtbl.remove enclave.e_evicted va;
                Hashtbl.replace t.frames_in_use gpfn enclave_id;
                Monitor.add_protected_frames t.mon ~owner:Privdom.Enc [ gpfn ];
                t.stats.restores <- t.stats.restores + 1;
                Idcb.Resp_ok
              with Degrade e -> degrade t e
            end
          end
      | Some { frame = Some _; _ }, _ -> Idcb.Resp_error "VeilS-ENC: page is resident"
      | _ -> Idcb.Resp_error "VeilS-ENC: no such evicted page")

(* --- §10 extensions: multi-VCPU scheduling & enclave memory sharing --- *)

let shared_with _t enclave = enclave.e_shared_in

let set_measurement _t enclave m =
  enclave.e_meas <- m;
  enclave.e_desc.Ed.measurement <- Some m

let share_region t vcpu ~owner ~peer ~va ~npages =
  (* Dom_ENC -> Dom_SEC through the enclave GHCB, like change_perms. *)
  ghcb_switch t vcpu ~target_vmpl:T.Vmpl1 ~what:"share_region";
  let result = ref (Ok ()) in
  let io = svc_pt_io t vcpu in
  (try
     if owner.e_destroyed || peer.e_destroyed then raise (Reject "enclave destroyed");
     for i = 0 to npages - 1 do
       let page_va = va + (i * T.page_size) in
       match Hashtbl.find_opt owner.e_pages page_va with
       | None -> raise (Reject "shared range outside the owner enclave")
       | Some { frame = None; _ } -> raise (Reject "shared page is evicted")
       | Some { frame = Some frame; prot; _ } ->
           charge vcpu C.Monitor 400;
           (* frames already carry Dom_ENC permissions; only the peer's
              protected tables need the mapping *)
           Pt.map io ~root:peer.e_root page_va { Pt.pte_gpfn = frame; pte_flags = flags_of_prot prot }
     done;
     peer.e_shared_in <- (owner.e_id, va, npages) :: peer.e_shared_in
   with Reject e -> result := Error e);
  ghcb_switch t vcpu ~target_vmpl:T.Vmpl2 ~what:"share_region return";
  !result

(* --- permission-change synchronization (§6.2) --- *)

let pt_sync t vcpu ~pid:_ ~va ~npages ~prot : Idcb.response =
  (* Non-enclave permission changes in an enclave process must be
     mirrored into every protected table that maps the range (only the
     shared arena can legitimately overlap). *)
  let io = svc_pt_io t vcpu in
  Hashtbl.iter
    (fun _ enclave ->
      List.iter
        (fun (sva, _) ->
          if sva >= va && sva < va + (npages * T.page_size) then begin
            charge vcpu C.Monitor 250;
            ignore (Pt.protect io ~root:enclave.e_root sva (flags_of_prot prot))
          end)
        enclave.e_desc.Ed.shared)
    t.enclaves;
  Idcb.Resp_ok

(* --- runtime entry/exit (§6.2) --- *)

let enter t vcpu enclave =
  let platform = Monitor.platform t.mon in
  let prof = platform.P.profiler in
  let prof_on = Obs.Profiler.enabled prof in
  if prof_on then
    Obs.Profiler.push prof ~vcpu:vcpu.Sevsnp.Vcpu.id
      ~vmpl:(T.vmpl_index (Sevsnp.Vcpu.vmpl vcpu)) ~ts:(Sevsnp.Vcpu.rdtsc vcpu) "enclave_enter";
  (* Scheduling (§6.2/§7): the Dom_ENC instance is shared by all
     enclaves on this VCPU, so its enclave-specific state is
     synchronized before entry (protected tables, user GHCB). *)
  (match schedule_enc_vmsa t vcpu enclave ~vcpu_id:vcpu.Sevsnp.Vcpu.id with
  | Ok () -> ()
  | Error e -> P.halt platform ("enclave scheduling: " ^ e));
  (* The OS loads the enclave GHCB into the GHCB MSR before scheduling
     the enclave thread (privileged wrmsr). *)
  charge vcpu C.Kernel 150;
  (match P.set_ghcb platform vcpu (T.gpa_of_gpfn enclave.e_desc.Ed.ghcb_gpfn) with
  | Ok () -> ()
  | Error e -> P.halt platform ("enclave GHCB scheduling: " ^ e));
  ghcb_switch t vcpu ~target_vmpl:T.Vmpl2 ~what:"enclave entry";
  t.stats.entries <- t.stats.entries + 1;
  Obs.Metrics.incr t.c_entries;
  if Obs.Trace.enabled platform.P.tracer then
    Obs.Trace.emit platform.P.tracer ~vcpu:vcpu.Sevsnp.Vcpu.id
      ~vmpl:(T.vmpl_index (Sevsnp.Vcpu.vmpl vcpu)) ~ts:(Sevsnp.Vcpu.rdtsc vcpu)
      ~bucket:"monitor" ~arg:enclave.e_id
      ~id:(Obs.Profiler.id prof ~vcpu:vcpu.Sevsnp.Vcpu.id) Obs.Trace.Enclave_enter;
  if prof_on then
    Obs.Profiler.pop prof ~vcpu:vcpu.Sevsnp.Vcpu.id ~ts:(Sevsnp.Vcpu.rdtsc vcpu)

let exit_enclave t vcpu _enclave ~restore_ghcb =
  let platform = Monitor.platform t.mon in
  let prof = platform.P.profiler in
  let prof_on = Obs.Profiler.enabled prof in
  if prof_on then
    Obs.Profiler.push prof ~vcpu:vcpu.Sevsnp.Vcpu.id
      ~vmpl:(T.vmpl_index (Sevsnp.Vcpu.vmpl vcpu)) ~ts:(Sevsnp.Vcpu.rdtsc vcpu) "enclave_exit";
  ghcb_switch t vcpu ~target_vmpl:T.Vmpl3 ~what:"enclave exit";
  (* Back in Dom_UNT: the kernel restores its own GHCB MSR. *)
  charge vcpu C.Kernel 150;
  (match P.set_ghcb platform vcpu restore_ghcb with
  | Ok () -> ()
  | Error e -> P.halt platform ("kernel GHCB restore: " ^ e));
  t.stats.exits <- t.stats.exits + 1;
  Obs.Metrics.incr t.c_exits;
  if Obs.Trace.enabled platform.P.tracer then
    Obs.Trace.emit platform.P.tracer ~vcpu:vcpu.Sevsnp.Vcpu.id
      ~vmpl:(T.vmpl_index (Sevsnp.Vcpu.vmpl vcpu)) ~ts:(Sevsnp.Vcpu.rdtsc vcpu)
      ~bucket:"monitor" ~id:(Obs.Profiler.id prof ~vcpu:vcpu.Sevsnp.Vcpu.id)
      Obs.Trace.Enclave_exit;
  if prof_on then
    Obs.Profiler.pop prof ~vcpu:vcpu.Sevsnp.Vcpu.id ~ts:(Sevsnp.Vcpu.rdtsc vcpu)

let change_perms t vcpu enclave ~va ~npages ~prot =
  (* Dom_ENC -> Dom_SEC through the enclave GHCB (policy-permitted). *)
  ghcb_switch t vcpu ~target_vmpl:T.Vmpl1 ~what:"perm change";
  let result = ref (Ok ()) in
  let io = svc_pt_io t vcpu in
  (try
     for i = 0 to npages - 1 do
       let page_va = va + (i * T.page_size) in
       match Hashtbl.find_opt enclave.e_pages page_va with
       | None -> raise (Reject "permission change outside enclave region")
       | Some pg ->
           pg.prot <- prot;
           charge vcpu C.Monitor 300;
           ignore (Pt.protect io ~root:enclave.e_root page_va (flags_of_prot prot));
           (match pg.frame with
           | Some frame -> (
               match
                 Monitor.mon_rmpadjust t.mon vcpu ~gpfn:frame ~target:Privdom.Enc ~perms:(perms_of_prot prot)
               with
               | Ok () -> ()
               | Error e -> raise (Reject e))
           | None -> ())
     done
   with Reject e -> result := Error e);
  (* Back to the enclave. *)
  ghcb_switch t vcpu ~target_vmpl:T.Vmpl2 ~what:"perm change return";
  !result

(* --- memory access through the protected tables --- *)

let read_mem ?(bucket = C.Compute) t vcpu enclave ~va ~len =
  let platform = Monitor.platform t.mon in
  charge vcpu bucket (C.copy_cost len);
  P.read_via_pt platform vcpu ~root:enclave.e_root va len

let write_mem ?(bucket = C.Compute) t vcpu enclave ~va data =
  let platform = Monitor.platform t.mon in
  charge vcpu bucket (C.copy_cost (Bytes.length data));
  P.write_via_pt platform vcpu ~root:enclave.e_root va data

let read_mem_into ?(bucket = C.Compute) t vcpu enclave ~va buf pos len =
  let platform = Monitor.platform t.mon in
  charge vcpu bucket (C.copy_cost len);
  P.read_into_via_pt platform vcpu ~root:enclave.e_root va buf pos len

let write_mem_sub ?(bucket = C.Compute) t vcpu enclave ~va data pos len =
  let platform = Monitor.platform t.mon in
  charge vcpu bucket (C.copy_cost len);
  P.write_sub_via_pt platform vcpu ~root:enclave.e_root va data pos len

(* --- service registration --- *)

let handler t _mon vcpu (req : Idcb.request) =
  match req with
  | Idcb.R_enclave_finalize d -> Some (finalize t vcpu d)
  | Idcb.R_enclave_destroy d -> Some (destroy t vcpu d)
  | Idcb.R_enclave_evict { enclave_id; va } -> Some (evict t vcpu ~enclave_id ~va)
  | Idcb.R_enclave_restore { enclave_id; va; gpfn } -> Some (restore t vcpu ~enclave_id ~va ~gpfn)
  | Idcb.R_pt_sync { pid; va; npages; prot } -> Some (pt_sync t vcpu ~pid ~va ~npages ~prot)
  | Idcb.R_enclave_schedule { enclave_id; vcpu_id } -> (
      match Hashtbl.find_opt t.enclaves enclave_id with
      | None -> Some (Idcb.Resp_error "VeilS-ENC: unknown enclave")
      | Some enclave -> (
          match schedule_enc_vmsa t vcpu enclave ~vcpu_id with
          | Ok () -> Some Idcb.Resp_ok
          | Error e -> Some (Idcb.Resp_error e)))
  | _ -> None

let install mon =
  let t =
    {
      mon;
      stats =
        { created = 0; destroyed = 0; rejected = 0; entries = 0; exits = 0; evictions = 0; restores = 0 };
      enclaves = Hashtbl.create 8;
      frames_in_use = Hashtbl.create 64;
      scheduled = Hashtbl.create 8;
      c_entries = Obs.Metrics.counter (Monitor.platform mon).P.metrics "encsvc.entries";
      c_exits = Obs.Metrics.counter (Monitor.platform mon).P.metrics "encsvc.exits";
      g_degraded = Obs.Metrics.gauge (Monitor.platform mon).P.metrics "encsvc.degraded";
    }
  in
  Monitor.register_service mon ~name:"veils-enc" ~target:Privdom.Sec (fun m vcpu req ->
      handler t m vcpu req);
  t
