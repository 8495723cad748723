module P = Sevsnp.Platform
module T = Sevsnp.Types
module C = Sevsnp.Cycles
module Pt = Sevsnp.Pagetable

type t = {
  platform : P.t;
  mutable vcpu : Sevsnp.Vcpu.t;
  fs : Fs.t;
  net : Net.t;
  audit : Audit.t;
  rng : Veil_crypto.Rng.t;
  free_lo : int;
  free_hi : int;
  mutable next_free : int;
  mutable freed : int list;
  text : int * int;
  data : int * int;
  symbols : (string * int) list;
  mutable hooks : Hooks.t;
  mutable hooks_installed : bool;
  mutable ring_flush : (unit -> unit) option;
      (* Veil-Ring: called at the syscall tail to flush the current
         VCPU's submission ring once it crosses its watermark; None
         (the default) keeps the unbatched path byte-identical *)
  procs : (int, Process.t) Hashtbl.t;
  mutable next_pid : int;
  mutable ghcb : Sevsnp.Ghcb.t option;
  mutable init : Process.t option;
  mutable jiffies : int;
  mutable syscalls : int;
  vendor : Veil_crypto.Schnorr.keypair;
  modules : (string, Kmodule.loaded) Hashtbl.t;
  mutable next_enclave_id : int;
  c_syscalls : Obs.Metrics.counter;
  h_syscall_cycles : Obs.Metrics.histogram;
}

let platform t = t.platform
let vcpu t = t.vcpu

(* Veil-SMP: the kernel executes on whichever VCPU the interleaver
   picked; every subsequent charge/causal-id/monitor call is
   attributed to it.  The new VCPU must already be running a Dom_UNT
   instance (AP bring-up through the monitor does that). *)
let set_vcpu t v = t.vcpu <- v

let kernel_vmpl t = Sevsnp.Vcpu.vmpl t.vcpu
let fs t = t.fs
let audit t = t.audit
let rng t = t.rng
let set_hooks t h =
  t.hooks <- h;
  t.hooks_installed <- true;
  (* kaudit's audit_log_end hook now feeds VeilS-LOG (§6.3). *)
  Audit.set_protect_hook t.audit (Some h.Hooks.h_audit)

let set_audit_protection t enabled =
  Audit.set_protect_hook t.audit
    (if enabled && t.hooks_installed then Some t.hooks.Hooks.h_audit else None)

let set_ring_flush t f = t.ring_flush <- f

let hooks t = t.hooks
let symbol_table t = t.symbols
let jiffies t = t.jiffies
let syscalls_invoked t = t.syscalls
let vendor_public_key t = t.vendor.Veil_crypto.Schnorr.public

let vendor_sign_module t img = Kmodule.sign t.rng ~vendor_secret:t.vendor.Veil_crypto.Schnorr.secret img

let charge t bucket n = Sevsnp.Vcpu.charge t.vcpu bucket n

(* --- frame allocator --- *)

let alloc_frame t =
  match t.freed with
  | f :: rest ->
      t.freed <- rest;
      Sevsnp.Phys_mem.zero_page t.platform.P.mem f;
      f
  | [] ->
      if t.next_free >= t.free_hi then failwith "kernel: out of physical frames";
      let f = t.next_free in
      t.next_free <- f + 1;
      f

let free_frame t f = t.freed <- f :: t.freed

let frames_free t = (t.free_hi - t.next_free) + List.length t.freed

(* --- page-state changes (§5.3 delegation) --- *)

let notify_host_page_state t gpfn to_shared =
  match t.ghcb with
  | None -> () (* early boot: host learns lazily *)
  | Some g ->
      g.Sevsnp.Ghcb.request <- Sevsnp.Ghcb.Req_page_state_change { gpfn; to_shared };
      P.vmgexit t.platform t.vcpu

let pvalidate_op t gpfn to_private =
  if T.equal_vmpl (kernel_vmpl t) T.Vmpl0 then
    Result.map_error (fun e -> e) (P.pvalidate t.platform t.vcpu ~bucket:C.Kernel ~gpfn ~to_private ())
  else t.hooks.Hooks.h_pvalidate ~gpfn ~to_private

let share_page_with_host t gpfn =
  match pvalidate_op t gpfn false with
  | Error _ as e -> e
  | Ok () ->
      notify_host_page_state t gpfn true;
      Ok ()

let ghcb t = match t.ghcb with Some g -> g | None -> failwith "kernel GHCB not set up"

(* --- page tables --- *)

let pt_io t : Pt.io =
  {
    Pt.read_u64 = P.read_u64 t.platform t.vcpu;
    write_u64 = P.write_u64 t.platform t.vcpu;
    alloc_frame =
      (fun () ->
        charge t C.Kernel 400;
        alloc_frame t);
    invalidate = (fun () -> P.tlb_shootdown t.platform);
  }

let flags_of_prot (p : Ktypes.prot) : Pt.flags =
  { Pt.present = true; writable = p.Ktypes.pw; user = true; nx = not p.Ktypes.px }

let map_user_pages t (proc : Process.t) ~va ~npages ~prot =
  let io = pt_io t in
  for i = 0 to npages - 1 do
    let frame = alloc_frame t in
    charge t C.Kernel 500;
    Pt.map io ~root:proc.Process.pt_root (va + (i * T.page_size)) { Pt.pte_gpfn = frame; pte_flags = flags_of_prot prot }
  done

let unmap_user_pages t (proc : Process.t) ~va ~npages =
  let io = pt_io t in
  for i = 0 to npages - 1 do
    let page_va = va + (i * T.page_size) in
    (match P.translate t.platform ~root:proc.Process.pt_root page_va with
    | Some pte -> free_frame t pte.Pt.pte_gpfn
    | None -> ());
    charge t C.Kernel 300;
    ignore (Pt.unmap io ~root:proc.Process.pt_root page_va)
  done;
  (* Distributed TLB shootdown: local flush on the initiating VCPU
     (500 cycles, the pre-SMP flat constant) plus one IPI send/ack per
     remote VCPU and the handler cost on each remote (Veil-SMP). *)
  P.tlb_shootdown_distributed t.platform ~initiator:t.vcpu

let write_user t (proc : Process.t) ~va data =
  charge t C.Copy (C.copy_cost (Bytes.length data));
  P.write_via_pt t.platform t.vcpu ~root:proc.Process.pt_root va data

let read_user t (proc : Process.t) ~va ~len =
  charge t C.Copy (C.copy_cost len);
  P.read_via_pt t.platform t.vcpu ~root:proc.Process.pt_root va len

(* --- boot --- *)

let boot ~platform ~vcpu ~free_frames:(free_lo, free_hi) ~text_frames ~data_frames () =
  let rng = Veil_crypto.Rng.split platform.P.rng in
  let t =
    {
      platform;
      vcpu;
      fs = Fs.create (Veil_crypto.Rng.split rng);
      net = Net.create ();
      audit = Audit.create ();
      rng;
      free_lo;
      free_hi;
      next_free = free_lo;
      freed = [];
      text = text_frames;
      data = data_frames;
      symbols = [];
      hooks = Hooks.none;
      hooks_installed = false;
      ring_flush = None;
      procs = Hashtbl.create 16;
      next_pid = 1;
      ghcb = None;
      init = None;
      jiffies = 0;
      syscalls = 0;
      vendor = Veil_crypto.Schnorr.keygen (Veil_crypto.Rng.split rng);
      modules = Hashtbl.create 8;
      next_enclave_id = 1;
      c_syscalls = Obs.Metrics.counter platform.P.metrics "kernel.syscalls";
      h_syscall_cycles = Obs.Metrics.histogram platform.P.metrics "kernel.syscall_cycles";
    }
  in
  let text_lo, _ = text_frames in
  let symbols =
    List.init 64 (fun i -> (Printf.sprintf "ksym_%d" i, T.gpa_of_gpfn text_lo + (i * 64)))
  in
  { t with symbols }

let finish_boot t =
  (* Native kernels validate guest memory themselves at VMPL-0; under
     Veil the monitor has already validated and granted access. *)
  (if T.equal_vmpl (kernel_vmpl t) T.Vmpl0 then begin
     let validate_range (lo, hi) =
       for gpfn = lo to hi - 1 do
         match P.pvalidate t.platform t.vcpu ~bucket:C.Kernel ~gpfn ~to_private:true () with
         | Ok () -> ()
         | Error e -> failwith e
       done
     in
     validate_range t.text;
     validate_range t.data;
     validate_range (t.free_lo, t.free_hi)
   end);
  (* Kernel GHCB: under Veil the monitor pre-provisioned one for the
     Dom_UNT instance; a native kernel sets its own up. *)
  (match P.ghcb_of_vcpu t.platform t.vcpu with
  | Some g -> t.ghcb <- Some g
  | None ->
      let ghcb_frame = alloc_frame t in
      (match share_page_with_host t ghcb_frame with
      | Ok () -> ()
      | Error e -> failwith ("kernel ghcb: " ^ e));
      (match P.set_ghcb t.platform t.vcpu (T.gpa_of_gpfn ghcb_frame) with
      | Ok () -> ()
      | Error e -> failwith ("kernel ghcb msr: " ^ e));
      t.ghcb <- Some (Option.get (P.ghcb_of_vcpu t.platform t.vcpu)))

let spawn t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let pt_root = alloc_frame t in
  charge t C.Kernel 4000;
  let p = Process.create ~pid ~ppid:(if pid = 1 then 0 else 1) ~pt_root in
  Hashtbl.replace t.procs pid p;
  if t.init = None then t.init <- Some p;
  p

let proc t pid = Hashtbl.find_opt t.procs pid

let init_process t = match t.init with Some p -> p | None -> failwith "kernel: no init process"

(* --- interrupts --- *)

let handle_interrupt t _vcpu =
  t.jiffies <- t.jiffies + 1;
  charge t C.Kernel 1800

(* --- module loading --- *)

let apply_relocations t (img : Kmodule.image) text_copy =
  List.iter
    (fun (off, sym) ->
      match List.assoc_opt sym t.symbols with
      | None -> failwith (Printf.sprintf "module %s: unknown symbol %s" img.Kmodule.name sym)
      | Some addr ->
          charge t C.Kernel 200;
          Bytes.set_int64_le text_copy off (Int64.of_int addr))
    img.Kmodule.relocs

let alloc_span t nbytes =
  let npages = max 1 ((nbytes + T.page_size - 1) / T.page_size) in
  List.init npages (fun _ -> alloc_frame t)

let write_span t frames data =
  List.iteri
    (fun i frame ->
      let off = i * T.page_size in
      let n = min T.page_size (Bytes.length data - off) in
      if n > 0 then begin
        charge t C.Copy (C.copy_cost n);
        P.write_sub t.platform t.vcpu (T.gpa_of_gpfn frame) data off n
      end)
    frames

let load_module_native t (img : Kmodule.image) =
  charge t C.Crypto (C.hash_cost (Kmodule.binary_size img));
  if not (Kmodule.verify ~vendor_public:(vendor_public_key t) img) then Error "module signature invalid"
  else begin
    let text_copy = Bytes.copy img.Kmodule.text in
    apply_relocations t img text_copy;
    let text_gpfns = alloc_span t (Bytes.length text_copy) in
    let data_gpfns = alloc_span t (Bytes.length img.Kmodule.data) in
    write_span t text_gpfns text_copy;
    write_span t data_gpfns img.Kmodule.data;
    (* W^X via page-table flags only (the protection VeilS-KCI
       hardens with RMPADJUST, since these bits are forgeable). *)
    charge t C.Kernel (300 * List.length text_gpfns);
    Ok
      {
        Kmodule.module_image = img;
        text_gpfns;
        data_gpfns;
        load_address = T.gpa_of_gpfn (List.hd text_gpfns);
        installed = true;
      }
  end

let load_module t img =
  charge t C.Kernel 700_000 (* allocation, sysfs/kobject setup, init call *);
  let result = if t.hooks_installed then t.hooks.Hooks.h_module_load img else load_module_native t img in
  (match result with
  | Ok loaded -> Hashtbl.replace t.modules img.Kmodule.name loaded
  | Error _ -> ());
  result

let unload_module t name =
  match Hashtbl.find_opt t.modules name with
  | None -> Error "module not loaded"
  | Some loaded ->
      charge t C.Kernel 1_280_000 (* synchronize_rcu + teardown dominate unload *);
      let release () =
        List.iter (free_frame t) loaded.Kmodule.text_gpfns;
        List.iter (free_frame t) loaded.Kmodule.data_gpfns;
        loaded.Kmodule.installed <- false;
        Hashtbl.remove t.modules name
      in
      if t.hooks_installed then (
        match t.hooks.Hooks.h_module_unload loaded with
        | Ok () ->
            release ();
            Ok ()
        | Error _ as e -> e)
      else begin
        release ();
        Ok ()
      end

let find_module t name = Hashtbl.find_opt t.modules name

(* --- enclave support (the ioctl kernel module of §7) --- *)

let open_veil_device _t proc = Process.alloc_fd proc (Fd.mk_veil_dev ())

let enclave_create t (proc : Process.t) ~binary ~heap_pages ~stack_pages =
  if proc.Process.enclave <> None then Error Ktypes.EEXIST
  else begin
    let id = t.next_enclave_id in
    t.next_enclave_id <- id + 1;
    let code_pages = max 1 ((Bytes.length binary + T.page_size - 1) / T.page_size) in
    let base = Process.enclave_base in
    let mk_page i kind =
      let gpfn = alloc_frame t in
      { Enclave_desc.page_va = base + (i * T.page_size); page_gpfn = gpfn; page_kind = kind }
    in
    let pages =
      List.init code_pages (fun i -> mk_page i Enclave_desc.Code)
      @ List.init heap_pages (fun i -> mk_page (code_pages + i) Enclave_desc.Heap)
      @ List.init stack_pages (fun i -> mk_page (code_pages + heap_pages + i) Enclave_desc.Stack)
    in
    (* Copy the self-contained binary into the code pages and map the
       whole region into the process tables (OS-side installation). *)
    List.iteri
      (fun i (pg : Enclave_desc.page) ->
        (if pg.Enclave_desc.page_kind = Enclave_desc.Code then begin
           let off = i * T.page_size in
           let n = min T.page_size (Bytes.length binary - off) in
           if n > 0 then begin
             charge t C.Copy (C.copy_cost n);
             P.write t.platform t.vcpu (T.gpa_of_gpfn pg.Enclave_desc.page_gpfn) (Bytes.sub binary off n)
           end
         end);
        let prot = Enclave_desc.prot_of_kind pg.Enclave_desc.page_kind in
        charge t C.Kernel 500;
        Pt.map (pt_io t) ~root:proc.Process.pt_root pg.Enclave_desc.page_va
          { Pt.pte_gpfn = pg.Enclave_desc.page_gpfn; pte_flags = flags_of_prot prot })
      pages;
    (* Per-thread user-mapped GHCB (§6.2). *)
    let ghcb_frame = alloc_frame t in
    match share_page_with_host t ghcb_frame with
    | Error _ -> Error Ktypes.ENOMEM
    | Ok () ->
        let ghcb_va = base + ((code_pages + heap_pages + stack_pages + 4) * T.page_size) in
        Pt.map (pt_io t) ~root:proc.Process.pt_root ghcb_va
          { Pt.pte_gpfn = ghcb_frame; pte_flags = flags_of_prot Ktypes.prot_rw };
        (* Untrusted in-process arena for redirected system calls. *)
        let shared_pages = 8 in
        let shared =
          List.init shared_pages (fun i ->
              let va = ghcb_va + ((1 + i) * T.page_size) in
              let frame = alloc_frame t in
              charge t C.Kernel 500;
              Pt.map (pt_io t) ~root:proc.Process.pt_root va
                { Pt.pte_gpfn = frame; pte_flags = flags_of_prot Ktypes.prot_rw };
              (va, frame))
        in
        let desc =
          {
            Enclave_desc.enclave_id = id;
            owner_pid = proc.Process.pid;
            base_va = base;
            entry_va = base;
            pages;
            ghcb_gpfn = ghcb_frame;
            ghcb_va;
            shared;
            measurement = None;
          }
        in
        (match t.hooks.Hooks.h_enclave_finalize desc with
        | Error _ -> Error Ktypes.EPERM
        | Ok measurement ->
            desc.Enclave_desc.measurement <- Some measurement;
            proc.Process.enclave <- Some desc;
            Ok desc)
  end

let enclave_destroy t (proc : Process.t) =
  match proc.Process.enclave with
  | None -> Error Ktypes.EINVAL
  | Some desc -> (
      match t.hooks.Hooks.h_enclave_destroy desc with
      | Error _ -> Error Ktypes.EPERM
      | Ok () ->
          List.iter
            (fun (pg : Enclave_desc.page) ->
              ignore (Pt.unmap (pt_io t) ~root:proc.Process.pt_root pg.Enclave_desc.page_va);
              free_frame t pg.Enclave_desc.page_gpfn)
            desc.Enclave_desc.pages;
          List.iter
            (fun (va, frame) ->
              ignore (Pt.unmap (pt_io t) ~root:proc.Process.pt_root va);
              free_frame t frame)
            desc.Enclave_desc.shared;
          ignore (Pt.unmap (pt_io t) ~root:proc.Process.pt_root desc.Enclave_desc.ghcb_va);
          proc.Process.enclave <- None;
          Ok ())

(* --- system calls --- *)

let open_flag_bits flags =
  let accmode = flags land 3 in
  let has bit = flags land bit <> 0 in
  ( (accmode = 0 || accmode = 2),
    (accmode = 1 || accmode = 2),
    has 0x40 (* O_CREAT *),
    has 0x200 (* O_TRUNC *),
    has 0x400 (* O_APPEND *),
    has 0x80 (* O_EXCL *) )

let abspath (proc : Process.t) path =
  if String.length path > 0 && path.[0] = '/' then path
  else if proc.Process.cwd = "/" then "/" ^ path
  else proc.Process.cwd ^ "/" ^ path

let lift : ('a, Ktypes.errno) result -> ('a -> Ktypes.ret) -> Ktypes.ret =
 fun r k -> match r with Ok v -> k v | Error e -> Ktypes.RErr e

let sys_open t proc path flags mode =
  charge t C.Kernel 2600 (* path walk, dentry/inode, fd install *);
  let path = abspath proc path in
  let readable, writable, creat, trunc, append, excl = open_flag_bits flags in
  let exists = Fs.exists t.fs path in
  if exists && creat && excl then Ktypes.RErr Ktypes.EEXIST
  else if (not exists) && not creat then Ktypes.RErr Ktypes.ENOENT
  else begin
    let create_result =
      if not exists then Fs.create_file t.fs path ~mode:(mode land lnot proc.Process.umask) else Ok ()
    in
    lift create_result (fun () ->
        let trunc_result = if trunc && Fs.kind_of t.fs path = Some Fs.Regular then Fs.truncate t.fs path 0 else Ok () in
        lift trunc_result (fun () ->
            match Fs.kind_of t.fs path with
            | Some Fs.Directory when writable -> Ktypes.RErr Ktypes.EISDIR
            | None -> Ktypes.RErr Ktypes.ENOENT
            | Some _ -> Ktypes.RInt (Process.alloc_fd proc (Fd.mk_file ~path ~readable ~writable ~append))))
  end

let file_size t path = match Fs.size_of t.fs path with Ok n -> n | Error _ -> 0

let sys_read t proc fd len =
  if len < 0 then Ktypes.RErr Ktypes.EINVAL
  else
  lift (Process.find_fd proc fd) (fun f ->
      match f.Fd.kind with
      | Fd.File fs_state ->
          if not fs_state.Fd.readable then Ktypes.RErr Ktypes.EBADF
          else
            lift (Fs.read_at t.fs fs_state.Fd.path ~pos:fs_state.Fd.pos ~len) (fun data ->
                fs_state.Fd.pos <- fs_state.Fd.pos + Bytes.length data;
                charge t C.Copy (C.copy_cost (Bytes.length data));
                Ktypes.RBuf data)
      | Fd.Sock ep ->
          lift (Net.recv t.net ep len) (fun data ->
              charge t C.Copy (C.copy_cost (Bytes.length data));
              Ktypes.RBuf data)
      | Fd.Pipe_r p ->
          let n = min len (Buffer.length p.Fd.pbuf) in
          if n = 0 then if p.Fd.writers > 0 then Ktypes.RErr Ktypes.EAGAIN else Ktypes.RBuf Bytes.empty
          else begin
            let all = Buffer.contents p.Fd.pbuf in
            let out = Bytes.of_string (String.sub all 0 n) in
            Buffer.clear p.Fd.pbuf;
            Buffer.add_string p.Fd.pbuf (String.sub all n (String.length all - n));
            charge t C.Copy (C.copy_cost n);
            Ktypes.RBuf out
          end
      | Fd.Pipe_w _ -> Ktypes.RErr Ktypes.EBADF
      | Fd.Veil_dev -> Ktypes.RErr Ktypes.EINVAL)

let sys_write t proc fd data =
  lift (Process.find_fd proc fd) (fun f ->
      match f.Fd.kind with
      | Fd.File fs_state ->
          if not fs_state.Fd.writable then Ktypes.RErr Ktypes.EBADF
          else begin
            let pos = if fs_state.Fd.append then file_size t fs_state.Fd.path else fs_state.Fd.pos in
            (* Console writes traverse the tty layer. *)
            if fs_state.Fd.path = "/dev/console" then charge t C.Kernel 2500;
            lift (Fs.write_at t.fs fs_state.Fd.path ~pos data) (fun n ->
                fs_state.Fd.pos <- pos + n;
                charge t C.Copy (C.copy_cost n);
                Ktypes.RInt n)
          end
      | Fd.Sock ep ->
          lift (Net.send t.net ep data) (fun n ->
              charge t C.Copy (C.copy_cost n);
              Ktypes.RInt n)
      | Fd.Pipe_w p ->
          if p.Fd.readers = 0 then Ktypes.RErr Ktypes.EPIPE
          else begin
            Buffer.add_bytes p.Fd.pbuf data;
            charge t C.Copy (C.copy_cost (Bytes.length data));
            Ktypes.RInt (Bytes.length data)
          end
      | Fd.Pipe_r _ -> Ktypes.RErr Ktypes.EBADF
      | Fd.Veil_dev -> Ktypes.RErr Ktypes.EINVAL)

let sys_lseek t proc fd off whence =
  lift (Process.find_fd proc fd) (fun f ->
      match f.Fd.kind with
      | Fd.File fs_state ->
          let base =
            match whence with
            | 0 -> 0
            | 1 -> fs_state.Fd.pos
            | 2 -> ( match Fs.size_of t.fs fs_state.Fd.path with Ok n -> n | Error _ -> 0)
            | _ -> -1
          in
          if base < 0 || base + off < 0 then Ktypes.RErr Ktypes.EINVAL
          else begin
            fs_state.Fd.pos <- base + off;
            Ktypes.RInt fs_state.Fd.pos
          end
      | _ -> Ktypes.RErr Ktypes.ESPIPE)

let prot_of_bits bits =
  { Ktypes.pr = bits land 1 <> 0; pw = bits land 2 <> 0; px = bits land 4 <> 0 }

let sys_mmap t proc ~len ~protbits ~fd ~off =
  if len <= 0 then Ktypes.RErr Ktypes.EINVAL
  else begin
    let npages = (len + T.page_size - 1) / T.page_size in
    let va = proc.Process.mmap_cursor in
    proc.Process.mmap_cursor <- va + ((npages + 1) * T.page_size);
    let prot = prot_of_bits protbits in
    charge t C.Kernel 2600;
    map_user_pages t proc ~va ~npages ~prot:{ prot with Ktypes.pw = true };
    (* Pre-populate file-backed mappings. *)
    (match if fd >= 0 then Process.find_fd proc fd else Error Ktypes.EBADF with
    | Ok { Fd.kind = Fd.File fs_state } -> (
        match Fs.read_at t.fs fs_state.Fd.path ~pos:off ~len with
        | Ok data when Bytes.length data > 0 -> write_user t proc ~va data
        | _ -> ())
    | _ -> ());
    (* Restore requested protections if tighter than rw. *)
    (if not prot.Ktypes.pw then
       let io = pt_io t in
       for i = 0 to npages - 1 do
         ignore (Pt.protect io ~root:proc.Process.pt_root (va + (i * T.page_size)) (flags_of_prot prot))
       done);
    Process.add_vma proc { Process.vma_start = va; vma_npages = npages; vma_file = None };
    Ktypes.RInt va
  end

let enclave_range (proc : Process.t) va npages =
  match proc.Process.enclave with
  | None -> false
  | Some desc ->
      let lo = desc.Enclave_desc.base_va in
      let hi = lo + (Enclave_desc.npages desc * T.page_size) in
      va < hi && va + (npages * T.page_size) > lo

let sys_munmap t proc va len =
  let npages = (len + T.page_size - 1) / T.page_size in
  if enclave_range proc va npages then Ktypes.RErr Ktypes.EACCES
  else begin
    match Process.find_vma proc va with
    | None -> Ktypes.RErr Ktypes.EINVAL
    | Some vma ->
        charge t C.Kernel 1400;
        unmap_user_pages t proc ~va ~npages:(min npages vma.Process.vma_npages);
        ignore (Process.remove_vma proc vma.Process.vma_start);
        Ktypes.RInt 0
  end

let sys_mprotect t proc va len protbits =
  let npages = (len + T.page_size - 1) / T.page_size in
  let prot = prot_of_bits protbits in
  if enclave_range proc va npages then
    (* Enclave region permissions are owned by VeilS-ENC (§6.2). *)
    Ktypes.RErr Ktypes.EACCES
  else begin
    charge t C.Kernel 900;
    let io = pt_io t in
    let changed = ref 0 in
    for i = 0 to npages - 1 do
      if Pt.protect io ~root:proc.Process.pt_root (va + (i * T.page_size)) (flags_of_prot prot) then incr changed
    done;
    (* Keep the enclave's protected tables in sync (§6.2). *)
    if proc.Process.enclave <> None then t.hooks.Hooks.h_pt_sync ~pid:proc.Process.pid ~va ~npages ~prot;
    if !changed = 0 then Ktypes.RErr Ktypes.EINVAL else Ktypes.RInt 0
  end

let sys_brk t proc newbrk =
  if newbrk = 0 then Ktypes.RInt proc.Process.brk
  else if newbrk < proc.Process.brk_start then Ktypes.RErr Ktypes.EINVAL
  else begin
    let cur_pages = (proc.Process.brk - proc.Process.brk_start + T.page_size - 1) / T.page_size in
    let want_pages = (newbrk - proc.Process.brk_start + T.page_size - 1) / T.page_size in
    if want_pages > cur_pages then
      map_user_pages t proc
        ~va:(proc.Process.brk_start + (cur_pages * T.page_size))
        ~npages:(want_pages - cur_pages) ~prot:Ktypes.prot_rw
    else if want_pages < cur_pages then
      unmap_user_pages t proc
        ~va:(proc.Process.brk_start + (want_pages * T.page_size))
        ~npages:(cur_pages - want_pages);
    proc.Process.brk <- newbrk;
    Ktypes.RInt newbrk
  end

let sys_socket t proc =
  charge t C.Kernel 2600 (* sk_alloc, protocol setup *);
  Ktypes.RInt (Process.alloc_fd proc (Fd.mk_sock (Net.socket t.net)))

let with_sock proc fd k =
  lift (Process.find_fd proc fd) (fun f ->
      match f.Fd.kind with Fd.Sock ep -> k ep | _ -> Ktypes.RErr Ktypes.EBADF)

let sys_ioctl t proc fd cmd rest =
  lift (Process.find_fd proc fd) (fun f ->
      match (f.Fd.kind, cmd, rest) with
      | Fd.Veil_dev, 1, [ Ktypes.Buf binary; Ktypes.Int heap_pages; Ktypes.Int stack_pages ] ->
          lift (enclave_create t proc ~binary ~heap_pages ~stack_pages) (fun desc ->
              Ktypes.RInt desc.Enclave_desc.enclave_id)
      | Fd.Veil_dev, 2, [] -> lift (enclave_destroy t proc) (fun () -> Ktypes.RInt 0)
      | _ -> Ktypes.RErr Ktypes.EINVAL)

let dispatch t (proc : Process.t) (sys : Sysno.t) (args : Ktypes.arg list) : Ktypes.ret =
  let open Ktypes in
  match (sys, args) with
  | Sysno.Open, [ Str path; Int flags; Int mode ] -> sys_open t proc path flags mode
  | Sysno.Openat, [ Int _dirfd; Str path; Int flags; Int mode ] -> sys_open t proc path flags mode
  | Sysno.Creat, [ Str path; Int mode ] -> sys_open t proc path (0x40 lor 0x200 lor 1) mode
  | Sysno.Close, [ Int fd ] -> if Process.remove_fd proc fd then RInt 0 else RErr EBADF
  | Sysno.Read, [ Int fd; Int len ] -> sys_read t proc fd len
  | Sysno.Write, [ Int fd; Buf data ] -> sys_write t proc fd data
  | Sysno.Pread64, [ Int fd; Int len; Int pos ] ->
      lift (Process.find_fd proc fd) (fun f ->
          match f.Fd.kind with
          | Fd.File st ->
              lift (Fs.read_at t.fs st.Fd.path ~pos ~len) (fun data ->
                  charge t C.Copy (C.copy_cost (Bytes.length data));
                  RBuf data)
          | _ -> RErr ESPIPE)
  | Sysno.Pwrite64, [ Int fd; Buf data; Int pos ] ->
      lift (Process.find_fd proc fd) (fun f ->
          match f.Fd.kind with
          | Fd.File st ->
              lift (Fs.write_at t.fs st.Fd.path ~pos data) (fun n ->
                  charge t C.Copy (C.copy_cost n);
                  RInt n)
          | _ -> RErr ESPIPE)
  | Sysno.Readv, [ Int fd; Int len ] -> sys_read t proc fd len
  | Sysno.Writev, [ Int fd; Buf data ] -> sys_write t proc fd data
  | Sysno.Lseek, [ Int fd; Int off; Int whence ] -> sys_lseek t proc fd off whence
  | Sysno.Stat, [ Str path ] | Sysno.Lstat, [ Str path ] ->
      charge t C.Kernel 900;
      lift (Fs.stat t.fs (abspath proc path)) (fun s -> RStat s)
  | Sysno.Fstat, [ Int fd ] ->
      lift (Process.find_fd proc fd) (fun f ->
          match f.Fd.kind with
          | Fd.File st -> lift (Fs.stat t.fs st.Fd.path) (fun s -> RStat s)
          | _ -> RStat { st_size = 0; st_is_dir = false; st_mode = 0o600; st_ino = 0 })
  | Sysno.Access, [ Str path ] -> if Fs.exists t.fs (abspath proc path) then RInt 0 else RErr ENOENT
  | Sysno.Mkdir, [ Str path; Int _mode ] | Sysno.Mkdirat, [ Int _; Str path; Int _mode ] ->
      lift (Fs.mkdir t.fs (abspath proc path)) (fun () -> RInt 0)
  | Sysno.Rmdir, [ Str path ] -> lift (Fs.rmdir t.fs (abspath proc path)) (fun () -> RInt 0)
  | Sysno.Unlink, [ Str path ] | Sysno.Unlinkat, [ Int _; Str path ] ->
      lift (Fs.unlink t.fs (abspath proc path)) (fun () -> RInt 0)
  | Sysno.Rename, [ Str a; Str b ] | Sysno.Renameat, [ Str a; Str b ] ->
      lift (Fs.rename t.fs (abspath proc a) (abspath proc b)) (fun () -> RInt 0)
  | Sysno.Link, [ Str a; Str b ] -> lift (Fs.link t.fs (abspath proc a) (abspath proc b)) (fun () -> RInt 0)
  | Sysno.Symlink, [ Str target; Str linkpath ] ->
      lift (Fs.symlink t.fs ~target ~linkpath:(abspath proc linkpath)) (fun () -> RInt 0)
  | Sysno.Readlink, [ Str path ] ->
      lift (Fs.readlink t.fs (abspath proc path)) (fun s -> RBuf (Bytes.of_string s))
  | Sysno.Truncate, [ Str path; Int len ] -> lift (Fs.truncate t.fs (abspath proc path) len) (fun () -> RInt 0)
  | Sysno.Ftruncate, [ Int fd; Int len ] ->
      lift (Process.find_fd proc fd) (fun f ->
          match f.Fd.kind with
          | Fd.File st -> lift (Fs.truncate t.fs st.Fd.path len) (fun () -> RInt 0)
          | _ -> RErr EBADF)
  | Sysno.Chmod, [ Str path; Int mode ] -> lift (Fs.chmod t.fs (abspath proc path) mode) (fun () -> RInt 0)
  | Sysno.Fchmod, [ Int fd; Int mode ] ->
      lift (Process.find_fd proc fd) (fun f ->
          match f.Fd.kind with
          | Fd.File st -> lift (Fs.chmod t.fs st.Fd.path mode) (fun () -> RInt 0)
          | _ -> RErr EBADF)
  | Sysno.Chown, [ Str path; Int _; Int _ ] ->
      if Fs.exists t.fs (abspath proc path) then RInt 0 else RErr ENOENT
  | Sysno.Getdents, [ Int fd ] ->
      lift (Process.find_fd proc fd) (fun f ->
          match f.Fd.kind with
          | Fd.File st ->
              lift (Fs.readdir t.fs st.Fd.path) (fun names -> RBuf (Bytes.of_string (String.concat "\n" names)))
          | _ -> RErr ENOTDIR)
  | Sysno.Getcwd, [] -> RBuf (Bytes.of_string proc.Process.cwd)
  | Sysno.Chdir, [ Str path ] ->
      let p = abspath proc path in
      if Fs.kind_of t.fs p = Some Fs.Directory then begin
        proc.Process.cwd <- p;
        RInt 0
      end
      else RErr ENOENT
  | Sysno.Fsync, [ Int fd ] ->
      lift (Process.find_fd proc fd) (fun f ->
          match f.Fd.kind with
          | Fd.File st ->
              let size = file_size t st.Fd.path in
              charge t C.Io (C.io_cost (min size 65536));
              RInt 0
          | _ -> RErr EBADF)
  | Sysno.Mmap, [ Int _addr; Int len; Int protbits; Int _flags; Int fd; Int off ] ->
      sys_mmap t proc ~len ~protbits ~fd ~off
  | Sysno.Munmap, [ Int va; Int len ] -> sys_munmap t proc va len
  | Sysno.Mprotect, [ Int va; Int len; Int protbits ] -> sys_mprotect t proc va len protbits
  | Sysno.Brk, [ Int newbrk ] -> sys_brk t proc newbrk
  | Sysno.Socket, [ Int _dom; Int _ty; Int _proto ] -> sys_socket t proc
  | Sysno.Bind, [ Int fd; Int port ] ->
      with_sock proc fd (fun ep -> lift (Net.bind t.net ep ~port) (fun () -> RInt 0))
  | Sysno.Listen, [ Int fd; Int backlog ] ->
      with_sock proc fd (fun ep -> lift (Net.listen t.net ep ~backlog) (fun () -> RInt 0))
  | Sysno.Connect, [ Int fd; Int port ] ->
      charge t C.Kernel 2200;
      with_sock proc fd (fun ep -> lift (Net.connect t.net ep ~port) (fun () -> RInt 0))
  | Sysno.Accept, [ Int fd ] | Sysno.Accept4, [ Int fd ] ->
      charge t C.Kernel 1800;
      with_sock proc fd (fun ep ->
          lift (Net.accept t.net ep) (fun client -> RInt (Process.alloc_fd proc (Fd.mk_sock client))))
  | Sysno.Sendto, [ Int fd; Buf data ] | Sysno.Sendmsg, [ Int fd; Buf data ] ->
      with_sock proc fd (fun ep ->
          lift (Net.send t.net ep data) (fun n ->
              charge t C.Copy (C.copy_cost n);
              RInt n))
  | Sysno.Recvfrom, [ Int fd; Int len ] | Sysno.Recvmsg, [ Int fd; Int len ] ->
      with_sock proc fd (fun ep ->
          lift (Net.recv t.net ep len) (fun data ->
              charge t C.Copy (C.copy_cost (Bytes.length data));
              RBuf data))
  | Sysno.Shutdown, [ Int fd ] ->
      with_sock proc fd (fun ep ->
          Net.shutdown t.net ep;
          RInt 0)
  | Sysno.Getsockname, [ Int fd ] | Sysno.Getpeername, [ Int fd ] -> with_sock proc fd (fun _ -> RInt 0)
  | Sysno.Setsockopt, [ Int fd; Int _; Int _ ] | Sysno.Getsockopt, [ Int fd; Int _; Int _ ] ->
      with_sock proc fd (fun _ -> RInt 0)
  | Sysno.Socketpair, [] ->
      let a, b = Net.pair t.net in
      let fda = Process.alloc_fd proc (Fd.mk_sock a) in
      let fdb = Process.alloc_fd proc (Fd.mk_sock b) in
      RInt (fda lor (fdb lsl 16))
  | Sysno.Pipe, [] | Sysno.Pipe2, [] ->
      let r, w = Fd.mk_pipe () in
      let fdr = Process.alloc_fd proc r in
      let fdw = Process.alloc_fd proc w in
      RInt (fdr lor (fdw lsl 16))
  | Sysno.Dup, [ Int fd ] ->
      lift (Process.find_fd proc fd) (fun f -> RInt (Process.alloc_fd proc f))
  | Sysno.Dup2, [ Int fd; Int newfd ] | Sysno.Dup3, [ Int fd; Int newfd ] ->
      lift (Process.find_fd proc fd) (fun f ->
          Process.install_fd proc newfd f;
          RInt newfd)
  | Sysno.Fcntl, [ Int fd; Int _cmd ] -> lift (Process.find_fd proc fd) (fun _ -> RInt 0)
  | Sysno.Sendfile, [ Int outfd; Int infd; Int count ] -> (
      match sys_read t proc infd count with
      | RBuf data -> sys_write t proc outfd data
      | r -> r)
  | Sysno.Splice, [ Int infd; Int outfd; Int count ] -> (
      match sys_read t proc infd count with
      | RBuf data -> sys_write t proc outfd data
      | r -> r)
  | Sysno.Getpid, [] -> RInt proc.Process.pid
  | Sysno.Getppid, [] -> RInt proc.Process.ppid
  | Sysno.Getuid, [] | Sysno.Geteuid, [] -> RInt proc.Process.uid
  | Sysno.Getgid, [] | Sysno.Getegid, [] -> RInt 0
  | Sysno.Setuid, [ Int uid ] ->
      proc.Process.uid <- uid;
      proc.Process.euid <- uid;
      RInt 0
  | Sysno.Setgid, [ Int _ ] -> RInt 0
  | Sysno.Setreuid, [ Int _; Int euid ] ->
      proc.Process.euid <- euid;
      RInt 0
  | Sysno.Setresuid, [ Int _; Int euid; Int _ ] ->
      proc.Process.euid <- euid;
      RInt 0
  | Sysno.Umask, [ Int m ] ->
      let old = proc.Process.umask in
      proc.Process.umask <- m land 0o777;
      RInt old
  | Sysno.Uname, [] -> RBuf (Bytes.of_string "Linux veil-cvm 5.16.0-rc4-snp x86_64")
  | Sysno.Gettimeofday, [] | Sysno.Clock_gettime, [] ->
      RInt (Sevsnp.Vcpu.rdtsc t.vcpu * 5 / 12) (* ns at 2.4 GHz *)
  | Sysno.Nanosleep, [ Int ns ] ->
      if ns < 0 then RErr EINVAL
      else begin
        charge t C.Other (ns * 12 / 5);
        RInt 0
      end
  | Sysno.Sched_yield, [] -> RInt 0
  | Sysno.Getrandom, [ Int len ] ->
      if len < 0 then RErr EINVAL
      else begin
        charge t C.Kernel (200 + (len * 3));
        RBuf (Veil_crypto.Rng.bytes t.rng len)
      end
  | Sysno.Fork, [] | Sysno.Vfork, [] | Sysno.Clone, [] ->
      charge t C.Kernel 45_000;
      let child = spawn t in
      RInt child.Process.pid
  | Sysno.Execve, [ Str _path ] ->
      charge t C.Kernel 120_000;
      RInt 0
  | Sysno.Exit, [ Int _ ] | Sysno.Exit_group, [ Int _ ] -> RInt 0
  | Sysno.Wait4, [ Int _pid ] -> RErr ENOSYS
  | Sysno.Kill, [ Int _pid; Int _sig ] -> RInt 0
  | Sysno.Mknod, [ Str path; Int mode; Int _dev ] | Sysno.Mknodat, [ Int _; Str path; Int mode; Int _dev ]
    ->
      lift (Fs.create_file t.fs (abspath proc path) ~mode) (fun () -> RInt 0)
  | Sysno.Statfs, [ Str _ ] -> RInt 0
  | Sysno.Ioctl, Int fd :: Int cmd :: rest -> sys_ioctl t proc fd cmd rest
  | Sysno.Poll, _ | Sysno.Select, _ | Sysno.Futex, _ | Sysno.Rt_sigaction, _ | Sysno.Rt_sigprocmask, _
    ->
      RErr ENOSYS
  | _ -> RErr EINVAL

let audit_detail (proc : Process.t) args =
  let buf = Buffer.create 64 in
  Printf.bprintf buf "uid=%d euid=%d" proc.Process.uid proc.Process.euid;
  List.iteri (fun i a -> Printf.bprintf buf " a%d=%a" i Ktypes.bprint_arg a) args;
  Buffer.contents buf

let invoke t proc sys args =
  t.syscalls <- t.syscalls + 1;
  Obs.Metrics.incr t.c_syscalls;
  let prof = t.platform.P.profiler in
  let prof_on = Obs.Profiler.enabled prof in
  let vcpu_id = t.vcpu.Sevsnp.Vcpu.id in
  (* Syscall entry is a request origin: mint a causal id if none is
     riding this VCPU (an enclave ocall arrives with one already). *)
  let minted = prof_on && Obs.Profiler.id prof ~vcpu:vcpu_id = 0 in
  if minted then Obs.Profiler.set_id prof ~vcpu:vcpu_id (Obs.Profiler.mint prof);
  let ts0 = Sevsnp.Vcpu.rdtsc t.vcpu in
  if prof_on then
    Obs.Profiler.push prof ~vcpu:vcpu_id ~vmpl:(T.vmpl_index (kernel_vmpl t)) ~ts:ts0 "syscall";
  charge t C.Kernel C.syscall_base;
  (* Execute-ahead auditing (§6.3): the record is built — and captured
     by the protect hook — *before* the event executes, so the log
     survives a compromise that happens at this very event. *)
  (if Audit.matches t.audit sys then begin
     let detail = audit_detail proc args in
     charge t C.Kernel C.kaudit_format;
     if prof_on then
       Obs.Profiler.leaf prof ~vcpu:vcpu_id ~vmpl:(T.vmpl_index (kernel_vmpl t))
         ~dur:C.kaudit_format "kaudit_format";
     ignore (Audit.emit t.audit ~cycles:(Sevsnp.Vcpu.rdtsc t.vcpu) ~sys ~pid:proc.Process.pid ~detail)
   end);
  let ret = dispatch t proc sys args in
  (* Veil-Ring flush point: deferred requests submitted during this
     syscall (audit records, pt_syncs) ride the ring until the
     watermark, then one batched monitor entry serves them all. *)
  (match t.ring_flush with None -> () | Some flush -> flush ());
  let dur = Sevsnp.Vcpu.rdtsc t.vcpu - ts0 in
  Obs.Metrics.observe t.h_syscall_cycles dur;
  if Obs.Trace.enabled t.platform.P.tracer then
    Obs.Trace.complete t.platform.P.tracer ~bucket:"kernel" ~arg:(Sysno.number sys)
      ~id:(Obs.Profiler.id prof ~vcpu:vcpu_id)
      ~vcpu:t.vcpu.Sevsnp.Vcpu.id ~vmpl:(T.vmpl_index (kernel_vmpl t)) ~ts:ts0 ~dur
      Obs.Trace.Syscall;
  if prof_on then begin
    Obs.Profiler.pop prof ~vcpu:vcpu_id ~ts:(Sevsnp.Vcpu.rdtsc t.vcpu);
    if minted then Obs.Profiler.set_id prof ~vcpu:vcpu_id 0
  end;
  ret


(* Blocking flavor for coroutine-scheduled processes (see Sched):
   EAGAIN yields to other runnable processes and retries. *)
let invoke_blocking t proc sys args =
  let rec go tries =
    match invoke t proc sys args with
    | Ktypes.RErr Ktypes.EAGAIN when tries > 0 ->
        Sched.yield ();
        go (tries - 1)
    | ret -> ret
  in
  go 100_000
