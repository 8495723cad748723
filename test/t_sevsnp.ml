(* SEV-SNP platform model tests: permissions, RMP semantics, memory,
   page tables, instruction semantics, attestation. *)

module T = Sevsnp.Types
module Perm = Sevsnp.Perm
module Rmp = Sevsnp.Rmp
module P = Sevsnp.Platform

let q = QCheck_alcotest.to_alcotest

(* --- Perm lattice --- *)

let perm_gen =
  QCheck.Gen.(
    map4
      (fun r w u s -> { Perm.read = r; write = w; user_exec = u; super_exec = s })
      bool bool bool bool)

let perm_arb = QCheck.make perm_gen

let perm_union_upper =
  QCheck.Test.make ~name:"perm union is an upper bound" ~count:200 (QCheck.pair perm_arb perm_arb)
    (fun (a, b) ->
      let u = Perm.union a b in
      Perm.subset a u && Perm.subset b u)

let perm_inter_lower =
  QCheck.Test.make ~name:"perm inter is a lower bound" ~count:200 (QCheck.pair perm_arb perm_arb)
    (fun (a, b) ->
      let i = Perm.inter a b in
      Perm.subset i a && Perm.subset i b)

let perm_subset_antisym =
  QCheck.Test.make ~name:"perm subset antisymmetric" ~count:200 (QCheck.pair perm_arb perm_arb)
    (fun (a, b) -> (not (Perm.subset a b && Perm.subset b a)) || Perm.equal a b)

let test_perm_allows () =
  Alcotest.(check bool) "rx allows supervisor exec" true (Perm.allows Perm.rx T.Execute T.Cpl0);
  Alcotest.(check bool) "rx allows user exec" true (Perm.allows Perm.rx T.Execute T.Cpl3);
  Alcotest.(check bool) "rw denies exec" false (Perm.allows Perm.rw T.Execute T.Cpl0);
  Alcotest.(check bool)
    "enclave text denies supervisor exec" false
    (Perm.allows Perm.r_user_exec T.Execute T.Cpl0);
  Alcotest.(check bool)
    "enclave text allows user exec" true
    (Perm.allows Perm.r_user_exec T.Execute T.Cpl3);
  Alcotest.(check bool) "none denies read" false (Perm.allows Perm.none T.Read T.Cpl0)

(* --- RMP --- *)

let test_rmp_lifecycle () =
  let rmp = Rmp.create ~npages:16 in
  Alcotest.(check bool) "fresh page invalid" true (Rmp.state rmp 3 = Rmp.Invalid);
  (match Rmp.check_guest_access rmp ~gpfn:3 ~vmpl:T.Vmpl0 ~cpl:T.Cpl0 ~access:T.Read with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "access to unvalidated page must fault");
  Rmp.validate rmp 3;
  Alcotest.(check bool) "validated is private" true (Rmp.state rmp 3 = Rmp.Private);
  (match Rmp.check_guest_access rmp ~gpfn:3 ~vmpl:T.Vmpl0 ~cpl:T.Cpl0 ~access:T.Write with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "vmpl0 must have full access after validate");
  (match Rmp.check_guest_access rmp ~gpfn:3 ~vmpl:T.Vmpl3 ~cpl:T.Cpl0 ~access:T.Read with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "vmpl3 has no default access");
  Rmp.unvalidate rmp 3;
  Alcotest.(check bool) "unvalidate -> shared" true (Rmp.state rmp 3 = Rmp.Shared)

let test_rmp_adjust_rules () =
  let rmp = Rmp.create ~npages:16 in
  Rmp.validate rmp 1;
  (* privileged caller grants a lower VMPL *)
  (match Rmp.adjust rmp ~caller:T.Vmpl0 ~gpfn:1 ~target:T.Vmpl3 ~perms:Perm.all ~vmsa:false with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Rmp.check_guest_access rmp ~gpfn:1 ~vmpl:T.Vmpl3 ~cpl:T.Cpl0 ~access:T.Write with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "granted access must pass");
  (* same or higher target refused *)
  (match Rmp.adjust rmp ~caller:T.Vmpl1 ~gpfn:1 ~target:T.Vmpl1 ~perms:Perm.all ~vmsa:false with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cannot adjust own level");
  (match Rmp.adjust rmp ~caller:T.Vmpl3 ~gpfn:1 ~target:T.Vmpl1 ~perms:Perm.all ~vmsa:false with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cannot adjust more privileged level");
  (* vmsa attribute requires vmpl0, any target *)
  (match Rmp.adjust rmp ~caller:T.Vmpl0 ~gpfn:1 ~target:T.Vmpl0 ~perms:Perm.none ~vmsa:true with
  | Ok () -> Alcotest.(check bool) "vmsa marked" true (Rmp.is_vmsa rmp 1)
  | Error e -> Alcotest.fail e);
  (match Rmp.adjust rmp ~caller:T.Vmpl1 ~gpfn:1 ~target:T.Vmpl2 ~perms:Perm.none ~vmsa:true with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "vmsa attribute from vmpl1 must fail")

let test_rmp_shared_semantics () =
  let rmp = Rmp.create ~npages:4 in
  Rmp.unvalidate rmp 0;
  (match Rmp.check_guest_access rmp ~gpfn:0 ~vmpl:T.Vmpl3 ~cpl:T.Cpl3 ~access:T.Write with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "shared pages writable by all");
  (match Rmp.check_guest_access rmp ~gpfn:0 ~vmpl:T.Vmpl0 ~cpl:T.Cpl0 ~access:T.Execute with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "never execute from shared pages");
  Alcotest.(check bool) "host can touch shared" true (Rmp.host_can_access rmp 0);
  Rmp.validate rmp 0;
  Alcotest.(check bool) "host blocked on private" false (Rmp.host_can_access rmp 0)

(* --- Phys_mem --- *)

let test_phys_mem_rw () =
  let mem = Sevsnp.Phys_mem.create ~npages:8 in
  let data = Bytes.of_string "hello across a page boundary" in
  Sevsnp.Phys_mem.write mem (T.page_size - 5) data;
  Alcotest.(check bytes) "cross-page roundtrip" data
    (Sevsnp.Phys_mem.read mem (T.page_size - 5) (Bytes.length data));
  Sevsnp.Phys_mem.write_u64 mem 128 0x1122334455667788 |> ignore;
  Alcotest.(check int) "u64 roundtrip" 0x1122334455667788 (Sevsnp.Phys_mem.read_u64 mem 128);
  Alcotest.(check int) "untouched reads zero" 0 (Sevsnp.Phys_mem.read_byte mem (3 * T.page_size));
  Alcotest.check_raises "oob write" (Invalid_argument "Phys_mem: access 0x8000+4 out of range")
    (fun () -> Sevsnp.Phys_mem.write mem (8 * T.page_size) (Bytes.create 4))

(* Regressions at the 256 KiB chunk seams of the arena: the u64
   accessors have a distinct straddle path, [read_into]/[write_sub]
   split their blits per chunk, and [check_range] must reject a
   near-[max_int] gpa whose [gpa + len] wraps negative. *)
let test_phys_mem_chunk_boundary () =
  let module PM = Sevsnp.Phys_mem in
  (* 3 chunks' worth of pages so accesses can straddle seams *)
  let mem = PM.create ~npages:192 in
  let seam = 64 * T.page_size in
  (* exact fit: last 8 bytes of chunk 0 (fast path's inclusive edge) *)
  PM.write_u64 mem (seam - 8) 0x0123456789abcdef;
  Alcotest.(check int) "u64 exact fit at chunk end" 0x0123456789abcdef
    (PM.read_u64 mem (seam - 8));
  (* straddle: 4 bytes in chunk 0, 4 in chunk 1 *)
  PM.write_u64 mem (seam - 4) 0x1a5a1234fedc9876;
  Alcotest.(check int) "u64 straddling chunk seam" 0x1a5a1234fedc9876
    (PM.read_u64 mem (seam - 4));
  (* byte view must agree with the straddled u64 on both sides *)
  Alcotest.(check int) "low byte before seam" 0x76 (PM.read_byte mem (seam - 4));
  Alcotest.(check int) "high byte after seam" 0x1a (PM.read_byte mem (seam + 3));
  (* straddled read where the upper chunk was never materialized *)
  let mem2 = PM.create ~npages:192 in
  PM.write_byte mem2 (seam - 1) 0xff;
  Alcotest.(check int) "straddle into unmaterialized chunk" 0xff00
    (PM.read_u64 mem2 (seam - 2) land 0xffff);
  Alcotest.(check int) "upper bytes read zero" 0 (PM.read_u64 mem2 (seam - 2) lsr 16);
  (* bulk copy across the seam: write_sub/read_into chunk splitting *)
  let pat = Bytes.init 1000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  PM.write_sub mem (seam - 500) pat 0 1000;
  let back = Bytes.create 1000 in
  PM.read_into mem (seam - 500) back 0 1000;
  Alcotest.(check bytes) "bulk roundtrip across seam" pat back;
  (* a second seam in the same transfer *)
  let big = Bytes.make ((2 * 64 * T.page_size) + 64) 'x' in
  PM.write mem 32 big;
  Alcotest.(check bytes) "two-seam transfer" big (PM.read mem 32 (Bytes.length big));
  (* overflow-proof bound check: gpa + len wraps negative pre-fix *)
  List.iter
    (fun gpa ->
      Alcotest.check_raises "huge gpa rejected"
        (Invalid_argument (Printf.sprintf "Phys_mem: access 0x%x+8 out of range" gpa))
        (fun () -> ignore (PM.read_u64 mem gpa)))
    [ max_int - 4; max_int - 7; max_int ];
  Alcotest.check_raises "negative len rejected"
    (Invalid_argument "Phys_mem: access 0x0+-1 out of range")
    (fun () -> ignore (PM.read mem 0 (-1)))

let phys_mem_roundtrip =
  QCheck.Test.make ~name:"phys_mem write/read roundtrip" ~count:100
    QCheck.(pair (bytes_of_size QCheck.Gen.(1 -- 200)) (QCheck.make QCheck.Gen.(0 -- 20000)))
    (fun (data, gpa) ->
      let mem = Sevsnp.Phys_mem.create ~npages:8 in
      let gpa = gpa mod (Sevsnp.Phys_mem.bytes_size mem - Bytes.length data - 1) in
      Sevsnp.Phys_mem.write mem gpa data;
      Bytes.equal data (Sevsnp.Phys_mem.read mem gpa (Bytes.length data)))

(* --- Pagetable --- *)

module Pt = Sevsnp.Pagetable

let mk_io mem next =
  {
    Pt.read_u64 = Sevsnp.Phys_mem.read_u64 mem;
    write_u64 = Sevsnp.Phys_mem.write_u64 mem;
    alloc_frame =
      (fun () ->
        let f = !next in
        incr next;
        f);
    (* raw tables never consulted through a VCPU TLB *)
    invalidate = (fun () -> ());
  }

let test_pagetable_map_walk () =
  let mem = Sevsnp.Phys_mem.create ~npages:64 in
  let next = ref 1 in
  let io = mk_io mem next in
  let root = 0 in
  let va = 0x1234 * T.page_size in
  Pt.map io ~root va { Pt.pte_gpfn = 42; pte_flags = Pt.user_rw };
  (match Pt.walk ~read_u64:io.Pt.read_u64 ~root va with
  | Some pte ->
      Alcotest.(check int) "frame" 42 pte.Pt.pte_gpfn;
      Alcotest.(check bool) "writable" true pte.Pt.pte_flags.Pt.writable;
      Alcotest.(check bool) "nx" true pte.Pt.pte_flags.Pt.nx
  | None -> Alcotest.fail "mapping not found");
  Alcotest.(check bool) "unmapped va misses" true (Pt.walk ~read_u64:io.Pt.read_u64 ~root (va + T.page_size) = None);
  Alcotest.(check bool) "protect" true (Pt.protect io ~root va Pt.user_ro);
  (match Pt.walk ~read_u64:io.Pt.read_u64 ~root va with
  | Some pte -> Alcotest.(check bool) "now read-only" false pte.Pt.pte_flags.Pt.writable
  | None -> Alcotest.fail "lost mapping after protect");
  Alcotest.(check bool) "unmap" true (Pt.unmap io ~root va);
  Alcotest.(check bool) "gone" true (Pt.walk ~read_u64:io.Pt.read_u64 ~root va = None);
  Alcotest.(check bool) "double unmap false" false (Pt.unmap io ~root va)

let test_pagetable_encode_decode () =
  let pte = { Pt.pte_gpfn = 0x12345; pte_flags = { Pt.present = true; writable = false; user = true; nx = true } } in
  (match Pt.decode (Pt.encode pte) with
  | Some p -> Alcotest.(check bool) "roundtrip" true (p = pte)
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "non-present decodes to None" true (Pt.decode 0 = None)

let pagetable_many =
  QCheck.Test.make ~name:"pagetable: many mappings all resolve" ~count:20
    (QCheck.make QCheck.Gen.(1 -- 200))
    (fun n ->
      let mem = Sevsnp.Phys_mem.create ~npages:512 in
      let next = ref 1 in
      let io = mk_io mem next in
      let root = 0 in
      for i = 0 to n - 1 do
        (* scatter across the VA space to hit different table paths *)
        let va = i * 7919 * T.page_size mod (Pt.max_va / 2) land lnot (T.page_size - 1) in
        Pt.map io ~root va { Pt.pte_gpfn = 1000 + i; pte_flags = Pt.user_rw }
      done;
      let ok = ref true in
      let count = ref 0 in
      Pt.iter_leaves ~read_u64:io.Pt.read_u64 ~root (fun _ _ -> incr count);
      for i = 0 to n - 1 do
        let va = i * 7919 * T.page_size mod (Pt.max_va / 2) land lnot (T.page_size - 1) in
        match Pt.walk ~read_u64:io.Pt.read_u64 ~root va with
        | Some pte -> if pte.Pt.pte_gpfn < 1000 then ok := false
        | None -> ok := false
      done;
      !ok && !count <= n)

let test_pagetable_table_frames () =
  let mem = Sevsnp.Phys_mem.create ~npages:64 in
  let next = ref 1 in
  let io = mk_io mem next in
  let root = 0 in
  Pt.map io ~root 0x1000 { Pt.pte_gpfn = 50; pte_flags = Pt.user_rw };
  let frames = Pt.table_frames ~read_u64:io.Pt.read_u64 ~root in
  Alcotest.(check int) "3-level chain = 3 table frames" 3 (List.length frames);
  Alcotest.(check bool) "root included" true (List.mem root frames);
  Alcotest.(check bool) "leaf data frame not included" false (List.mem 50 frames)

(* --- Platform access checks --- *)

let mk_platform () =
  let p = P.create ~npages:64 () in
  let hv = Hypervisor.Hv.create p in
  let vcpu = Hypervisor.Hv.launch_cvm hv ~entry_name:"t" ~boot_image:[ (0, Bytes.make 4096 'B') ] in
  (p, hv, vcpu)

let test_platform_checked_access () =
  let p, _hv, vcpu = mk_platform () in
  (* boot image frame is validated, vmpl0 has access *)
  P.write p vcpu 100 (Bytes.of_string "ok");
  Alcotest.(check bytes) "read back" (Bytes.of_string "ok") (P.read p vcpu 100 2);
  (* unvalidated frame faults and halts *)
  (try
     ignore (P.read p vcpu (10 * T.page_size) 4);
     Alcotest.fail "expected #NPF"
   with T.Npf info -> Alcotest.(check bool) "read fault" true (info.T.fault_access = T.Read));
  Alcotest.(check bool) "halted after NPF" true (P.is_halted p <> None);
  Alcotest.check_raises "post-halt access raises" (T.Cvm_halted (Option.get (P.is_halted p)))
    (fun () -> ignore (P.read p vcpu 100 2))

let test_platform_pvalidate_restriction () =
  let p, hv, vcpu = mk_platform () in
  (match P.pvalidate p vcpu ~gpfn:20 ~to_private:true () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* create and enter a vmpl3 instance, then pvalidate must fail *)
  Sevsnp.Rmp.validate p.P.rmp 50;
  Sevsnp.Rmp.set_vmsa p.P.rmp 50 true;
  let vmsa3 = Sevsnp.Vmsa.create ~vcpu_id:0 ~vmpl:T.Vmpl3 ~backing_gpfn:50 in
  (match P.install_vmsa p vmsa3 with Ok () -> () | Error e -> Alcotest.fail e);
  ignore hv;
  P.vmenter p vcpu vmsa3;
  (match P.pvalidate p vcpu ~gpfn:21 ~to_private:true () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "PVALIDATE must require VMPL-0")

let test_platform_ghcb () =
  let p, _hv, vcpu = mk_platform () in
  (* GHCB must be shared *)
  (match P.set_ghcb p vcpu (30 * T.page_size) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "GHCB on invalid page must fail");
  (match P.pvalidate p vcpu ~gpfn:30 ~to_private:false () with Ok () -> () | Error e -> Alcotest.fail e);
  (match P.set_ghcb p vcpu (30 * T.page_size) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "ghcb registered" true (P.ghcb_of_vcpu p vcpu <> None)

let test_platform_host_access () =
  let p, _hv, vcpu = mk_platform () in
  (match P.host_read p 0 16 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "host read of private memory must fail");
  (match P.pvalidate p vcpu ~gpfn:31 ~to_private:false () with Ok () -> () | Error e -> Alcotest.fail e);
  (match P.host_write p (31 * T.page_size) (Bytes.of_string "host") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match P.host_read p (31 * T.page_size) 4 with
  | Ok b -> Alcotest.(check bytes) "host rw on shared" (Bytes.of_string "host") b
  | Error e -> Alcotest.fail e

(* --- TLB coherence ---

   A translation warmed into a VCPU's software TLB must not outlive
   the page-table or RMP state that produced it: every invalidation
   rule (unmap, protect, RMPADJUST, PVALIDATE, domain switch) gets a
   warm-then-revoke-then-fault regression test. *)

let data_gpfn = 10
let tlb_root = 8
let tlb_va = 0x300 * T.page_size

(* Page tables live in platform memory and invalidate through the
   platform, exactly like the guest kernel's [pt_io]. *)
let mk_tlb_env () =
  let p, _hv, vcpu = mk_platform () in
  let next = ref 40 in
  let io =
    {
      Pt.read_u64 = Sevsnp.Phys_mem.read_u64 p.P.mem;
      write_u64 = Sevsnp.Phys_mem.write_u64 p.P.mem;
      alloc_frame =
        (fun () ->
          let f = !next in
          incr next;
          f);
      invalidate = (fun () -> P.tlb_shootdown p);
    }
  in
  Rmp.validate p.P.rmp data_gpfn;
  (p, vcpu, io)

(* Put a VMPL-1 instance on the same VCPU and enter it. *)
let enter_vmpl1 p vcpu =
  Rmp.validate p.P.rmp 50;
  Rmp.set_vmsa p.P.rmp 50 true;
  let vmsa1 = Sevsnp.Vmsa.create ~vcpu_id:0 ~vmpl:T.Vmpl1 ~backing_gpfn:50 in
  (match P.install_vmsa p vmsa1 with Ok () -> () | Error e -> Alcotest.fail e);
  P.vmenter p vcpu vmsa1

let test_tlb_stale_unmap () =
  let p, vcpu, io = mk_tlb_env () in
  Pt.map io ~root:tlb_root tlb_va { Pt.pte_gpfn = data_gpfn; pte_flags = Pt.user_rw };
  ignore (P.read_via_pt p vcpu ~root:tlb_root tlb_va 8);
  Alcotest.(check bool) "warm read hit nothing" true (P.is_halted p = None);
  Alcotest.(check bool) "unmap" true (Pt.unmap io ~root:tlb_root tlb_va);
  try
    ignore (P.read_via_pt p vcpu ~root:tlb_root tlb_va 8);
    Alcotest.fail "stale TLB: read succeeded after unmap"
  with P.Guest_page_fault { fault_va; _ } -> Alcotest.(check int) "faulting va" tlb_va fault_va

let test_tlb_stale_protect () =
  let p, vcpu, io = mk_tlb_env () in
  Pt.map io ~root:tlb_root tlb_va { Pt.pte_gpfn = data_gpfn; pte_flags = Pt.user_rw };
  P.write_via_pt p vcpu ~root:tlb_root tlb_va (Bytes.make 8 'w');
  Alcotest.(check bool) "protect to read-only" true (Pt.protect io ~root:tlb_root tlb_va Pt.user_ro);
  (try
     P.write_via_pt p vcpu ~root:tlb_root tlb_va (Bytes.make 8 'x');
     Alcotest.fail "stale TLB: write succeeded after protect-to-RO"
   with P.Guest_page_fault { fault_access; _ } -> Alcotest.(check bool) "write fault" true (fault_access = T.Write));
  (* reads still fine — and must see the first write, not the second *)
  Alcotest.(check bytes) "read survives" (Bytes.make 8 'w') (P.read_via_pt p vcpu ~root:tlb_root tlb_va 8)

let test_tlb_stale_rmpadjust () =
  let p, vcpu, io = mk_tlb_env () in
  Pt.map io ~root:tlb_root tlb_va { Pt.pte_gpfn = data_gpfn; pte_flags = Pt.user_rw };
  (* grant VMPL1, enter a VMPL1 instance, warm the translation there *)
  (match Rmp.adjust p.P.rmp ~caller:T.Vmpl0 ~gpfn:data_gpfn ~target:T.Vmpl1 ~perms:Perm.rw ~vmsa:false with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  enter_vmpl1 p vcpu;
  ignore (P.read_via_pt p vcpu ~root:tlb_root tlb_va 8);
  (* monitor revokes the grant: the cached RMP snapshot must die with it *)
  (match Rmp.adjust p.P.rmp ~caller:T.Vmpl0 ~gpfn:data_gpfn ~target:T.Vmpl1 ~perms:Perm.none ~vmsa:false with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  try
    ignore (P.read_via_pt p vcpu ~root:tlb_root tlb_va 8);
    Alcotest.fail "stale TLB: read succeeded after RMPADJUST revoked perms"
  with T.Npf info ->
    Alcotest.(check bool) "npf at vmpl1" true (T.equal_vmpl info.T.fault_vmpl T.Vmpl1)

let test_tlb_stale_pvalidate () =
  let p, vcpu, io = mk_tlb_env () in
  let xflags = { Pt.present = true; writable = true; user = false; nx = false } in
  Pt.map io ~root:tlb_root tlb_va { Pt.pte_gpfn = data_gpfn; pte_flags = xflags };
  (* warm with an instruction fetch: private page, VMPL0 may execute *)
  P.check_exec_via_pt p vcpu ~root:tlb_root tlb_va;
  (* guest gives the page back to the host *)
  (match P.pvalidate p vcpu ~gpfn:data_gpfn ~to_private:false () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  try
    P.check_exec_via_pt p vcpu ~root:tlb_root tlb_va;
    Alcotest.fail "stale TLB: executed from a now-shared page"
  with T.Npf info -> Alcotest.(check bool) "exec fault" true (info.T.fault_access = T.Execute)

let test_tlb_stale_domain_switch () =
  let p, vcpu, io = mk_tlb_env () in
  Pt.map io ~root:tlb_root tlb_va { Pt.pte_gpfn = data_gpfn; pte_flags = Pt.user_rw };
  (* freshly validated pages are VMPL0-only; warm the TLB at VMPL0 *)
  ignore (P.read_via_pt p vcpu ~root:tlb_root tlb_va 8);
  (* the instance switch must flush — otherwise VMPL1 would ride the
     snapshot taken under VMPL0's permission nibble *)
  enter_vmpl1 p vcpu;
  try
    ignore (P.read_via_pt p vcpu ~root:tlb_root tlb_va 8);
    Alcotest.fail "stale TLB: VMPL1 read through a VMPL0-warmed entry"
  with T.Npf info ->
    Alcotest.(check bool) "npf at vmpl1" true (T.equal_vmpl info.T.fault_vmpl T.Vmpl1)

(* --- TLB slab against the per-slot record model ---

   The reference is the table of six-field records the slab replaced,
   with its hit test: same slot, key and stamp, then the cached leaf
   flags and RMP snapshot evaluated under the caller's CPL and VMPL.
   Random fills, lookups, flushes and generation bumps over small key
   ranges, so slots collide and entries go stale; [Tlb.lookup] must
   agree with the model at every step. *)

type tlb_op =
  | Fill of int * int * int * int * int  (* vapage, root, gpfn, flags, rmp *)
  | Lookup of int * int * T.access * T.cpl * T.vmpl
  | Flush
  | Bump

type model_entry = {
  mutable m_vapage : int;
  mutable m_root : int;
  mutable m_stamp : int;
  mutable m_gpfn : int;
  mutable m_flags : int;
  mutable m_rmp : int;
}

let model_slot ~vapage ~root = (vapage lxor (root * 0x9E3779B1)) land 511

let model_lookup slots stamp ~vapage ~root access cpl vmpl =
  let e = slots.(model_slot ~vapage ~root) in
  let pt_allows =
    (not (cpl = T.Cpl3 && e.m_flags land 2 = 0))
    && match access with T.Write -> e.m_flags land 1 <> 0 | T.Read -> true | T.Execute -> e.m_flags land 4 = 0
  in
  let rmp_allows =
    if e.m_rmp land 16 <> 0 then access <> T.Execute
    else if e.m_rmp land 32 <> 0 && access = T.Write && vmpl <> T.Vmpl0 then false
    else Perm.bits_allow (e.m_rmp land 0xF) access cpl
  in
  if e.m_vapage = vapage && e.m_root = root && e.m_stamp = stamp && pt_allows && rmp_allows then
    e.m_gpfn
  else -1

let tlb_op_gen =
  QCheck.Gen.(
    let key = pair (int_bound 40) (int_bound 3) in
    frequency
      [
        ( 4,
          map3
            (fun (vapage, root) gpfn (flags, rmp) -> Fill (vapage, root, gpfn, flags, rmp))
            key (int_bound 1_000_000) (pair (int_bound 7) (int_bound 63)) );
        ( 6,
          map3
            (fun (vapage, root) access (cpl, vmpl) -> Lookup (vapage, root, access, cpl, vmpl))
            key
            (oneofl [ T.Read; T.Write; T.Execute ])
            (pair (oneofl [ T.Cpl0; T.Cpl3 ]) (oneofl [ T.Vmpl0; T.Vmpl1; T.Vmpl2; T.Vmpl3 ])) );
        (1, return Flush);
        (1, return Bump);
      ])

let tlb_matches_model =
  QCheck.Test.make ~name:"tlb lookup agrees with the record model" ~count:2000
    (QCheck.make QCheck.Gen.(list_size (1 -- 120) tlb_op_gen))
    (fun ops ->
      let gen = ref 0 and epoch = ref 0 in
      let tlb = Sevsnp.Tlb.create ~gen in
      let slots =
        Array.init 512 (fun _ ->
            { m_vapage = -1; m_root = 0; m_stamp = 0; m_gpfn = 0; m_flags = 0; m_rmp = 0 })
      in
      List.for_all
        (function
          | Fill (vapage, root, gpfn, flags, rmp) ->
              Sevsnp.Tlb.fill tlb ~vapage ~root ~gpfn ~flags ~rmp;
              let e = slots.(model_slot ~vapage ~root) in
              e.m_vapage <- vapage;
              e.m_root <- root;
              e.m_stamp <- !gen + !epoch;
              e.m_gpfn <- gpfn;
              e.m_flags <- flags;
              e.m_rmp <- rmp;
              true
          | Lookup (vapage, root, access, cpl, vmpl) ->
              Sevsnp.Tlb.lookup tlb ~vapage ~root access cpl vmpl
              = model_lookup slots (!gen + !epoch) ~vapage ~root access cpl vmpl
          | Flush ->
              Sevsnp.Tlb.flush tlb;
              incr epoch;
              true
          | Bump ->
              incr gen;
              true)
        ops)

let test_attestation_report () =
  let p, _hv, vcpu = mk_platform () in
  let report = P.attestation_report p vcpu ~report_data:(Bytes.of_string "nonce") in
  Alcotest.(check bool) "vmpl0 reported" true (T.equal_vmpl report.Sevsnp.Attestation.requester_vmpl T.Vmpl0);
  let pk = Sevsnp.Attestation.platform_public_key p.P.attestation in
  Alcotest.(check bool) "signature verifies" true (Sevsnp.Attestation.verify ~public_key:pk report);
  let forged = { report with Sevsnp.Attestation.report_data = Bytes.of_string "evil" } in
  Alcotest.(check bool) "forged report fails" false (Sevsnp.Attestation.verify ~public_key:pk forged)

let test_cycles_anchors () =
  let module C = Sevsnp.Cycles in
  Alcotest.(check int) "domain switch = 7135 (paper §9.1)" 7135 C.domain_switch;
  Alcotest.(check int) "vmcall roundtrip = 1100" 1100 C.vmcall_roundtrip;
  Alcotest.(check int) "boot sweep 6400/page" 6400 ((2 * C.rmpadjust_insn) + C.rmpadjust_page_touch);
  let c = C.create_counter () in
  C.charge c C.Switch 10;
  C.charge c C.Copy 5;
  Alcotest.(check int) "total" 15 (C.total c);
  Alcotest.(check int) "bucket" 10 (C.read_bucket c C.Switch);
  C.reset c;
  Alcotest.(check int) "reset" 0 (C.total c)

let suite =
  [
    q perm_union_upper;
    q perm_inter_lower;
    q perm_subset_antisym;
    ("perm allows semantics", `Quick, test_perm_allows);
    ("rmp lifecycle", `Quick, test_rmp_lifecycle);
    ("rmp adjust rules", `Quick, test_rmp_adjust_rules);
    ("rmp shared semantics", `Quick, test_rmp_shared_semantics);
    ("phys_mem rw", `Quick, test_phys_mem_rw);
    ("phys_mem chunk boundaries", `Quick, test_phys_mem_chunk_boundary);
    q phys_mem_roundtrip;
    ("pagetable map/walk/protect/unmap", `Quick, test_pagetable_map_walk);
    ("pagetable pte encode/decode", `Quick, test_pagetable_encode_decode);
    q pagetable_many;
    ("pagetable table frames", `Quick, test_pagetable_table_frames);
    ("platform checked access + halt", `Quick, test_platform_checked_access);
    ("platform pvalidate vmpl0-only", `Quick, test_platform_pvalidate_restriction);
    ("platform ghcb registration", `Quick, test_platform_ghcb);
    ("platform host access policy", `Quick, test_platform_host_access);
    ("tlb stale after unmap", `Quick, test_tlb_stale_unmap);
    ("tlb stale after protect", `Quick, test_tlb_stale_protect);
    ("tlb stale after rmpadjust", `Quick, test_tlb_stale_rmpadjust);
    ("tlb stale after pvalidate", `Quick, test_tlb_stale_pvalidate);
    ("tlb flushed on domain switch", `Quick, test_tlb_stale_domain_switch);
    q tlb_matches_model;
    ("attestation report", `Quick, test_attestation_report);
    ("cycle model anchors", `Quick, test_cycles_anchors);
  ]
