(* Host unit costs: each layer's public hot call, timed one call per
   sample on a guest booted like the workload's.  Every sample is a
   span, so the span file holds the raw distribution. *)

module B = Veil_core.Boot
module Mon = Veil_core.Monitor
module K = Guest_kernel.Kernel
module S = Guest_kernel.Sysno
module P = Sevsnp.Platform
module Rt = Enclave_sdk.Runtime

(* Sample counts fix the reported tail: nearest-rank p90 of 110 and p99
   of 1,100 each leave 11 samples above them. *)
let slow_n = function Wl.Full -> 110 | Wl.Tiny -> 3
let fast_n = function Wl.Full -> 1100 | Wl.Tiny -> 20

type shape = { npages : int; nvcpus : int }

(* Fleet boots 4,096-page guests and Explore 2,048-page ones;
   Driver.run uses the default size on one VCPU. *)
let shape = function
  | Wl.Fleet_http -> { npages = 4096; nvcpus = 4 }
  | Wl.Enclave_unqlite -> { npages = B.default_npages; nvcpus = 1 }
  | Wl.Explore_rmp -> { npages = 2048; nvcpus = Wl.rmp.Explore.sc_nvcpus }

let boot shape seed =
  let sys = B.boot_veil ~npages:shape.npages ~seed () in
  ignore (Veil_core.Smp.bring_up sys ~nvcpus:shape.nvcpus ());
  sys

(* Median and tail of [ns] samples scaled by [div] into the unit. *)
let summarize ~name ~unit ~tail ~div ns : Wl.metric list =
  let v = Array.map (fun x -> float_of_int x /. div) ns in
  let n = Array.length v in
  let note = Printf.sprintf "median of %d samples" n in
  [
    (name, Span.median v, unit, note);
    ( Printf.sprintf "%s.p%g" name tail,
      Span.percentile tail v,
      unit,
      Printf.sprintf "nearest-rank p%g of %d samples" tail n );
  ]

let expect_int what = function
  | Guest_kernel.Ktypes.RInt n -> n
  | _ -> failwith ("veilbench " ^ what ^ ": unexpected syscall return")

(* Boot (+ AP bring-up) and one explore branch.  [explore.boot_share]
   compares a boot of explore's own guest shape with a whole branch;
   the two are sampled alternately so that both see the same host
   noise. *)
let boot_and_branch size w seed : Wl.metric list =
  let n = slow_n size in
  let boot_at sh () = ignore (boot sh seed) in
  let config = Wl.explore_config size seed in
  let branch () =
    let outcome, _, diverged = Explore.probe ~config Wl.rmp ~prefix:"" in
    if diverged || not (Chaos_outcome.ok outcome) then
      failwith ("veilbench: root branch " ^ Chaos_outcome.to_string outcome)
  in
  boot_at (shape Wl.Explore_rmp) ();
  branch ();
  let pairs =
    Array.init n (fun i ->
        let _, b = Span.timed ~op:i "Boot.boot_veil+Smp.bring_up explore-shape" (boot_at (shape Wl.Explore_rmp)) in
        let _, r = Span.timed ~op:i "Explore.probe" branch in
        (b, r))
  in
  let explore_boots = Array.map fst pairs and branches = Array.map snd pairs in
  let boots =
    if w = Wl.Explore_rmp then explore_boots
    else Span.sample ~warmup:1 ~n "Boot.boot_veil+Smp.bring_up" (boot_at (shape w))
  in
  let med a = Span.median (Array.map float_of_int a) in
  summarize ~name:"core.boot_ms" ~unit:"ms" ~tail:90.0 ~div:1e6 boots
  @ summarize ~name:"explore.branch_ms" ~unit:"ms" ~tail:90.0 ~div:1e6 branches
  @ [
      ( "explore.boot_share",
        med explore_boots /. med branches,
        "ratio",
        "median explore-shape boot / median branch, sampled alternately" );
    ]

let hot_calls size w seed : Wl.metric list =
  let n = fast_n size in
  let fast ~name ~unit ?(div = 1e3) ?between label f =
    summarize ~name ~unit ~tail:99.0 ~div (Span.sample ?between ~n label f)
  in
  let sys = boot (shape w) seed in
  let mon = sys.B.mon and vcpu = sys.B.vcpu and kernel = sys.B.kernel in
  let proc = K.spawn kernel in
  let getpid () = ignore (expect_int "getpid" (K.invoke kernel proc S.Getpid [])) in
  let syscall = fast ~name:"kernel.syscall_us" ~unit:"us" "Kernel.invoke getpid" getpid in
  (* Audited getpid: kaudit record + VeilS-LOG append through VeilMon.
     Clearing the log every 256 samples keeps it from filling. *)
  let clear_log i = if i mod 256 = 0 then Veil_core.Slog.clear sys.B.slog in
  let audit = K.audit kernel in
  Guest_kernel.Audit.set_rules audit [ S.Getpid ];
  K.set_audit_protection kernel true;
  let audited =
    fast ~name:"core.audited_syscall_us" ~unit:"us" ~between:clear_log
      "Kernel.invoke getpid audited" getpid
  in
  let line =
    match List.rev (Veil_core.Slog.read_all sys.B.slog) with
    | l :: _ -> l
    | [] -> failwith "veilbench: audited getpid logged nothing"
  in
  Guest_kernel.Audit.clear_rules audit;
  let record = { Guest_kernel.Audit.seq = 0; cycles = 0; sys = S.Getpid; pid = 1; detail = "" } in
  let os_call =
    fast ~name:"core.os_call_us" ~unit:"us" ~between:clear_log "Monitor.os_call log_append"
      (fun () ->
        match Mon.os_call mon vcpu (Veil_core.Idcb.R_log_append record) with
        | Veil_core.Idcb.Resp_error e -> failwith ("veilbench os_call: " ^ e)
        | _ -> ())
  in
  let switch =
    fast ~name:"core.domain_switch_us" ~unit:"us" "Monitor.domain_switch round trip" (fun () ->
        Mon.domain_switch mon vcpu ~target:Veil_core.Privdom.Mon;
        Mon.domain_switch mon vcpu ~target:Veil_core.Privdom.Unt)
  in
  let frame = sys.B.layout.Veil_core.Layout.kernel_free.Veil_core.Layout.lo + 16 in
  Mon.domain_switch mon vcpu ~target:Veil_core.Privdom.Mon;
  let rmpadjust =
    fast ~name:"sevsnp.rmpadjust_us" ~unit:"us" "Platform.rmpadjust" (fun () ->
        match
          P.rmpadjust sys.B.platform vcpu ~gpfn:frame ~target:Sevsnp.Types.Vmpl3
            ~perms:Sevsnp.Perm.all ~vmsa:false ()
        with
        | Ok () -> ()
        | Error e -> failwith ("veilbench rmpadjust: " ^ e))
  in
  Mon.domain_switch mon vcpu ~target:Veil_core.Privdom.Unt;
  let va = 0x4000_0000 in
  K.map_user_pages kernel proc ~va ~npages:1 ~prot:Guest_kernel.Ktypes.prot_rw;
  let page = Bytes.create 4096 in
  let via_pt =
    fast ~name:"sevsnp.via_pt_read_ns_per_kb" ~unit:"ns/KiB" ~div:4.0
      "Platform.read_into_via_pt 4KiB" (fun () ->
        P.read_into_via_pt sys.B.platform vcpu ~root:proc.Guest_kernel.Process.pt_root va page 0
          4096)
  in
  let sha =
    fast ~name:"crypto.sha256_ns_per_byte" ~unit:"ns/B"
      ~div:(float_of_int (String.length line))
      "Sha256.digest_string log line" (fun () -> ignore (Veil_crypto.Sha256.digest_string line))
  in
  let rt =
    match Rt.create sys ~binary:(Bytes.make 4096 'E') (K.spawn kernel) with
    | Ok rt -> rt
    | Error e -> failwith ("veilbench enclave: " ^ e)
  in
  let ocall =
    Rt.run rt (fun rt ->
        let fd =
          expect_int "open"
            (Rt.ocall rt S.Open
               Guest_kernel.Ktypes.
                 [
                   Str "/tmp/veilbench.out";
                   Int Workloads.Env.(o_creat lor o_wronly lor o_trunc);
                   Int 0o644;
                 ])
        in
        let data = Bytes.make 64 'v' in
        fast ~name:"sdk.ocall_us" ~unit:"us" "Runtime.ocall write 64B" (fun () ->
            if expect_int "write" (Rt.ocall rt S.Write Guest_kernel.Ktypes.[ Int fd; Buf data ]) <> 64
            then failwith "veilbench: short ocall write"))
  in
  syscall @ audited @ os_call @ switch @ rmpadjust @ via_pt @ sha @ ocall

let all size w seed = boot_and_branch size w seed @ hot_calls size w seed
