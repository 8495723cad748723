module T = Sevsnp.Types
module C = Sevsnp.Cycles
module P = Sevsnp.Platform

type stats = { mutable appended : int; mutable dropped_full : int; mutable fetches : int }

type t = {
  mon : Monitor.t;
  region : Layout.region;
  c_appended : Obs.Metrics.counter;
  c_dropped : Obs.Metrics.counter;
  c_fetches : Obs.Metrics.counter;
  c_buffered : Obs.Metrics.counter;
  g_degraded : Obs.Metrics.gauge;
  pending : string Queue.t array;
      (** graceful degradation: lines that arrived while the region was
          full wait here (bounded) and are flushed by {!clear}.
          Sharded per-VCPU (Veil-Ring): a parked append touches only
          the appending VCPU's queue, so degraded-mode bookkeeping
          stays out of the shared critical section. *)
  mutable head : int;  (** next free byte offset within the region *)
  mutable nlines : int;
  mutable chain : bytes;
  chain_ctx : Veil_crypto.Sha256.ctx;  (** reset for every chain step *)
}

(* Bounded buffered-retry queue (per VCPU shard): past this the service
   sheds records (still explicitly — the caller sees the error
   response). *)
let pending_cap = 256

let nshards = 8

let shard_of t vcpu = t.pending.(vcpu.Sevsnp.Vcpu.id land (nshards - 1))

let stats t =
  {
    appended = Obs.Metrics.value t.c_appended;
    dropped_full = Obs.Metrics.value t.c_dropped;
    fetches = Obs.Metrics.value t.c_fetches;
  }
let capacity_bytes t = Layout.region_size t.region * T.page_size
let used_bytes t = t.head
let count t = t.nlines

let chain_digest t = t.chain

let extend_chain ctx prev line =
  Veil_crypto.Sha256.reset ctx;
  Veil_crypto.Sha256.update ctx prev;
  Veil_crypto.Sha256.update_string ctx line;
  Veil_crypto.Sha256.finalize ctx

(* No context for an empty log: explore verifies every branch's. *)
let verify_chain ~lines ~digest =
  let zero = Bytes.make 32 '\000' in
  let head =
    if lines = [] then zero else List.fold_left (extend_chain (Veil_crypto.Sha256.init ())) zero lines
  in
  Bytes.equal head digest

let base_gpa t = T.gpa_of_gpfn t.region.Layout.lo

(* Raw framed append of an already-in-chain-order line; the caller has
   checked capacity and holds Dom_SEC write access to the region. *)
let write_line t vcpu line =
  let platform = Monitor.platform t.mon in
  let len = String.length line in
  let framed = Bytes.create (4 + len) in
  Bytes.set_int32_le framed 0 (Int32.of_int len);
  Bytes.blit_string line 0 framed 4 len;
  Sevsnp.Vcpu.charge vcpu C.Copy (C.copy_cost (len + 4));
  Sevsnp.Vcpu.charge vcpu C.Monitor 350 (* bookkeeping *);
  P.write platform vcpu (base_gpa t + t.head) framed;
  Sevsnp.Vcpu.charge vcpu C.Crypto (C.hash_cost len);
  t.chain <- extend_chain t.chain_ctx t.chain line;
  t.head <- t.head + len + 4;
  t.nlines <- t.nlines + 1;
  Obs.Metrics.incr t.c_appended

let append t vcpu (record : Guest_kernel.Audit.record) =
  let line = Guest_kernel.Audit.to_line record in
  let len = String.length line in
  if t.head + len + 4 > capacity_bytes t then begin
    Obs.Metrics.incr t.c_dropped;
    (* Degraded, not dead: park the record in the bounded retry buffer
       (flushed on the next {!clear}), surface the state via the
       metrics registry, and answer with an explicit error. *)
    (let q = shard_of t vcpu in
     if Queue.length q < pending_cap then begin
       Queue.push line q;
       Obs.Metrics.incr t.c_buffered;
       Obs.Metrics.set t.g_degraded 1
     end);
    Idcb.Resp_error "VeilS-LOG: reserved storage full; retrieve logs"
  end
  else begin
    let platform = Monitor.platform t.mon in
    let prof = platform.P.profiler in
    let prof_on = Obs.Profiler.enabled prof in
    if prof_on then
      Obs.Profiler.push prof ~vcpu:vcpu.Sevsnp.Vcpu.id
        ~vmpl:(T.vmpl_index (Sevsnp.Vcpu.vmpl vcpu)) ~ts:(Sevsnp.Vcpu.rdtsc vcpu) "slog_append";
    (* Length-prefixed append into the protected region (Dom_SEC rw). *)
    write_line t vcpu line;
    (let tr = platform.P.tracer in
     if Obs.Trace.enabled tr then
       Obs.Trace.emit tr ~vcpu:vcpu.Sevsnp.Vcpu.id
         ~vmpl:(T.vmpl_index (Sevsnp.Vcpu.vmpl vcpu)) ~ts:(Sevsnp.Vcpu.rdtsc vcpu)
         ~bucket:"monitor" ~arg:(len + 4)
         ~id:(Obs.Profiler.id prof ~vcpu:vcpu.Sevsnp.Vcpu.id) Obs.Trace.Audit_emit);
    if prof_on then
      Obs.Profiler.pop prof ~vcpu:vcpu.Sevsnp.Vcpu.id ~ts:(Sevsnp.Vcpu.rdtsc vcpu);
    Idcb.Resp_ok
  end

(* OS-assisted fetch into an OS buffer: the destination pointer came
   from the untrusted kernel and has already passed VeilMon's
   sanitizer; we additionally bound the copy. *)
let fetch_to_os t vcpu ~dest_gpa ~max =
  let platform = Monitor.platform t.mon in
  let n = min max t.head in
  let data = P.read platform vcpu (base_gpa t) n in
  Sevsnp.Vcpu.charge vcpu C.Copy (C.copy_cost n);
  P.write platform vcpu dest_gpa data;
  Obs.Metrics.incr t.c_fetches;
  Idcb.Resp_count n

let read_all t =
  let platform = Monitor.platform t.mon in
  let vcpu = Monitor.boot_vcpu t.mon in
  (* Trusted-side read: hop into Dom_SEC when called from below. *)
  let here = Privdom.of_vmpl (Sevsnp.Vcpu.vmpl vcpu) in
  let need_switch = not (Privdom.more_privileged here Privdom.Enc || Privdom.equal here Privdom.Sec) in
  if need_switch then Monitor.domain_switch t.mon vcpu ~target:Privdom.Sec;
  let rec go off acc =
    if off >= t.head then List.rev acc
    else begin
      let len = Int32.to_int (Bytes.get_int32_le (P.read platform vcpu (base_gpa t + off) 4) 0) in
      let line = Bytes.to_string (P.read platform vcpu (base_gpa t + off + 4) len) in
      go (off + 4 + len) (line :: acc)
    end
  in
  let lines = go 0 [] in
  if need_switch then Monitor.domain_switch t.mon vcpu ~target:here;
  lines

let degraded t = Obs.Metrics.gauge_value t.g_degraded <> 0
let pending_count t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.pending

(* Buffered retry: drain the degraded-mode shards into the (just
   retrieved and cleared) region, oldest first within each shard,
   shard 0 (the boot VCPU's) first. *)
let flush_pending t =
  if pending_count t > 0 then begin
    let vcpu = Monitor.boot_vcpu t.mon in
    let here = Privdom.of_vmpl (Sevsnp.Vcpu.vmpl vcpu) in
    let need_switch =
      not (Privdom.more_privileged here Privdom.Enc || Privdom.equal here Privdom.Sec)
    in
    if need_switch then Monitor.domain_switch t.mon vcpu ~target:Privdom.Sec;
    Array.iter
      (fun q ->
        while
          (not (Queue.is_empty q)) && t.head + String.length (Queue.peek q) + 4 <= capacity_bytes t
        do
          write_line t vcpu (Queue.pop q)
        done)
      t.pending;
    if need_switch then Monitor.domain_switch t.mon vcpu ~target:here
  end;
  if pending_count t = 0 then Obs.Metrics.set t.g_degraded 0

let clear t =
  t.head <- 0;
  t.nlines <- 0;
  t.chain <- Bytes.make 32 '\000';
  flush_pending t

let handler t _mon vcpu (req : Idcb.request) =
  match req with
  | Idcb.R_log_append record -> Some (append t vcpu record)
  | Idcb.R_log_fetch { dest_gpa; max } -> Some (fetch_to_os t vcpu ~dest_gpa ~max)
  | _ -> None

let install mon =
  let m = (Monitor.platform mon).P.metrics in
  let t =
    {
      mon;
      region = (Monitor.layout mon).Layout.log_region;
      c_appended = Obs.Metrics.counter m "slog.appended";
      c_dropped = Obs.Metrics.counter m "slog.dropped_full";
      c_fetches = Obs.Metrics.counter m "slog.fetches";
      c_buffered = Obs.Metrics.counter m "slog.buffered_retries";
      g_degraded = Obs.Metrics.gauge m "slog.degraded";
      pending = Array.init nshards (fun _ -> Queue.create ());
      head = 0;
      nlines = 0;
      chain = Bytes.make 32 '\000';
      chain_ctx = Veil_crypto.Sha256.init ();
    }
  in
  Monitor.register_service mon ~name:"veils-log" ~target:Privdom.Sec (fun m vcpu req ->
      handler t m vcpu req);
  t
