(* Veil-Fleet driver (see the .mli).  One simulated host, N isolated
   platform instances, open-loop traffic.

   Dispatch determinism: both the guest pick (round-robin) and the
   lane pick (served-count mod vcpus) are functions of request *index*
   only, never of co-tenant timing.  A least-free-lane policy would
   couple a guest's execution trace to the global arrival clock (its
   lane choice would depend on how arrivals were thinned across
   co-tenants), and then neither the wait-ledger isolation test nor
   the cross-tenant oracle could demand bit-identical victim numbers.
   The queue model is per-lane FCFS under round-robin dispatch.

   Execution: each isolation group — one guest, or every guest when a
   least-loaded pick or an ambient fault plan couples them — lives its
   whole lifetime as one task on an OCaml 5 domain ([run], DESIGN.md
   §15). *)

module Arrival = Arrival
module T = Sevsnp.Types
module P = Sevsnp.Platform
module V = Sevsnp.Vcpu
module C = Sevsnp.Cycles
module Kern = Guest_kernel.Kernel
module S = Guest_kernel.Sysno
module B = Veil_core.Boot
module L = Veil_core.Layout
module Smp = Veil_core.Smp
module M = Obs.Metrics
module FP = Chaos.Fault_plan
module Env = Workloads.Env
module Http = Workloads.Http
module Mcache = Workloads.Mcache
module Sqldb = Workloads.Sqldb

type workload = Http | Memcached | Sqldb

let workload_name = function Http -> "http" | Memcached -> "memcached" | Sqldb -> "sqldb"

let workload_of_name = function
  | "http" -> Some Http
  | "memcached" -> Some Memcached
  | "sqldb" -> Some Sqldb
  | _ -> None

type mode = Open_loop | Closed_loop

type lb = Round_robin | Least_loaded

type config = {
  guests : int;
  vcpus : int;
  seed : int;
  requests : int;
  workload : workload;
  process : Arrival.process;
  mode : mode;
  lb : lb;
  rings : bool;
  chaos : bool;
  pulse : int option;
  hostile : int option;
  first_guest : int;
}

let default =
  {
    guests = 4;
    vcpus = 4;
    seed = 97;
    requests = 400;
    workload = Http;
    process = Arrival.Poisson { rate = 2000.0 };
    mode = Open_loop;
    lb = Round_robin;
    rings = false;
    chaos = false;
    pulse = None;
    hostile = None;
    first_guest = 0;
  }

let guest_seed cfg id = (((cfg.seed + 1) * 1_000_003) + ((id + 1) * 48271)) land max_int

let guest_npages = 4096

(* --- reports --- *)

type guest_report = {
  gr_id : int;
  gr_seed : int;
  gr_requests : int;
  gr_p50 : int;
  gr_p99 : int;
  gr_p999 : int;
  gr_mean_svc : float;
  gr_wait : Veil_core.Monitor.wait_stats;
  gr_journal : string;
  gr_slog_ok : bool;
  gr_log_lines : int;
  gr_data_digest : string;
  gr_hist_digest : string;
  gr_blocked : int;
  gr_hostile : bool;
  gr_chaos_hits : int;
}

type report = {
  r_guests : guest_report array;
  r_mode : mode;
  r_workload : workload;
  r_vcpus : int;
  r_requests : int;
  r_wall_cycles : int;
  r_throughput : float;
  r_offered : float;
  r_p50 : int;
  r_p99 : int;
  r_p999 : int;
  r_mean : float;
  r_merged_digest : string;
  r_lb_journal : string;
}

let sha_hex s = Veil_crypto.Sha256.hex_of_digest (Veil_crypto.Sha256.digest_string s)

let digit36 i = "0123456789abcdefghijklmnopqrstuvwxyz".[i mod 36]

(* --- per-guest state --- *)

type wl_state =
  | St_http of { server : Http.server; port : int }
  | St_mc of { store : Mcache.t; conn : int; server_conn : int }
  | St_sql of { db : Sqldb.t; mutable next_row : int }

type guest = {
  g_id : int;
  g_seed : int;
  g_sys : B.veil_system;
  g_smp : Smp.t;
  g_env : Env.t; (* server-side process *)
  g_cli : Env.t; (* load-generator process, same guest *)
  g_rng : Arrival.t; (* request-content stream: arrival family, stream id+1 *)
  g_state : wl_state;
  g_plan : FP.t option;
  g_lat : M.histogram;
  g_svc : M.histogram;
  g_reqs : M.counter;
  g_lanes : int array; (* absolute fleet-clock busy-until per lane *)
  g_journal : Buffer.t;
  mutable g_served : int;
  mutable g_blocked : int;
  g_hostile : bool;
}

let http_port = 9400
let mc_port = 11311
let http_sizes = [| 1024; 2048; 4096; 8192; 16384 |]

let http_file_of_size sz =
  let rec go i = if i >= Array.length http_sizes - 1 || http_sizes.(i) >= sz then i else go (i + 1) in
  go 0

(* Recoverable chaos sites only: duplicated relays ride the replay
   cache, delays and spurious exits are pure cost.  A per-guest plan
   must never halt the guest — halting faults belong to the chaos
   trials, not a fleet soak. *)
let derived_plan seed =
  let plan = FP.create ~seed () in
  FP.set_site plan FP.Relay_dup ~prob:0.02 ();
  FP.set_site plan FP.Vmgexit_delay ~prob:0.03 ();
  FP.set_site plan FP.Spurious_exit ~prob:0.02 ();
  plan

let mk_env kernel proc ~rings ~seed =
  {
    Env.sys = (fun s a -> Kern.invoke kernel proc s a);
    compute = (fun n -> V.charge (Kern.vcpu kernel) C.Compute n);
    env_rng = Veil_crypto.Rng.create seed;
    env_rings = rings;
  }

(* memcached: one serve pass over every queued command (the servers.ml
   protocol and cycle calibration, shared store semantics) *)
let mc_serve env store server_conn =
  let rec loop () =
    match Env.recv env server_conn 4096 with
    | None -> ()
    | Some req when Bytes.length req = 0 -> ()
    | Some req ->
        List.iter
          (fun line ->
            let line = String.trim line in
            if line <> "" then begin
              env.Env.compute 610_000 (* command parse, hash, LRU, slab bookkeeping *);
              match String.split_on_char ' ' line with
              | [ "get"; key ] -> (
                  match Mcache.get store key with
                  | Some v ->
                      let reply =
                        Bytes.concat Bytes.empty
                          [
                            Bytes.of_string (Printf.sprintf "VALUE %s 0 %d\r\n" key (Bytes.length v));
                            v;
                            Bytes.of_string "\r\nEND\r\n";
                          ]
                      in
                      ignore (Env.send env server_conn reply)
                  | None -> ignore (Env.send env server_conn (Bytes.of_string "END\r\n")))
              | [ "set"; key; len ] ->
                  let n = int_of_string len in
                  env.Env.compute (400 + n);
                  Mcache.set store ~key ~value:(Veil_crypto.Rng.bytes env.Env.env_rng n) ();
                  ignore (Env.send env server_conn (Bytes.of_string "STORED\r\n"))
              | _ -> ignore (Env.send env server_conn (Bytes.of_string "ERROR\r\n"))
            end)
          (String.split_on_char '\n' (Bytes.to_string req));
        loop ()
  in
  loop ()

let sql_pad rng n = String.init n (fun _ -> Char.chr (Char.code 'a' + Arrival.uniform rng 26))

let setup_workload cfg env cli rng =
  match cfg.workload with
  | Http ->
      if not (Env.file_exists cli "/srv/www") then Env.mkdir cli "/srv/www";
      Array.iteri
        (fun i sz ->
          let fd =
            Env.open_ cli
              (Printf.sprintf "/srv/www/file%d.html" i)
              ~flags:(Env.o_creat lor Env.o_wronly lor Env.o_trunc)
              ~mode:0o644
          in
          ignore (Env.write cli fd (Veil_crypto.Rng.bytes cli.Env.env_rng sz));
          Env.close cli fd)
        http_sizes;
      let server = Http.server_start env ~port:http_port ~docroot:"/srv/www" in
      St_http { server; port = http_port }
  | Memcached ->
      let listen_fd = Env.socket env in
      Env.bind env listen_fd ~port:mc_port;
      Env.listen env listen_fd ~backlog:32;
      let store = Mcache.create ~memory_limit:(1 lsl 20) () in
      let conn = Http.client_connect cli ~port:mc_port in
      let server_conn =
        match Env.accept env listen_fd with
        | Some c -> c
        | None -> failwith "fleet memcached: no pending connection"
      in
      (* warm the store so gets hit *)
      for i = 0 to 63 do
        ignore (Env.send cli conn (Bytes.of_string (Printf.sprintf "set key%d 512\n" i)));
        mc_serve env store server_conn;
        ignore (Env.recv cli conn 256)
      done;
      St_mc { store; conn; server_conn }
  | Sqldb ->
      let db = Sqldb.open_db env ~dir:"/fleetdb" in
      let exec stmt =
        match Sqldb.exec db stmt with
        | Ok _ -> ()
        | Error e -> failwith ("fleet sqldb: " ^ e ^ " in " ^ stmt)
      in
      exec "CREATE TABLE kv (k, v)";
      for i = 0 to 31 do
        exec (Printf.sprintf "INSERT INTO kv VALUES ('k%d', 'seed-%s')" i (sql_pad rng 48))
      done;
      St_sql { db; next_row = 0 }

let boot_guest cfg ~ambient id =
  let seed = guest_seed cfg id in
  let plan = if cfg.chaos then Some (derived_plan seed) else None in
  let sys =
    B.boot_veil ~npages:guest_npages ~seed ?chaos:(if cfg.chaos then plan else ambient) ()
  in
  let smp = Smp.bring_up sys ~nvcpus:cfg.vcpus () in
  if cfg.rings then B.enable_rings sys ();
  let kernel = sys.B.kernel in
  (* VeilS-LOG posture: audited traffic flows through VeilMon, so the
     fleet exercises the monitor path and the protected log per guest *)
  Guest_kernel.Audit.set_rules (Kern.audit kernel)
    (match cfg.workload with
    | Http | Memcached -> [ S.Sendto ]
    (* the pager opens its file once at open_db — per-statement traffic
       is pread/pwrite/fsync, so audit those *)
    | Sqldb -> [ S.Pread64; S.Pwrite64; S.Fsync ]);
  Kern.set_audit_protection kernel true;
  let env = mk_env kernel (Kern.spawn kernel) ~rings:cfg.rings ~seed:(seed lxor 0x5EED) in
  let cli = mk_env kernel (Kern.spawn kernel) ~rings:cfg.rings ~seed:(seed lxor 0xC11) in
  let rng = Arrival.make ~seed:cfg.seed ~stream:(id + 1) cfg.process in
  let state = setup_workload cfg env cli rng in
  let reg = sys.B.platform.P.metrics in
  let g =
    {
      g_id = id;
      g_seed = seed;
      g_sys = sys;
      g_smp = smp;
      g_env = env;
      g_cli = cli;
      g_rng = rng;
      g_state = state;
      g_plan = plan;
      g_lat = M.histogram reg "fleet.sojourn_cycles";
      g_svc = M.histogram reg "fleet.service_cycles";
      g_reqs = M.counter reg "fleet.requests";
      g_lanes = Array.make cfg.vcpus 0;
      g_journal = Buffer.create 256;
      g_served = 0;
      g_blocked = 0;
      g_hostile = cfg.hostile = Some id;
    }
  in
  (* Serving window starts here: boot, AP bring-up and workload setup
     must not pollute the serialized-monitor ledger or the pulse
     timeline. *)
  Veil_core.Monitor.reset_wait_ledger sys.B.mon;
  (match cfg.pulse with
  | Some interval -> Obs.Pulse.arm sys.B.platform.P.pulse ~interval ~now:(V.rdtsc (Smp.vcpu smp 0))
  | None -> ());
  g

(* --- request execution --- *)

let serve_http g server port =
  let sz = Arrival.pareto_size g.g_rng ~xm:1024 ~alpha:1.3 ~cap:16384 in
  let idx = http_file_of_size sz in
  let serve () = ignore (Http.serve_pending g.g_env server) in
  match Http.client_get g.g_cli ~serve ~port ~path:(Printf.sprintf "/file%d.html" idx) with
  | Some body when Bytes.length body = http_sizes.(idx) -> ()
  | Some _ -> failwith "fleet http: short body"
  | None -> failwith "fleet http: no response"

let serve_mc g store conn server_conn =
  let key = Printf.sprintf "key%d" (Arrival.uniform g.g_rng 64) in
  if Arrival.uniform g.g_rng 10 = 0 then begin
    let sz = Arrival.pareto_size g.g_rng ~xm:64 ~alpha:1.3 ~cap:4096 in
    ignore (Env.send g.g_cli conn (Bytes.of_string (Printf.sprintf "set %s %d\n" key sz)));
    mc_serve g.g_env store server_conn;
    ignore (Env.recv g.g_cli conn 256)
  end
  else begin
    ignore (Env.send g.g_cli conn (Bytes.of_string (Printf.sprintf "get %s\n" key)));
    mc_serve g.g_env store server_conn;
    ignore (Env.recv g.g_cli conn 65536)
  end

let serve_sql g (st : wl_state) =
  match st with
  | St_sql s ->
      let stmt =
        if Arrival.uniform g.g_rng 10 = 0 then begin
          let row = s.next_row in
          s.next_row <- row + 1;
          (* rows are capped at 64 bytes by the engine; keep key + pad
             under it while still drawing a heavy-tailed spread *)
          let pad = Arrival.pareto_size g.g_rng ~xm:8 ~alpha:1.3 ~cap:40 in
          Printf.sprintf "INSERT INTO kv VALUES ('n%d', '%s')" row (sql_pad g.g_rng pad)
        end
        else Printf.sprintf "SELECT v FROM kv WHERE k = 'k%d'" (Arrival.uniform g.g_rng 32)
      in
      (match Sqldb.exec s.db stmt with
      | Ok _ -> ()
      | Error e -> failwith ("fleet sqldb: " ^ e));
      (* per-statement durability: flush dirty pages and fsync — the
         pager otherwise serves the whole working set from cache and a
         request would generate no audited I/O at all *)
      Sqldb.checkpoint s.db
  | _ -> assert false

(* Compromised-kernel probe fired alongside the hostile guest's own
   traffic: a service request whose destination pointer aims into
   VeilMon memory (Table 1, malicious OS request pointers, at fleet
   scope).  The sanitizer must refuse; nothing here may halt the
   guest mid-run. *)
let hostile_request_probe g =
  let sys = g.g_sys in
  (* [.lo + 2]: the heap's first frame doubles as a shared mailbox
     (same offset atk_read_mon uses) — aim past it at private pages *)
  let evil_dest = T.gpa_of_gpfn (sys.B.layout.L.mon_heap.L.lo + 2) in
  match
    Veil_core.Monitor.os_call sys.B.mon (Kern.vcpu sys.B.kernel)
      (Veil_core.Idcb.R_log_fetch { dest_gpa = evil_dest; max = 4096 })
  with
  | Veil_core.Idcb.Resp_error _ -> g.g_blocked <- g.g_blocked + 1
  | _ -> () (* unblocked: the count stays short and the oracle fails the run *)

(* Final probe, after every report datum is read: a direct read of
   VeilMon's heap through the compromised kernel's arbitrary-read
   gadget — must fault (#NPF halts the CVM, which is why it runs
   last). *)
let hostile_npf_probe g =
  try
    ignore
      (P.read g.g_sys.B.platform g.g_sys.B.vcpu
         (T.gpa_of_gpfn (g.g_sys.B.layout.L.mon_heap.L.lo + 2)) 16);
    false
  with T.Npf _ | T.Cvm_halted _ -> true

let serve_measured cfg g =
  let lane = g.g_served mod cfg.vcpus in
  let vcpu = Smp.vcpu g.g_smp lane in
  Kern.set_vcpu g.g_sys.B.kernel vcpu;
  let before = C.total vcpu.V.counter in
  (match g.g_state with
  | St_http { server; port } -> serve_http g server port
  | St_mc { store; conn; server_conn } -> serve_mc g store conn server_conn
  | St_sql _ as st -> serve_sql g st);
  if g.g_hostile then hostile_request_probe g;
  let svc = C.total vcpu.V.counter - before in
  g.g_served <- g.g_served + 1;
  Buffer.add_char g.g_journal (Char.chr (Char.code '0' + lane));
  M.observe g.g_svc svc;
  M.incr g.g_reqs;
  (lane, svc)

(* --- teardown / verification --- *)

(* Retrieve the protected log over the attested channel.  The fleet
   teardown path starts with *no* session (or a stale one after a
   guest restart): the first fetch fails with the typed, retryable
   [Disconnected], and only then do we re-attest and retry — the
   reconnect loop the bare-string error made impossible to write
   soundly. *)
let fetch_logs_retry (sys : B.veil_system) =
  let att = sys.B.platform.P.attestation in
  let user =
    Veil_core.Channel.create (Veil_crypto.Rng.create 5)
      ~platform_public:(Sevsnp.Attestation.platform_public_key att)
      ~expected_launch:(Sevsnp.Attestation.launch_measurement att)
  in
  let rec go retries =
    match Veil_core.Channel.fetch_logs user sys.B.slog sys.B.vcpu with
    | Ok lines -> Some lines
    | Error e when Veil_core.Channel.retryable e && retries > 0 -> (
        match Veil_core.Channel.connect user sys.B.mon sys.B.vcpu with
        | Ok () -> go (retries - 1)
        | Error _ -> None)
    | Error _ -> None
  in
  go 1

let digest_state g =
  let buf = Buffer.create 512 in
  (match g.g_state with
  | St_http { server; _ } ->
      Buffer.add_string buf (Printf.sprintf "http served=%d" (Http.requests_served server));
      Array.iteri
        (fun i _ ->
          Buffer.add_string buf
            (Printf.sprintf " f%d=%d" i
               (Env.stat_size g.g_cli (Printf.sprintf "/srv/www/file%d.html" i))))
        http_sizes
  | St_mc { store; _ } ->
      Buffer.add_string buf
        (Printf.sprintf "mc entries=%d bytes=%d hits=%d misses=%d evictions=%d"
           (Mcache.entries store) (Mcache.bytes_used store) (Mcache.hits store)
           (Mcache.misses store) (Mcache.evictions store));
      for i = 0 to 63 do
        match Mcache.get store (Printf.sprintf "key%d" i) with
        | Some v -> Buffer.add_string buf (sha_hex (Bytes.to_string v))
        | None -> Buffer.add_string buf "-"
      done
  | St_sql { db; _ } -> (
      (match Sqldb.row_count db "kv" with
      | Ok n -> Buffer.add_string buf (Printf.sprintf "sql rows=%d" n)
      | Error e -> Buffer.add_string buf ("sql err=" ^ e));
      match Sqldb.exec db "SELECT * FROM kv" with
      | Ok (Sqldb.Rows rows) ->
          List.iter (fun row -> List.iter (fun v -> Buffer.add_string buf ("|" ^ v)) row) rows
      | Ok Sqldb.Done -> ()
      | Error e -> Buffer.add_string buf ("sql err=" ^ e)));
  sha_hex (Buffer.contents buf)

let finish cfg g =
  let sys = g.g_sys in
  Kern.set_vcpu sys.B.kernel sys.B.vcpu;
  (* window barrier: deferred ring traffic is part of the serving
     window — land it before the ledger and counters are read *)
  if cfg.rings then B.flush_rings sys;
  let wait = Veil_core.Monitor.wait_stats sys.B.mon in
  (match cfg.pulse with
  | Some _ ->
      let pu = sys.B.platform.P.pulse in
      let now =
        Array.init cfg.vcpus (fun i -> V.rdtsc (Smp.vcpu g.g_smp i)) |> Array.fold_left max 0
      in
      Obs.Pulse.flush pu ~now;
      Obs.Pulse.disarm pu;
      ignore (B.anchor_pulse sys)
  | None -> ());
  let slog_lines = Veil_core.Slog.read_all sys.B.slog in
  let slog_ok =
    Veil_core.Slog.verify_chain ~lines:slog_lines ~digest:(Veil_core.Slog.chain_digest sys.B.slog)
  in
  let log_lines = match fetch_logs_retry sys with Some l -> List.length l | None -> -1 in
  let data_digest = digest_state g in
  let hist_digest = sha_hex (M.dump sys.B.platform.P.metrics) in
  if g.g_hostile && hostile_npf_probe g then g.g_blocked <- g.g_blocked + 1;
  {
    gr_id = g.g_id;
    gr_seed = g.g_seed;
    gr_requests = M.value g.g_reqs;
    gr_p50 = M.percentile g.g_lat 50.0;
    gr_p99 = M.percentile g.g_lat 99.0;
    gr_p999 = M.percentile g.g_lat 99.9;
    gr_mean_svc = M.mean g.g_svc;
    gr_wait = wait;
    gr_journal = Buffer.contents g.g_journal;
    gr_slog_ok = slog_ok;
    gr_log_lines = log_lines;
    gr_data_digest = data_digest;
    gr_hist_digest = hist_digest;
    gr_blocked = g.g_blocked;
    gr_hostile = g.g_hostile;
    gr_chaos_hits = (match g.g_plan with Some p -> FP.total_hits p | None -> 0);
  }

(* --- the drive loop --- *)

(* The position of the guest whose earliest-free lane frees first.  It
   reads every guest's lanes, so it runs only when all guests share one
   group. *)
let least_loaded slots =
  let best = ref 0 and best_free = ref max_int in
  Array.iteri
    (fun i -> function
      | Some g ->
          let free = Array.fold_left min max_int g.g_lanes in
          if free < !best_free then begin
            best := i;
            best_free := free
          end
      | None -> ())
    slots;
  !best

(* Serve a group's share of the schedule in request order.  [slots]
   holds the group's guests at their fleet positions, [due] the
   open-loop arrival clock of every request.  Returns the (request,
   guest digit) picks it served. *)
let serve_share cfg due slots =
  let picks = ref [] in
  for k = 0 to cfg.requests - 1 do
    let pos =
      match (cfg.mode, cfg.lb) with
      | Open_loop, Least_loaded -> least_loaded slots
      | _ -> k mod cfg.guests
    in
    match slots.(pos) with
    | None -> () (* another group's request *)
    | Some g -> (
        picks := (k, digit36 g.g_id) :: !picks;
        let lane, svc = serve_measured cfg g in
        match cfg.mode with
        | Open_loop ->
            let start = max due.(k) g.g_lanes.(lane) in
            g.g_lanes.(lane) <- start + svc;
            M.observe g.g_lat (start + svc - due.(k))
        | Closed_loop ->
            (* one back-to-back client per lane: the next request is
               only offered when the previous one finished, so reported
               latency is pure service time — the waiting that
               open-loop arrivals would have suffered is coordinately
               omitted *)
            g.g_lanes.(lane) <- g.g_lanes.(lane) + svc;
            M.observe g.g_lat svc)
  done;
  !picks

(* What a group hands back.  Nothing in it references a guest, so each
   platform can be collected as soon as its group returns. *)
type outcome = {
  o_reports : guest_report list;
  o_metrics : M.t list;
  o_wall : int;
  o_picks : (int * char) list;
}

(* A group's whole lifetime: boot its guests, serve their share, tear
   them down. *)
let run_group cfg ~ambient ~due members =
  let slots = Array.make cfg.guests None in
  List.iter
    (fun pos -> slots.(pos) <- Some (boot_guest cfg ~ambient (cfg.first_guest + pos)))
    members;
  let picks = serve_share cfg due slots in
  let guests = List.filter_map (fun pos -> slots.(pos)) members in
  let reports = List.map (finish cfg) guests in
  {
    o_reports = reports;
    (* detached copies: a live registry's refresh hook captures its
       platform and would keep the whole guest alive *)
    o_metrics = List.map (fun g -> M.merge [ g.g_sys.B.platform.P.metrics ]) guests;
    o_wall = List.fold_left (fun acc g -> Array.fold_left max acc g.g_lanes) 0 guests;
    o_picks = picks;
  }

let validate cfg =
  if cfg.guests < 1 then invalid_arg "Fleet.run: guests >= 1";
  if cfg.vcpus < 1 || cfg.vcpus > 8 then invalid_arg "Fleet.run: vcpus in 1..8";
  if cfg.requests < 1 then invalid_arg "Fleet.run: requests >= 1"

(* [task i] for every i in [0, n), on up to [recommended_domain_count]
   domains counting the calling one.  Each domain takes the next index
   from a shared counter.  Results come back in index order once every
   domain has joined; if tasks raised, the lowest-numbered one's
   exception is re-raised. *)
let run_tasks n task =
  let next = Atomic.make 0 in
  let rec work acc =
    let i = Atomic.fetch_and_add next 1 in
    if i >= n then acc
    else
      let r = try Ok (task i) with e -> Error (e, Printexc.get_raw_backtrace ()) in
      work ((i, r) :: acc)
  in
  let helpers =
    List.init
      (min n (Domain.recommended_domain_count ()) - 1)
      (fun _ -> Domain.spawn (fun () -> work []))
  in
  let mine = work [] in
  List.concat (mine :: List.map Domain.join helpers)
  |> List.sort (fun (i, _) (j, _) -> compare i j)
  |> List.map (function _, Ok v -> v | _, Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let run cfg =
  validate cfg;
  (* Resolved once, here: guests booted without their own plan all arm
     this one, so they consume one shared stream of fault draws. *)
  let ambient = if cfg.chaos then None else !B.default_chaos () in
  let due =
    match cfg.mode with
    | Closed_loop -> [||]
    | Open_loop ->
        let arr = Arrival.make ~seed:cfg.seed ~stream:0 cfg.process in
        let clock = ref 0 in
        Array.init cfg.requests (fun _ ->
            clock := !clock + Arrival.next_gap arr;
            !clock)
  in
  (* Isolation groups: every guest alone, unless a least-loaded pick or
     a shared fault plan couples them — then all of them, request by
     request (DESIGN.md §15). *)
  let positions = List.init cfg.guests Fun.id in
  let groups =
    if Option.is_some ambient || (cfg.mode = Open_loop && cfg.lb = Least_loaded) then
      [| positions |]
    else Array.of_list (List.map (fun pos -> [ pos ]) positions)
  in
  let outcomes =
    run_tasks (Array.length groups) (fun i -> run_group cfg ~ambient ~due groups.(i))
  in
  let lbj = Bytes.make cfg.requests '?' in
  List.iter (fun o -> List.iter (fun (k, d) -> Bytes.set lbj k d) o.o_picks) outcomes;
  let wall = List.fold_left (fun acc o -> max acc o.o_wall) 0 outcomes in
  let merged = M.merge (List.concat_map (fun o -> o.o_metrics) outcomes) in
  let mlat =
    match M.find merged "fleet.sojourn_cycles" with
    | Some (M.Histogram h) -> h
    | _ -> failwith "Fleet.run: merged registry lost the sojourn histogram"
  in
  {
    r_guests = Array.of_list (List.concat_map (fun o -> o.o_reports) outcomes);
    r_mode = cfg.mode;
    r_workload = cfg.workload;
    r_vcpus = cfg.vcpus;
    r_requests = cfg.requests;
    r_wall_cycles = wall;
    r_throughput =
      (if wall <= 0 then 0.0 else float_of_int cfg.requests /. C.seconds_of_cycles wall);
    r_offered = Arrival.mean_rate cfg.process;
    r_p50 = M.percentile mlat 50.0;
    r_p99 = M.percentile mlat 99.0;
    r_p999 = M.percentile mlat 99.9;
    r_mean = M.mean mlat;
    r_merged_digest = sha_hex (M.dump merged);
    r_lb_journal = Bytes.to_string lbj;
  }

let calibrate cfg =
  let probe =
    {
      cfg with
      mode = Closed_loop;
      requests = min 128 (max 32 (8 * cfg.guests * cfg.vcpus));
      chaos = false;
      pulse = None;
      hostile = None;
    }
  in
  let r = run probe in
  if r.r_mean <= 0.0 then float_of_int C.freq_hz else r.r_mean

let rate_for cfg ~utilization ~mean_service_cycles =
  if mean_service_cycles <= 0.0 then 1.0
  else
    utilization *. float_of_int (cfg.guests * cfg.vcpus) *. float_of_int C.freq_hz
    /. mean_service_cycles

let report_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"mode\":\"%s\",\"workload\":\"%s\",\"vcpus\":%d,\"requests\":%d,\"wall_cycles\":%d,\
        \"throughput_rps\":%.1f,\"offered_rps\":%.1f,\"p50\":%d,\"p99\":%d,\"p999\":%d,\
        \"mean\":%.1f,\"merged_digest\":\"%s\",\"guests\":["
       (match r.r_mode with Open_loop -> "open" | Closed_loop -> "closed")
       (workload_name r.r_workload) r.r_vcpus r.r_requests r.r_wall_cycles r.r_throughput
       r.r_offered r.r_p50 r.r_p99 r.r_p999 r.r_mean r.r_merged_digest);
  Array.iteri
    (fun i (g : guest_report) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":%d,\"seed\":%d,\"requests\":%d,\"p50\":%d,\"p99\":%d,\"p999\":%d,\
            \"mean_svc\":%.1f,\"ledger_entries\":%d,\"ledger_queued\":%d,\"slog_ok\":%b,\
            \"log_lines\":%d,\"data_digest\":\"%s\",\"hist_digest\":\"%s\",\"hostile\":%b,\
            \"blocked\":%d,\"chaos_hits\":%d,\"journal\":\"%s\"}"
           g.gr_id g.gr_seed g.gr_requests g.gr_p50 g.gr_p99 g.gr_p999 g.gr_mean_svc
           g.gr_wait.Veil_core.Monitor.ws_entries g.gr_wait.Veil_core.Monitor.ws_queued_cycles
           g.gr_slog_ok g.gr_log_lines g.gr_data_digest g.gr_hist_digest g.gr_hostile
           g.gr_blocked g.gr_chaos_hits
           (M.json_escape g.gr_journal)))
    r.r_guests;
  Buffer.add_string buf "]}";
  Buffer.contents buf
