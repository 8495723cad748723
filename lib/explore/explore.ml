(* Veil-Explore (ISSUE 9): exhaustive interleaving search over the §5
   monitor protocols.

   The deterministic SMP interleaver makes every scheduling decision a
   pure function of the schedule prefix, so the schedule *tree* of a
   bounded scenario can be enumerated by re-running it: fork the
   scenario's booted snapshot, replay a journal prefix byte-for-byte,
   take the first runnable VCPU beyond it, and record at every decision
   the runnable set the run did NOT take.  Depth-first backtracking over
   those untaken alternatives visits every interleaving of the scenario
   (budget permitting), and the chaos invariant classification plus the
   cross-branch invariants below are re-checked on each branch:

   - slog hash chain intact at end of branch;
   - per-VCPU IDCB sequence monotonicity at every schedule point;
   - at most one VCPU in Dom_MON at every schedule point (monitor
     sections never yield);
   - ring replay cache consistency (a duplicated batch relay answers
     from cache without re-executing).

   Sleep-set pruning (DPOR-style): when the alternatives of a branch
   point are explored left to right, an already-explored sibling [a]
   need not be re-explored below a later sibling [b] as long as only
   steps *independent* of [a] have run since — the [b..a] interleaving
   commutes with the [a..b] one already covered.  Independence is
   approximated by visibility: a timeslice that moved none of the
   shared-protocol counters (monitor os_calls/delegations/rejections,
   hypervisor switches/relays/IO/page-state, vTPM extends, slog
   appends, kernel syscalls, replay suppressions) touched only its own
   coroutine state, and commutes with any step of another VCPU.  Any
   visible step conservatively clears the sleep set.  See DESIGN.md
   §14 for the soundness argument and its limits.

   On violation the failing schedule is shrunk to a minimal journal by
   greedy prefix/step deletion with replay confirmation, and emitted as
   a one-line artifact `veilctl explore --replay` re-executes
   byte-for-byte. *)

module B = Veil_core.Boot
module M = Veil_core.Monitor
module Smp = Veil_core.Smp
module Pd = Veil_core.Privdom
module Slog = Veil_core.Slog
module Vtpm = Veil_core.Vtpm
module Idcb = Veil_core.Idcb
module Hv = Hypervisor.Hv
module I = Hypervisor.Hv.Interleave
module K = Guest_kernel.Kernel
module Gs = Guest_kernel.Sched
module Hooks = Guest_kernel.Hooks
module P = Sevsnp.Platform
module V = Sevsnp.Vcpu
module T = Sevsnp.Types
module FP = Chaos.Fault_plan
module O = Chaos_outcome
module ISet = Set.Make (Int)

(* --- configuration ------------------------------------------------- *)

type config = {
  cf_budget : int;  (** max branch executions per scenario (the DFS budget) *)
  cf_max_steps : int;  (** interleaver steps per branch before the schedule watchdog *)
  cf_watchdog : int;  (** fault-plan world-exit budget per branch *)
  cf_seed : int;  (** fault-plan seed (scenarios with chaos sites) *)
}

let default_config =
  { cf_budget = 200; cf_max_steps = 4096; cf_watchdog = 2_000_000; cf_seed = 11 }

(* Guest boot parameters are FIXED across branches: all branch-to-branch
   variation comes from the schedule journal, which is what makes a
   minimized journal replay byte-identical. *)
let boot_npages = 2048
let boot_seed = 13

(* --- scenarios ----------------------------------------------------- *)

type scenario = {
  sc_name : string;
  sc_desc : string;
  sc_nvcpus : int;
  sc_weakened : bool;  (** test-only weakened guard: a violation is the expected outcome *)
  sc_sites : (FP.site * float * int option) list;  (** (site, prob, max_hits) armed per branch *)
  sc_body : B.veil_system -> Smp.t -> unit -> unit;
      (** post-bring-up: register the workers; the returned thunk is the
          end-of-branch check (raise {!Chaos_outcome.Fail} on violation) *)
}

let yield () = Gs.yield ()
let cur_vcpu sys = K.vcpu sys.B.kernel

(* (a) AP bring-up racing a domain switch. *)
let sc_ap_race =
  {
    sc_name = "ap-race";
    sc_desc = "AP bring-up (R_vcpu_boot for VCPU 2) racing Dom_MON round-trip switches";
    sc_nvcpus = 2;
    sc_weakened = false;
    sc_sites = [];
    sc_body =
      (fun sys smp ->
        Smp.spawn ~vcpu:0 smp ~name:"ap-boot" (fun () ->
            yield ();
            (match (K.hooks sys.B.kernel).Hooks.h_vcpu_boot ~vcpu_id:2 with
            | Ok () -> ()
            | Error e -> O.fail (O.Degraded ("AP bring-up refused: " ^ e)));
            yield ());
        Smp.spawn ~vcpu:1 smp ~name:"switcher" (fun () ->
            for _ = 1 to 3 do
              let vc = cur_vcpu sys in
              M.domain_switch sys.B.mon vc ~target:Pd.Mon;
              M.domain_switch sys.B.mon vc ~target:Pd.Unt;
              yield ()
            done);
        fun () ->
          let n = P.vcpu_count sys.B.platform in
          if n <> 3 then O.corrupt "AP bring-up left %d VCPUs (expected 3)" n;
          let ap = List.nth (P.vcpus sys.B.platform) 2 in
          if ap.V.id <> 2 then O.corrupt "hot-plugged VCPU has id %d (expected 2)" ap.V.id;
          if not (T.equal_vmpl (V.vmpl ap) T.Vmpl3) then
            O.corrupt "hot-plugged AP not parked at Dom_UNT");
  }

(* (b) concurrent RMPADJUST (page-state-change delegation) + TLB
   shootdown, with a third VCPU doing local-only compute: its
   timeslices move no shared-protocol state, so they are exactly the
   commutative steps sleep-set pruning collapses. *)
let sc_rmp_shootdown =
  {
    sc_name = "rmp-shootdown";
    sc_desc = "R_pvalidate page-state flips racing distributed TLB shootdowns (3 VCPUs)";
    sc_nvcpus = 3;
    sc_weakened = false;
    sc_sites = [];
    sc_body =
      (fun sys smp ->
        let target = K.alloc_frame sys.B.kernel in
        let local_spins = ref 0 in
        Smp.spawn ~vcpu:0 smp ~name:"pvalidate" (fun () ->
            for _ = 1 to 2 do
              (match (K.hooks sys.B.kernel).Hooks.h_pvalidate ~gpfn:target ~to_private:false with
              | Ok () -> ()
              | Error e -> O.fail (O.Degraded ("pvalidate to-shared refused: " ^ e)));
              yield ();
              (match (K.hooks sys.B.kernel).Hooks.h_pvalidate ~gpfn:target ~to_private:true with
              | Ok () -> ()
              | Error e -> O.fail (O.Degraded ("pvalidate to-private refused: " ^ e)));
              yield ()
            done);
        Smp.spawn ~vcpu:1 smp ~name:"shootdown" (fun () ->
            for _ = 1 to 3 do
              P.tlb_shootdown_distributed sys.B.platform ~initiator:(cur_vcpu sys);
              yield ()
            done);
        Smp.spawn ~vcpu:2 smp ~name:"local" (fun () ->
            for _ = 1 to 2 do
              incr local_spins;
              yield ()
            done);
        fun () ->
          if Sevsnp.Rmp.state sys.B.platform.P.rmp target <> Sevsnp.Rmp.Private then
            O.corrupt "page-state flip target not private after paired flips";
          let d = (M.stats sys.B.mon).M.delegated_pvalidates in
          if d < 4 then O.corrupt "only %d pvalidate delegations reached the monitor" d;
          if !local_spins <> 2 then O.corrupt "local worker ran %d spins (expected 2)" !local_spins);
  }

(* (c) os_call replay suppression under duplicated/reordered relays. *)
let sc_oscall_replay =
  {
    sc_name = "oscall-replay";
    sc_desc = "vTPM extends under relay dup/reorder + forced duplicate IDCB relays";
    sc_nvcpus = 2;
    sc_weakened = false;
    sc_sites = [ (FP.Relay_dup, 1.0, Some 2); (FP.Relay_reorder, 1.0, Some 2) ];
    sc_body =
      (fun sys smp ->
        let extends0 = ref 0 in
        extends0 := Vtpm.extends_count sys.B.vtpm;
        Smp.spawn ~vcpu:0 smp ~name:"extender" (fun () ->
            for i = 1 to 3 do
              (match
                 M.os_call sys.B.mon (cur_vcpu sys)
                   (Idcb.R_tpm_extend
                      { pcr = 3; data = Bytes.of_string (Printf.sprintf "explore-%d" i) })
               with
              | Idcb.Resp_ok -> ()
              | Idcb.Resp_error e -> O.fail (O.Degraded ("tpm extend refused: " ^ e))
              | _ -> O.corrupt "tpm extend returned an unexpected response");
              yield ()
            done);
        Smp.spawn ~vcpu:1 smp ~name:"relayer" (fun () ->
            for _ = 1 to 2 do
              Hv.inject_interrupt sys.B.hv (cur_vcpu sys);
              yield ();
              (* A duplicated relay of VCPU 0's current IDCB sequence:
                 the monitor must answer from the replay cache without a
                 second execution. *)
              ignore (M.serve_pending sys.B.mon (Smp.vcpu smp 0));
              yield ()
            done);
        fun () ->
          let got = Vtpm.extends_count sys.B.vtpm - !extends0 in
          if got <> 3 then
            O.corrupt "vTPM extended %d times for 3 os_calls (replay suppression broken?)" got);
  }

(* (d) ring batch flush racing a synchronous os_call. *)
let sc_ring_race =
  {
    sc_name = "ring-race";
    sc_desc = "Veil-Ring batch flushes racing synchronous os_calls, plus a duplicated batch relay";
    sc_nvcpus = 2;
    sc_weakened = false;
    sc_sites = [];
    sc_body =
      (fun sys smp ->
        B.enable_rings sys ();
        let extends0 = Vtpm.extends_count sys.B.vtpm in
        let extend pcr tag i =
          Idcb.R_tpm_extend { pcr; data = Bytes.of_string (Printf.sprintf "%s-%d" tag i) }
        in
        Smp.spawn ~vcpu:0 smp ~name:"batcher" (fun () ->
            let mon = sys.B.mon in
            let ring =
              match M.ring_of mon ~vcpu_id:0 with
              | Some r -> r
              | None -> O.fail (O.Crashed "vcpu 0 has no registered ring")
            in
            for i = 1 to 2 do
              ignore (M.ring_submit mon (cur_vcpu sys) ring (extend 4 "batch-a" i));
              yield ();
              ignore (M.ring_submit mon (cur_vcpu sys) ring (extend 4 "batch-b" i));
              ignore (M.os_call_batch mon (cur_vcpu sys) ring);
              yield ()
            done);
        Smp.spawn ~vcpu:1 smp ~name:"sync-caller" (fun () ->
            for i = 1 to 2 do
              (match M.os_call sys.B.mon (cur_vcpu sys) (extend 6 "sync" i) with
              | Idcb.Resp_ok -> ()
              | Idcb.Resp_error e -> O.fail (O.Degraded ("sync extend refused: " ^ e))
              | _ -> O.corrupt "sync extend returned an unexpected response");
              yield ()
            done);
        fun () ->
          B.flush_rings sys;
          let got = Vtpm.extends_count sys.B.vtpm - extends0 in
          if got <> 6 then
            O.corrupt "vTPM extended %d times for 6 submitted requests (batch vs sync raced)" got;
          (* Ring replay cache consistency: a duplicated relay of the
             last flushed batch must answer from the cache. *)
          match M.ring_of sys.B.mon ~vcpu_id:0 with
          | None -> ()
          | Some ring ->
              let before = Vtpm.extends_count sys.B.vtpm in
              ignore (M.serve_batch sys.B.mon sys.B.vcpu ring);
              if Vtpm.extends_count sys.B.vtpm <> before then
                O.fail (O.Corrupt "duplicated ring batch relay re-executed slots"));
  }

(* TEST-ONLY weakened guard: the IDCB replay cache is disabled, so a
   replayed relay of an already-served sequence re-executes its request
   — but only on schedules where the replayer's slice lands after an
   even number of completed extends, making the counterexample
   genuinely schedule-dependent (the default first-enabled schedule
   passes). *)
let sc_weakened_replay =
  {
    sc_name = "weakened-replay";
    sc_desc = "TEST-ONLY: IDCB replay guard disabled; schedule-dependent double execution";
    sc_nvcpus = 2;
    sc_weakened = true;
    sc_sites = [];
    sc_body =
      (fun sys smp ->
        M.weaken_replay_guard_for_test sys.B.mon;
        let extends0 = Vtpm.extends_count sys.B.vtpm in
        Smp.spawn ~vcpu:0 smp ~name:"extender" (fun () ->
            for i = 1 to 3 do
              ignore
                (M.os_call sys.B.mon (cur_vcpu sys)
                   (Idcb.R_tpm_extend
                      { pcr = 5; data = Bytes.of_string (Printf.sprintf "wk-%d" i) }));
              yield ()
            done);
        Smp.spawn ~vcpu:1 smp ~name:"replayer" (fun () ->
            yield ();
            if (Vtpm.extends_count sys.B.vtpm - extends0) mod 2 = 0 then begin
              (* Replayed relay: re-post VCPU 0's current sequence and
                 re-enter the monitor on that VCPU, exactly as a
                 duplicated doorbell would.  The replay cache must
                 suppress the second execution. *)
              let vc0 = Smp.vcpu smp 0 in
              let idcb = M.idcb_of sys.B.mon ~vcpu_id:0 in
              idcb.Idcb.request <-
                Idcb.R_tpm_extend { pcr = 5; data = Bytes.of_string "forged-replay" };
              M.domain_switch sys.B.mon vc0 ~target:Pd.Mon;
              ignore (M.serve_pending sys.B.mon vc0);
              M.domain_switch sys.B.mon vc0 ~target:Pd.Unt
            end);
        fun () ->
          let got = Vtpm.extends_count sys.B.vtpm - extends0 in
          if got <> 3 then
            O.corrupt "vTPM extended %d times for 3 os_calls (replayed relay re-executed)" got);
  }

let all_scenarios = [ sc_ap_race; sc_rmp_shootdown; sc_oscall_replay; sc_ring_race ]
let weakened_scenarios = [ sc_weakened_replay ]

let find_scenario name =
  List.find_opt (fun s -> String.equal s.sc_name name) (all_scenarios @ weakened_scenarios)

(* --- one branch execution ------------------------------------------ *)

type step_info = {
  si_enabled : int list;  (* runnable set at this decision (ascending) *)
  si_chosen : int;
  mutable si_visible : bool;  (* the chosen timeslice moved shared-protocol state *)
}

type branch = {
  br_outcome : O.t;
  br_journal : string;  (* full journal, as far as the run got *)
  br_steps : step_info array;
  br_diverged : bool;  (* the prescribed prefix named a non-runnable VCPU *)
}

exception Diverged

(* Shared-protocol fingerprint: all cross-VCPU communication in the
   simulator funnels through the monitor, the hypervisor, the protected
   services or the kernel syscall layer, so a timeslice that moves none
   of these counters touched only its own coroutine's state. *)
let fingerprint (sys : B.veil_system) =
  let ms = M.stats sys.B.mon in
  let hs = Hv.stats sys.B.hv in
  let metric name = Obs.Metrics.value (Obs.Metrics.counter sys.B.platform.P.metrics name) in
  ms.M.os_calls + ms.M.delegated_pvalidates + ms.M.delegated_vcpu_boots
  + ms.M.sanitizer_rejections + hs.Hv.domain_switches + hs.Hv.io_requests
  + hs.Hv.interrupts_injected + hs.Hv.page_state_changes
  + Vtpm.extends_count sys.B.vtpm + Slog.count sys.B.slog
  + metric "kernel.syscalls"
  + metric "monitor.replays_suppressed"

(* Cross-branch invariants sampled at every schedule point. *)
let check_step_invariants (sys : B.veil_system) ~nvcpus last_seq =
  for v = 0 to nvcpus - 1 do
    let seq = (M.idcb_of sys.B.mon ~vcpu_id:v).Idcb.seq in
    if seq < last_seq.(v) then
      O.corrupt "IDCB sequence regressed on vcpu %d (%d -> %d)" v last_seq.(v) seq;
    last_seq.(v) <- seq
  done;
  let in_mon =
    List.fold_left
      (fun acc vc -> if Pd.equal (Pd.of_vmpl (V.vmpl vc)) Pd.Mon then acc + 1 else acc)
      0 (P.vcpus sys.B.platform)
  in
  if in_mon > 1 then O.corrupt "%d VCPUs in Dom_MON at a schedule point" in_mon

(* --- the booted snapshot ------------------------------------------- *)

(* Boot plus AP bring-up runs once per explore/probe/replay call, and
   every branch forks that state.  A fork equals a reboot only while
   everything a branch observes is reachable from [veil_system] and no
   coroutine (effect continuation) exists at snapshot time: DESIGN.md
   §14. *)
let boot ?(config = default_config) sc =
  let plan = FP.create ~max_steps:config.cf_watchdog ~seed:config.cf_seed () in
  List.iter (fun (s, prob, max_hits) -> FP.set_site plan s ?max_hits ~prob ()) sc.sc_sites;
  let sys = B.boot_veil ~npages:boot_npages ~seed:boot_seed ~chaos:plan () in
  ignore (Smp.bring_up sys ~nvcpus:sc.sc_nvcpus ());
  sys

(* The booted system marshalled without its guest memory, plus the
   memory's chunks: forks share the chunks and copy one only when a
   branch first writes it. *)
type image = { im_state : string; im_chunks : bytes array }

let image (sys : B.veil_system) =
  let im_chunks = Sevsnp.Phys_mem.detach sys.B.platform.P.mem in
  { im_state = Marshal.to_string sys [ Marshal.Closures ]; im_chunks }

(* The image, or the classified outcome of a failed boot. *)
let snapshot ?config sc =
  match image (boot ?config sc) with
  | im -> Ok im
  | exception e -> Error (O.classify (fun () -> raise e))

let fork image : B.veil_system =
  let sys : B.veil_system = Marshal.from_string image.im_state 0 in
  Sevsnp.Phys_mem.attach sys.B.platform.P.mem image.im_chunks;
  (* OCaml 5.1 does not count unmarshalled words towards major-GC
     pacing: without an explicit slice, dead forks pile up faster than
     the collector runs (2,000 forks peaked at ~223 MB RSS, against
     9 MB with the slice). *)
  ignore (Gc.major_slice 0);
  sys

let run_branch cfg sc image ~prefix =
  let sys = fork image in
  let steps_rev = ref [] in
  let nsteps = ref 0 in
  let last_fp = ref 0 in
  let last_seq = Array.make sc.sc_nvcpus min_int in
  let diverged = ref false in
  let journal = ref "" in
  let guide en =
    let fp = fingerprint sys in
    (match !steps_rev with
    | prev :: _ -> prev.si_visible <- fp <> !last_fp
    | [] -> ());
    last_fp := fp;
    check_step_invariants sys ~nvcpus:sc.sc_nvcpus last_seq;
    let i = !nsteps in
    let choice =
      if i < String.length prefix then begin
        let c = Char.code prefix.[i] - Char.code '0' in
        if not (List.mem c en) then raise Diverged;
        c
      end
      else List.hd en
    in
    (* the last step's visibility is never resolved: stay conservative *)
    steps_rev := { si_enabled = en; si_chosen = choice; si_visible = true } :: !steps_rev;
    incr nsteps;
    choice
  in
  let body () =
    (* the APs are up: this only attaches the branch's guided interleaver *)
    let smp = Smp.bring_up ~policy:(I.Guided guide) sys ~nvcpus:sc.sc_nvcpus () in
    let final = sc.sc_body sys smp in
    Fun.protect
      ~finally:(fun () -> journal := Smp.journal smp)
      (fun () ->
        try Smp.run ~max_steps:cfg.cf_max_steps smp
        with Gs.Deadlock names ->
          O.fail (O.Watchdog ("schedule deadlock: " ^ String.concat "," names)));
    final ();
    if
      not
        (Slog.verify_chain ~lines:(Slog.read_all sys.B.slog) ~digest:(Slog.chain_digest sys.B.slog))
    then O.fail (O.Corrupt "slog hash chain does not verify at end of branch");
    O.Passed
  in
  let outcome =
    O.classify (fun () ->
        try body ()
        with Diverged ->
          diverged := true;
          O.Halted "schedule prefix diverged (journal does not fit this scenario)")
  in
  {
    br_outcome = outcome;
    br_journal = !journal;
    br_steps = Array.of_list (List.rev !steps_rev);
    br_diverged = !diverged;
  }

(* If the snapshot boot failed, its outcome is every branch's. *)
let runner cfg sc =
  match snapshot ~config:cfg sc with
  | Ok image -> run_branch cfg sc image
  | Error boot_failure ->
      fun ~prefix:_ ->
        { br_outcome = boot_failure; br_journal = ""; br_steps = [||]; br_diverged = false }

(* --- depth-first schedule-tree enumeration ------------------------- *)

type stats = {
  mutable st_runs : int;  (* branch executions, root included *)
  mutable st_branch_points : int;  (* decisions with >= 2 runnable VCPUs *)
  mutable st_branched : int;  (* untaken alternatives actually executed *)
  mutable st_pruned : int;  (* alternatives skipped by sleep sets *)
  mutable st_deferred : int;  (* alternatives beyond the branch budget (frontier) *)
  mutable st_max_depth : int;
}

exception Found of branch

let digit v = String.make 1 (Char.chr (Char.code '0' + v))

let rec expand cfg run st ~sleep ~from r =
  let n = Array.length r.br_steps in
  if n > st.st_max_depth then st.st_max_depth <- n;
  let sleep = ref sleep in
  for i = from to n - 1 do
    let si = r.br_steps.(i) in
    (match si.si_enabled with
    | _ :: _ :: _ -> st.st_branch_points <- st.st_branch_points + 1
    | _ -> ());
    let explored = ref (ISet.singleton si.si_chosen) in
    List.iter
      (fun a ->
        if a <> si.si_chosen then
          if ISet.mem a !sleep then st.st_pruned <- st.st_pruned + 1
          else if st.st_runs >= cfg.cf_budget then st.st_deferred <- st.st_deferred + 1
          else begin
            let p' = String.sub r.br_journal 0 i ^ digit a in
            let r' = run ~prefix:p' in
            st.st_runs <- st.st_runs + 1;
            st.st_branched <- st.st_branched + 1;
            if r'.br_diverged then
              raise
                (Found
                   {
                     r' with
                     br_outcome =
                       O.Crashed "schedule tree diverged: identical prefix, different run";
                   });
            if not (O.ok r'.br_outcome) then raise (Found r');
            (* sleep set for the subtree below alternative [a]: the
               siblings already covered survive only if [a]'s own step
               was invisible (independent of everything) *)
            let a_visible =
              if i < Array.length r'.br_steps then r'.br_steps.(i).si_visible else true
            in
            let child_sleep =
              if a_visible then ISet.empty else ISet.remove a (ISet.union !sleep !explored)
            in
            expand cfg run st ~sleep:child_sleep ~from:(i + 1) r';
            explored := ISet.add a !explored
          end)
      si.si_enabled;
    (* walk on along [r]: the taken step wakes sleepers it depends on *)
    sleep := (if si.si_visible then ISet.empty else ISet.remove si.si_chosen !sleep)
  done

(* --- counterexample minimization ----------------------------------- *)

let minimize run ~cls journal0 =
  let runs = ref 0 in
  let try_ j =
    incr runs;
    let r = run ~prefix:j in
    if (not r.br_diverged) && O.same_class r.br_outcome cls then Some r else None
  in
  let j = ref journal0 in
  (* greedy prefix shrink: halve while the violation reproduces ... *)
  let halving = ref true in
  while !halving && String.length !j > 0 do
    let half = String.sub !j 0 (String.length !j / 2) in
    match try_ half with Some _ -> j := half | None -> halving := false
  done;
  (* ... then drop trailing steps one at a time ... *)
  let trimming = ref true in
  while !trimming && String.length !j > 0 do
    let cand = String.sub !j 0 (String.length !j - 1) in
    match try_ cand with Some _ -> j := cand | None -> trimming := false
  done;
  (* ... then greedy single-step deletion anywhere *)
  let i = ref 0 in
  while !i < String.length !j do
    let cand = String.sub !j 0 !i ^ String.sub !j (!i + 1) (String.length !j - !i - 1) in
    match try_ cand with Some _ -> j := cand | None -> incr i
  done;
  (* replay confirmation of the final journal *)
  match try_ !j with Some r -> Some (!j, r, !runs) | None -> None

(* --- reports ------------------------------------------------------- *)

type counterexample = {
  cx_scenario : string;
  cx_class : string;  (* stable class token ("corrupt", "watchdog", ...) *)
  cx_detail : string;
  cx_journal : string;  (* minimized *)
  cx_full : string;  (* full journal of the confirming replay *)
  cx_orig_len : int;
  cx_found_after : int;  (* branch executions until detection *)
  cx_shrink_runs : int;  (* branch executions spent minimizing *)
}

type report = {
  rr_scenario : string;
  rr_nvcpus : int;
  rr_weakened : bool;
  rr_runs : int;
  rr_branch_points : int;
  rr_branched : int;
  rr_pruned : int;
  rr_deferred : int;
  rr_max_depth : int;
  rr_violation : counterexample option;
}

let exhausted r = r.rr_deferred = 0

let pruning_ratio r =
  let denom = r.rr_pruned + r.rr_branched + r.rr_deferred in
  if denom = 0 then 0.0 else float_of_int r.rr_pruned /. float_of_int denom

let frontier_coverage r =
  let frontier = r.rr_branched + r.rr_deferred in
  if frontier = 0 then 1.0 else float_of_int r.rr_branched /. float_of_int frontier

let explore ?(config = default_config) sc =
  let st =
    {
      st_runs = 0;
      st_branch_points = 0;
      st_branched = 0;
      st_pruned = 0;
      st_deferred = 0;
      st_max_depth = 0;
    }
  in
  let run = runner config sc in
  let r0 = run ~prefix:"" in
  st.st_runs <- 1;
  let found =
    if r0.br_diverged then
      Some { r0 with br_outcome = O.Crashed "empty prefix diverged (broken scenario)" }
    else if not (O.ok r0.br_outcome) then Some r0
    else
      try
        expand config run st ~sleep:ISet.empty ~from:0 r0;
        None
      with Found r -> Some r
  in
  let violation =
    match found with
    | None -> None
    | Some r ->
        let cls = r.br_outcome in
        let found_after = st.st_runs in
        let mk journal full shrink_runs =
          {
            cx_scenario = sc.sc_name;
            cx_class = O.class_name cls;
            cx_detail = O.to_string cls;
            cx_journal = journal;
            cx_full = full;
            cx_orig_len = String.length r.br_journal;
            cx_found_after = found_after;
            cx_shrink_runs = shrink_runs;
          }
        in
        Some
          (match minimize run ~cls r.br_journal with
          | Some (minj, confirm, mruns) ->
              st.st_runs <- st.st_runs + mruns;
              mk minj confirm.br_journal mruns
          | None ->
              (* not even the original journal re-confirmed — report it
                 unminimized rather than hide the finding *)
              mk r.br_journal r.br_journal 0)
  in
  {
    rr_scenario = sc.sc_name;
    rr_nvcpus = sc.sc_nvcpus;
    rr_weakened = sc.sc_weakened;
    rr_runs = st.st_runs;
    rr_branch_points = st.st_branch_points;
    rr_branched = st.st_branched;
    rr_pruned = st.st_pruned;
    rr_deferred = st.st_deferred;
    rr_max_depth = st.st_max_depth;
    rr_violation = violation;
  }

(* Exposed for tests: one prescribed-prefix execution. *)
let probe ?(config = default_config) sc ~prefix =
  let r = runner config sc ~prefix in
  (r.br_outcome, r.br_journal, r.br_diverged)

(* --- replay artifacts ---------------------------------------------- *)

type artifact = {
  af_scenario : string;
  af_class : string;
  af_journal : string;
  af_full : string;  (* "" = byte-for-byte check skipped *)
}

let artifact_of_counterexample cx =
  let dash s = if s = "" then "-" else s in
  Printf.sprintf "veil-explore v1 scenario=%s class=%s journal=%s full=%s detail=%s"
    cx.cx_scenario cx.cx_class (dash cx.cx_journal) (dash cx.cx_full)
    (String.map (fun c -> if c = ' ' || c = '\n' then '_' else c) cx.cx_detail)

let parse_artifact line =
  match String.split_on_char ' ' (String.trim line) with
  | "veil-explore" :: "v1" :: fields ->
      let get k =
        List.find_map
          (fun f ->
            match String.index_opt f '=' with
            | Some i when String.sub f 0 i = k ->
                Some (String.sub f (i + 1) (String.length f - i - 1))
            | _ -> None)
          fields
      in
      let undash = function Some "-" -> "" | Some v -> v | None -> "" in
      (match (get "scenario", get "class") with
      | Some s, Some c ->
          Ok
            {
              af_scenario = s;
              af_class = c;
              af_journal = undash (get "journal");
              af_full = undash (get "full");
            }
      | _ -> Error "artifact missing scenario=/class= fields")
  | _ -> Error "not a veil-explore v1 artifact line"

let replay ?(config = default_config) af =
  match find_scenario af.af_scenario with
  | None -> Error ("unknown scenario: " ^ af.af_scenario)
  | Some sc -> (
      let r = runner config sc ~prefix:af.af_journal in
      if r.br_diverged then Error "journal diverged from the schedule it drives"
      else
        let cls = O.class_name r.br_outcome in
        if not (String.equal cls af.af_class) then
          Error
            (Printf.sprintf "replay classified %s, artifact says %s (outcome: %s)" cls
               af.af_class (O.to_string r.br_outcome))
        else
          match af.af_full with
          | "" ->
              Ok
                (Printf.sprintf "%s: journal %s reproduced class %s" af.af_scenario
                   (if af.af_journal = "" then "(empty)" else af.af_journal)
                   cls)
          | full when not (String.equal r.br_journal full) ->
              Error
                (Printf.sprintf
                   "replayed schedule is not byte-identical: ran %s, artifact full=%s"
                   r.br_journal full)
          | _ ->
              Ok
                (Printf.sprintf "%s: journal %s re-executed byte-for-byte -> %s" af.af_scenario
                   (if af.af_journal = "" then "(empty)" else af.af_journal)
                   (O.to_string r.br_outcome)))

(* --- JSON report (hand-built, like the chaos driver) --------------- *)

let report_json rs =
  let b = Buffer.create 1024 in
  let esc = Obs.Metrics.json_escape in
  Buffer.add_string b "{\"scenarios\":[";
  List.iteri
    (fun k r ->
      if k > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"scenario\":\"%s\",\"nvcpus\":%d,\"weakened\":%b,\"branches\":%d,\"branch_points\":%d,\"explored\":%d,\"pruned\":%d,\"deferred\":%d,\"pruning_ratio\":%.3f,\"frontier_coverage\":%.3f,\"exhausted\":%b,\"max_depth\":%d,\"violation\":"
           (esc r.rr_scenario) r.rr_nvcpus r.rr_weakened r.rr_runs r.rr_branch_points
           r.rr_branched r.rr_pruned r.rr_deferred (pruning_ratio r) (frontier_coverage r)
           (exhausted r) r.rr_max_depth);
      (match r.rr_violation with
      | None -> Buffer.add_string b "null"
      | Some cx ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"class\":\"%s\",\"detail\":\"%s\",\"journal\":\"%s\",\"full\":\"%s\",\"orig_len\":%d,\"found_after\":%d,\"shrink_runs\":%d}"
               (esc cx.cx_class) (esc cx.cx_detail) (esc cx.cx_journal) (esc cx.cx_full)
               cx.cx_orig_len cx.cx_found_after cx.cx_shrink_runs));
      Buffer.add_char b '}')
    rs;
  Buffer.add_string b
    (Printf.sprintf "],\"ok\":%b}"
       (List.for_all (fun r -> r.rr_weakened || r.rr_violation = None) rs));
  Buffer.contents b
