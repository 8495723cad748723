type _ Effect.t += Yield : unit Effect.t | Block : (unit -> bool) -> unit Effect.t

type status =
  | Runnable of (unit, unit) Effect.Deep.continuation
  | Blocked of (unit -> bool) * (unit, unit) Effect.Deep.continuation
  | Fresh of (unit -> unit)

type task = {
  name : string;
  mutable status : status option; (* None = finished *)
  mutable parked_at : int;  (* cycle stamp when suspended; -1 = not stamped *)
  mutable parked_blocked : bool;  (* Blocked (vs merely runnable-in-queue) *)
}

(* Wait-span observability (Veil-Scope): when armed *and* the tracer is
   enabled, the scheduler stamps each suspension with the stepping
   VCPU's cycle clock and, at resume, emits the parked interval as a
   [Trace.Wait] span — [Runqueue] for a runnable task that sat behind
   others, [Blocked_poll] for a [block_until] sleep.  Pure observation:
   no cycles are charged, and with the tracer off every path below is a
   single flag test (the bench alloc-check pins this). *)
type wait_obs = {
  wo_tracer : Obs.Trace.t;
  wo_now : unit -> int;  (* the stepping VCPU's cycle counter *)
  wo_vcpu : unit -> int;  (* the stepping VCPU's id *)
  wo_vmpl : int;  (* VMPL to stamp (the scheduling kernel's) *)
}

type t = {
  mutable tasks : task list;  (* every task in spawn order (legacy [run] path) *)
  queues : task list array;  (* per-VCPU runqueues, spawn order within a queue *)
  on_context_switch : unit -> unit;
  on_blocked_poll : unit -> unit;
  wait_obs : wait_obs option;
  mutable switches : int;
  mutable steals : int;
  mutable spawned : int;
}

exception Deadlock of string list

let create ?(nvcpus = 1) ?(on_context_switch = fun () -> ()) ?(on_blocked_poll = fun () -> ())
    ?wait_obs () =
  if nvcpus < 1 then invalid_arg "Sched.create: nvcpus must be >= 1";
  {
    tasks = [];
    queues = Array.make nvcpus [];
    on_context_switch;
    on_blocked_poll;
    wait_obs;
    switches = 0;
    steals = 0;
    spawned = 0;
  }

let nvcpus t = Array.length t.queues

let spawn ?vcpu t ~name body =
  let home =
    match vcpu with
    | Some v ->
        if v < 0 || v >= nvcpus t then invalid_arg "Sched.spawn: vcpu out of range";
        v
    | None -> t.spawned mod nvcpus t
  in
  let task = { name; status = Some (Fresh body); parked_at = -1; parked_blocked = false } in
  (match t.wait_obs with
  | Some wo when Obs.Trace.enabled wo.wo_tracer -> task.parked_at <- wo.wo_now ()
  | _ -> ());
  t.spawned <- t.spawned + 1;
  t.tasks <- t.tasks @ [ task ];
  t.queues.(home) <- t.queues.(home) @ [ task ]

let yield () = Effect.perform Yield

let block_until pred = if not (pred ()) then Effect.perform (Block pred)

let live t = List.length (List.filter (fun task -> task.status <> None) t.tasks)

let context_switches t = t.switches
let steals t = t.steals

(* Stamp a suspension with the stepping VCPU's clock (wait spans are
   emitted at the matching [unpark]). *)
let park t task ~blocked =
  match t.wait_obs with
  | Some wo when Obs.Trace.enabled wo.wo_tracer ->
      task.parked_at <- wo.wo_now ();
      task.parked_blocked <- blocked
  | _ -> ()

(* Close the parked interval as a Wait span.  A task stolen onto a
   VCPU whose clock lags its parking stamp yields a non-positive
   extent; such cross-clock slivers are dropped rather than clamped
   into fake waiting. *)
let unpark t task =
  if task.parked_at >= 0 then begin
    (match t.wait_obs with
    | Some wo when Obs.Trace.enabled wo.wo_tracer ->
        let dur = wo.wo_now () - task.parked_at in
        if dur > 0 then
          Obs.Trace.complete wo.wo_tracer ~bucket:"sched" ~vcpu:(wo.wo_vcpu ()) ~vmpl:wo.wo_vmpl
            ~ts:task.parked_at ~dur
            (if task.parked_blocked then Obs.Trace.Wait Obs.Trace.Blocked_poll
             else Obs.Trace.Wait Obs.Trace.Runqueue)
    | _ -> ());
    task.parked_at <- -1;
    task.parked_blocked <- false
  end

(* Run one step of a task; its effects suspend it back into [status]. *)
let step t task =
  let handler =
    {
      Effect.Deep.retc = (fun () -> task.status <- None);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  task.status <- Some (Runnable k);
                  park t task ~blocked:false)
          | Block pred ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  task.status <- Some (Blocked (pred, k));
                  park t task ~blocked:true)
          | _ -> None);
    }
  in
  match task.status with
  | None -> ()
  | Some (Fresh body) ->
      t.switches <- t.switches + 1;
      t.on_context_switch ();
      unpark t task;
      Effect.Deep.match_with body () handler
  | Some (Runnable k) ->
      (* the fiber keeps its original deep handler: resume bare — a
         fresh wrapper's retc would clobber the status the original
         handler records at the next suspension *)
      t.switches <- t.switches + 1;
      t.on_context_switch ();
      task.status <- None (* replaced by the handler if it suspends *);
      unpark t task;
      Effect.Deep.continue k ()
  | Some (Blocked (pred, k)) ->
      if pred () then begin
        t.switches <- t.switches + 1;
        t.on_context_switch ();
        task.status <- None;
        unpark t task;
        Effect.Deep.continue k ()
      end

(* A blocked coroutine's predicate is real work each time the
   scheduler considers it: a poll that comes back false costs
   [on_blocked_poll] (the pre-SMP scheduler re-polled for free, which
   let blocked-heavy schedules spin without accruing any cycles). *)
let runnable t task =
  match task.status with
  | Some (Fresh _) | Some (Runnable _) -> true
  | Some (Blocked (pred, _)) ->
      let ready = pred () in
      if not ready then t.on_blocked_poll ();
      ready
  | None -> false

let run t =
  let progress = ref true in
  while live t > 0 do
    if not !progress then
      raise
        (Deadlock
           (List.filter_map (fun task -> if task.status <> None then Some task.name else None) t.tasks));
    progress := false;
    List.iter
      (fun task ->
        if runnable t task then begin
          progress := true;
          step t task
        end)
      t.tasks
  done

(* --- per-VCPU stepping (Veil-SMP) --- *)

let find_runnable t q = List.find_opt (fun task -> runnable t task) q

let queue_live t vid = List.exists (fun task -> task.status <> None) t.queues.(vid)

let live_names t =
  List.filter_map (fun task -> if task.status <> None then Some task.name else None) t.tasks

let step_vcpu t vid =
  let n = nvcpus t in
  if vid < 0 || vid >= n then invalid_arg "Sched.step_vcpu: vcpu out of range";
  (* Rotate: the stepped task re-enters at the tail (if still live), so
     tasks sharing a queue round-robin instead of the head task
     monopolizing its VCPU; finished tasks fall out of the queue. *)
  let run_on task =
    t.queues.(vid) <- List.filter (fun x -> x != task) t.queues.(vid);
    step t task;
    if task.status <> None then t.queues.(vid) <- t.queues.(vid) @ [ task ]
  in
  match find_runnable t t.queues.(vid) with
  | Some task ->
      run_on task;
      true
  | None ->
      (* Work stealing: scan the other queues in deterministic order
         (vid+1, vid+2, ... mod n) and migrate the first runnable task
         onto this VCPU's queue before stepping it. *)
      let rec scan k =
        if k >= n then false
        else begin
          let q = (vid + k) mod n in
          match find_runnable t t.queues.(q) with
          | Some task ->
              t.queues.(q) <- List.filter (fun x -> x != task) t.queues.(q);
              t.steals <- t.steals + 1;
              run_on task;
              true
          | None -> scan (k + 1)
        end
      in
      scan 1
