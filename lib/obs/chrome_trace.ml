(* Chrome trace_event JSON exporter: pid = vmpl, tid = vcpu, so each
   privilege level (VeilOS, VeilMon, enclaves, ...) is a trace
   "process" whose VCPUs are its "threads" — Perfetto then groups
   tracks by privilege domain, which is how the paper reads. *)

let phase_letter = function
  | Trace.Instant -> "i"
  | Trace.Begin -> "B"
  | Trace.End -> "E"
  | Trace.Complete -> "X"

(* Chrome wants microseconds when a clock rate is given; raw cycles
   otherwise. *)
let ts ~freq_hz cycles =
  match freq_hz with
  | None -> Json.Int cycles
  | Some hz -> Json.fixed 3 (float_of_int cycles *. 1e6 /. float_of_int hz)

let to_json ?freq_hz ?pulse t =
  (* Complete spans are recorded at their end but stamped with their
     start, so the emission order is not timestamp order; viewers want
     (and the tests assert) sorted output. *)
  let evs =
    List.stable_sort (fun a b -> compare a.Trace.ev_ts b.Trace.ev_ts) (Trace.events t)
  in
  let buf = Buffer.create 4096 in
  let first = ref true in
  let emit ev =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n  ";
    Json.to_buffer buf (Json.Obj ev)
  in
  let ts = ts ~freq_hz in
  let str s = Json.Str s and int n = Json.Int n in
  let opt cond field = if cond then [ field ] else [] in
  Buffer.add_string buf "{\"traceEvents\":[";
  (* Ring wraparound is not silent: say how many events this export is
     missing, as a global instant pinned at the window's start. *)
  if Trace.dropped t > 0 then begin
    let ts0 = match evs with ev :: _ -> ev.Trace.ev_ts | [] -> 0 in
    emit
      [
        ("name", str "trace_truncated"); ("cat", str "veil"); ("ph", str "i"); ("s", str "g");
        ("ts", ts ts0); ("pid", int 0); ("tid", int 0);
        ("args", Json.Obj [ ("dropped", int (Trace.dropped t)) ]);
      ]
  end;
  (* Metadata: name every VMPL process and VCPU thread we will use. *)
  let seen_pids = Hashtbl.create 8 and seen_tids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let pid = ev.Trace.ev_vmpl and tid = ev.Trace.ev_vcpu in
      if not (Hashtbl.mem seen_pids pid) then begin
        Hashtbl.replace seen_pids pid ();
        emit
          [
            ("name", str "process_name"); ("ph", str "M"); ("pid", int pid); ("tid", int 0);
            ("args", Json.Obj [ ("name", str (Printf.sprintf "vmpl%d" pid)) ]);
          ]
      end;
      if not (Hashtbl.mem seen_tids (pid, tid)) then begin
        Hashtbl.replace seen_tids (pid, tid) ();
        emit
          [
            ("name", str "thread_name"); ("ph", str "M"); ("pid", int pid); ("tid", int tid);
            ("args", Json.Obj [ ("name", str (Printf.sprintf "vcpu%d" tid)) ]);
          ]
      end)
    evs;
  List.iter
    (fun ev ->
      emit
        ([ ("name", str (Trace.kind_name ev.Trace.ev_kind)); ("cat", str "veil");
           ("ph", str (phase_letter ev.Trace.ev_phase)) ]
        @ opt (ev.Trace.ev_phase = Trace.Instant) ("s", str "t")
        @ [ ("ts", ts ev.Trace.ev_ts) ]
        @ opt (ev.Trace.ev_phase = Trace.Complete) ("dur", ts ev.Trace.ev_dur)
        @ [
            ("pid", int ev.Trace.ev_vmpl); ("tid", int ev.Trace.ev_vcpu);
            ( "args",
              Json.Obj
                (opt (ev.Trace.ev_bucket <> "") ("bucket", str ev.Trace.ev_bucket)
                @ opt (ev.Trace.ev_id <> 0) ("id", int ev.Trace.ev_id)
                @ [ ("arg", int ev.Trace.ev_arg); ("cycles", int ev.Trace.ev_ts) ]) );
          ]))
    evs;
  (* Flow events: one s -> t* -> f chain per causal id that hops
     between (vmpl, vcpu) lanes, so Perfetto draws the request's
     journey across privilege levels as arrows. *)
  let by_id : (int, Trace.event list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun ev ->
      if ev.Trace.ev_id <> 0 && ev.Trace.ev_phase <> Trace.End then
        Hashtbl.replace by_id ev.Trace.ev_id
          (ev :: Option.value ~default:[] (Hashtbl.find_opt by_id ev.Trace.ev_id)))
    evs;
  let flow_ids =
    List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) by_id [])
  in
  let flow_point ph (ev : Trace.event) =
    emit
      ([ ("name", str "req"); ("cat", str "veil.flow"); ("ph", str ph) ]
      @ opt (ph = "f") ("bp", str "e")
      @ [
          ("id", int ev.Trace.ev_id); ("ts", ts ev.Trace.ev_ts); ("pid", int ev.Trace.ev_vmpl);
          ("tid", int ev.Trace.ev_vcpu);
        ])
  in
  List.iter
    (fun id ->
      let points = List.rev (Hashtbl.find by_id id) in
      let lanes =
        List.sort_uniq compare
          (List.map (fun ev -> (ev.Trace.ev_vmpl, ev.Trace.ev_vcpu)) points)
      in
      match points with
      | first :: (_ :: _ as rest) when List.length lanes > 1 ->
          flow_point "s" first;
          let rec steps prev = function
            | [ last ] -> flow_point "f" last
            | ev :: rest ->
                if (ev.Trace.ev_vmpl, ev.Trace.ev_vcpu) <> prev then flow_point "t" ev;
                steps (ev.Trace.ev_vmpl, ev.Trace.ev_vcpu) rest
            | [] -> ()
          in
          steps (first.Trace.ev_vmpl, first.Trace.ev_vcpu) rest
      | _ -> ())
    flow_ids;
  (* Veil-Pulse counter tracks (ph "C"): one sample per retained
     interval, stamped at the interval's close, so Perfetto draws
     metric lanes (syscall rate, windowed p99, exit rate) under the
     span tracks.  Counters are per-pid; they ride on vmpl0. *)
  (match pulse with
  | Some pu when Pulse.retained pu > 0 ->
      let track name t1 v =
        emit
          [
            ("name", str name); ("cat", str "veil.pulse"); ("ph", str "C"); ("ts", ts t1);
            ("pid", int 0); ("args", Json.Obj [ ("value", int v) ]);
          ]
      in
      for i = Pulse.first_retained pu to Pulse.captured pu - 1 do
        match Pulse.bounds pu i with
        | None -> ()
        | Some (_, t1) ->
            let n, p99 =
              match Pulse.hist_window pu ~metric:"kernel.syscall_cycles" ~window:1 ~upto:i with
              | Some (b, n, _) -> (n, Pulse.wpercentile ~buckets:b 99.0)
              | None -> (0, 0)
            in
            let exits =
              match Pulse.counter_delta pu ~metric:"platform.vmgexit" i with
              | Some v -> v
              | None -> 0
            in
            track "pulse.syscalls" t1 n;
            track "pulse.p99_cycles" t1 p99;
            track "pulse.vmgexits" t1 exits
      done
  | _ -> ());
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf
