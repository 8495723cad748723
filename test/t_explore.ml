(* Veil-Explore tests (ISSUE 9): schedule-tree enumeration over the
   monitor protocols, budget bounding, and the detect -> minimize ->
   replay counterexample pipeline on the test-only weakened guard. *)

module E = Explore
module O = Chaos_outcome

let quick = { E.default_config with E.cf_budget = 48 }

let scenario name =
  match E.find_scenario name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s missing" name

let test_clean_scenario_exhausts () =
  let r = E.explore ~config:{ E.default_config with E.cf_budget = 64 } (scenario "ap-race") in
  Alcotest.(check bool) "no violation" true (r.E.rr_violation = None);
  Alcotest.(check bool) "schedule tree exhausted" true (E.exhausted r);
  Alcotest.(check bool) "nontrivial tree" true (r.E.rr_runs > 10);
  Alcotest.(check (float 0.001)) "full frontier coverage" 1.0 (E.frontier_coverage r)

let test_budget_bound_reported () =
  (* the 3-VCPU scenario does not fit in 40 branches: the open frontier
     must be reported, never silently dropped *)
  let r = E.explore ~config:{ E.default_config with E.cf_budget = 40 } (scenario "rmp-shootdown") in
  Alcotest.(check bool) "no violation" true (r.E.rr_violation = None);
  Alcotest.(check bool) "budget-bounded, not exhausted" false (E.exhausted r);
  Alcotest.(check bool) "deferred alternatives counted" true (r.E.rr_deferred > 0);
  Alcotest.(check bool) "coverage below 1" true (E.frontier_coverage r < 1.0);
  Alcotest.(check bool) "runs within budget" true (r.E.rr_runs <= 40)

let test_probe_deterministic () =
  let sc = scenario "oscall-replay" in
  let o1, j1, d1 = E.probe sc ~prefix:"01" in
  let o2, j2, d2 = E.probe sc ~prefix:"01" in
  Alcotest.(check string) "same prefix, same schedule" j1 j2;
  Alcotest.(check string) "same prefix, same outcome" (O.to_string o1) (O.to_string o2);
  Alcotest.(check bool) "prefix fits" false (d1 || d2);
  Alcotest.(check bool) "clean branch passes" true (O.ok o1);
  let _, _, d = E.probe sc ~prefix:"9" in
  Alcotest.(check bool) "impossible prefix diverges" true d

let test_weakened_detect_minimize_replay () =
  let sc = scenario "weakened-replay" in
  let r = E.explore ~config:quick sc in
  match r.E.rr_violation with
  | None -> Alcotest.fail "weakened replay guard not detected"
  | Some cx ->
      Alcotest.(check string) "silent corruption class" "corrupt" cx.E.cx_class;
      Alcotest.(check bool) "journal not grown by minimization" true
        (String.length cx.E.cx_journal <= cx.E.cx_orig_len);
      (* pinned from the reboot-per-branch explorer *)
      Alcotest.(check (list int)) "found after / shrink runs" [ 3; 7 ]
        [ cx.E.cx_found_after; cx.E.cx_shrink_runs ];
      Alcotest.(check string) "minimized journal" "11" cx.E.cx_journal;
      Alcotest.(check string) "confirming full journal" "110000" cx.E.cx_full;
      (* the default schedule passes: the bug is genuinely
         schedule-dependent, not a plain functional failure *)
      let o0, _, _ = E.probe sc ~prefix:"" in
      Alcotest.(check bool) "default schedule passes" true (O.ok o0);
      (* and the one-line artifact round-trips through parse + replay *)
      let line = E.artifact_of_counterexample cx in
      (match E.parse_artifact line with
      | Error e -> Alcotest.fail e
      | Ok af -> (
          Alcotest.(check string) "artifact names the scenario" "weakened-replay"
            af.E.af_scenario;
          match E.replay af with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "minimized journal did not replay: %s" e))

(* Reports of the reboot-per-branch explorer at budget 300, pinned as
   the oracle for snapshot-fork exploration: (runs, branch points,
   pruned, deferred, max depth). *)
let test_reports_match_reboot_oracle () =
  let config = { E.default_config with E.cf_budget = 300 } in
  List.iter
    (fun (name, expected) ->
      let r = E.explore ~config (scenario name) in
      Alcotest.(check bool) (name ^ ": no violation") true (r.E.rr_violation = None);
      Alcotest.(check (list int)) name expected
        [ r.E.rr_runs; r.E.rr_branch_points; r.E.rr_pruned; r.E.rr_deferred; r.E.rr_max_depth ])
    [
      ("ap-race", [ 35; 34; 0; 0; 7 ]);
      ("oscall-replay", [ 126; 125; 0; 0; 9 ]);
      ("ring-race", [ 56; 55; 0; 0; 8 ]);
      ("rmp-shootdown", [ 300; 329; 39; 51; 12 ]);
    ]

(* A fork must be the state a fresh boot gives: the image equals an
   independent boot's, and a fork re-marshals to the same bytes.  Boot
   reading module-level state that the image does not carry (say
   [Ltp.next_port] or [Libc.console_fd]), or leaving uninitialized
   bytes in the graph, breaks one or the other. *)
let test_fork_fidelity () =
  let marshal sys = Marshal.to_string sys [ Marshal.Closures ] in
  List.iter
    (fun sc ->
      let name = sc.E.sc_name in
      match E.snapshot sc with
      | Error o -> Alcotest.failf "%s: snapshot boot failed: %s" name (O.to_string o)
      | Ok image ->
          Alcotest.(check bool) (name ^ ": image = fresh boot") true
            (String.equal image (marshal (E.boot sc)));
          Alcotest.(check bool) (name ^ ": fork re-marshals to the image") true
            (String.equal image (marshal (E.fork image))))
    (E.all_scenarios @ E.weakened_scenarios)

(* Unmarshalled words do not pace OCaml 5.1's major GC: without the
   slice each fork runs, 300 rmp-shootdown branches grew the heap by
   ~49 MB (~1 MB with it). *)
let test_fork_gc_pacing () =
  Gc.compact ();
  let before = (Gc.quick_stat ()).Gc.heap_words in
  let r = E.explore ~config:{ E.default_config with E.cf_budget = 300 } (scenario "rmp-shootdown") in
  Alcotest.(check int) "300 branches ran" 300 r.E.rr_runs;
  let grown_mb = ((Gc.quick_stat ()).Gc.heap_words - before) * (Sys.word_size / 8) / 1_048_576 in
  if grown_mb >= 16 then Alcotest.failf "heap grew %d MB over 300 forks (bound 16 MB)" grown_mb

let test_checked_in_journals_replay () =
  let dir = "journals" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".journal")
    |> List.sort compare
  in
  Alcotest.(check bool) "at least one checked-in journal" true (files <> []);
  List.iter
    (fun f ->
      let ic = open_in (Filename.concat dir f) in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match E.parse_artifact line with
             | Error e -> Alcotest.failf "%s: bad artifact: %s" f e
             | Ok af -> (
                 match E.replay af with
                 | Ok _ -> ()
                 | Error e -> Alcotest.failf "%s did not replay: %s" f e)
         done
       with End_of_file -> ());
      close_in ic)
    files

let test_artifact_parse_rejects_garbage () =
  (match E.parse_artifact "hello world" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (match E.parse_artifact "veil-explore v1 class=corrupt" with
  | Ok _ -> Alcotest.fail "artifact without a scenario accepted"
  | Error _ -> ());
  match E.parse_artifact "veil-explore v1 scenario=no-such class=corrupt journal=0" with
  | Error e -> Alcotest.failf "well-formed line rejected: %s" e
  | Ok af -> (
      match E.replay af with
      | Ok _ -> Alcotest.fail "unknown scenario replayed"
      | Error _ -> ())

let suite =
  [
    ("clean scenario exhausts with no violation", `Quick, test_clean_scenario_exhausts);
    ("budget bound is reported as open frontier", `Quick, test_budget_bound_reported);
    ("prefix probe is deterministic", `Quick, test_probe_deterministic);
    ("weakened guard: detect, minimize, replay", `Quick, test_weakened_detect_minimize_replay);
    ("reports match the reboot-per-branch oracle", `Quick, test_reports_match_reboot_oracle);
    ("fork equals a fresh boot", `Quick, test_fork_fidelity);
    ("forks pace the major GC", `Quick, test_fork_gc_pacing);
    ("checked-in journals replay byte-for-byte", `Quick, test_checked_in_journals_replay);
    ("artifact parser rejects garbage", `Quick, test_artifact_parse_rejects_garbage);
  ]
