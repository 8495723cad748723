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

(* Both halves of an image: the marshalled state, and the contents of
   the shared chunks. *)
let check_image what expected got =
  Alcotest.(check bool) (what ^ " (state)") true (String.equal expected.E.im_state got.E.im_state);
  Alcotest.(check bool) (what ^ " (chunks)") true
    (Array.length expected.E.im_chunks = Array.length got.E.im_chunks
    && Array.for_all2 Bytes.equal expected.E.im_chunks got.E.im_chunks)

(* A fork must be the state a fresh boot gives: the image equals an
   independent boot's, and a fork re-marshals to the same image.  Boot
   reading module-level state that the image does not carry (say
   [Ltp.next_port] or [Libc.console_fd]), leaving uninitialized bytes
   in the graph, or a fork keeping its chunks' shared flags, breaks
   one or the other. *)
let test_fork_fidelity () =
  List.iter
    (fun sc ->
      let name = sc.E.sc_name in
      match E.snapshot sc with
      | Error o -> Alcotest.failf "%s: snapshot boot failed: %s" name (O.to_string o)
      | Ok image ->
          check_image (name ^ ": image = fresh boot") image (E.image (E.boot sc));
          check_image (name ^ ": fork re-marshals to the image") image (E.image (E.fork image)))
    (E.all_scenarios @ E.weakened_scenarios)

module PM = Sevsnp.Phys_mem
module T = Sevsnp.Types

(* Every guest-memory writer, run on a fork against a data page of a
   chunk the forks share, must copy the chunk first: the fork reads
   its own write back while a sibling fork and the image keep the
   original bytes.  No scenario's branches write a shared chunk, so
   this is the only guard of the copy path. *)
let test_fork_copy_on_write () =
  match E.snapshot (scenario "rmp-shootdown") with
  | Error o -> Alcotest.failf "snapshot boot failed: %s" (O.to_string o)
  | Ok image ->
      let mem (sys : Veil_core.Boot.veil_system) = sys.Veil_core.Boot.platform.Sevsnp.Platform.mem in
      let page m gpfn = PM.read m (T.gpa_of_gpfn gpfn) T.page_size in
      let zero = Bytes.make T.page_size '\000' in
      let original = Array.map Bytes.copy image.E.im_chunks in
      let sibling = E.fork image in
      (* a page with data: zeroing it in place would show *)
      let rec data_page gpfn =
        if gpfn >= PM.npages (mem sibling) then Alcotest.fail "image holds no data page"
        else if Bytes.equal (page (mem sibling) gpfn) zero then data_page (gpfn + 1)
        else gpfn
      in
      let gpfn = data_page 0 in
      let gpa = T.gpa_of_gpfn gpfn in
      let before = page (mem sibling) gpfn in
      let flipped = Bytes.map (fun c -> Char.chr (Char.code c lxor 0xFF)) before in
      let u64 = PM.read_u64 (mem sibling) (gpa + 64) lxor 0x5555_5555_5555 in
      let reads_back m off len = Bytes.equal (PM.read m (gpa + off) len) (Bytes.sub flipped off len) in
      let writers =
        [
          ("write", (fun m -> PM.write m gpa (Bytes.sub flipped 0 16)), fun m -> reads_back m 0 16);
          ("write_sub", (fun m -> PM.write_sub m (gpa + 32) flipped 32 8), fun m -> reads_back m 32 8);
          ( "write_byte",
            (fun m -> PM.write_byte m (gpa + 48) (Char.code (Bytes.get flipped 48))),
            fun m -> reads_back m 48 1 );
          ("write_u64", (fun m -> PM.write_u64 m (gpa + 64) u64), fun m -> PM.read_u64 m (gpa + 64) = u64);
          ( "flip_bit",
            (fun m -> PM.flip_bit m (gpa + 80) 3),
            fun m -> PM.read_byte m (gpa + 80) = Char.code (Bytes.get before 80) lxor 8 );
          ("zero_page", (fun m -> PM.zero_page m gpfn), fun m -> Bytes.equal (page m gpfn) zero);
        ]
      in
      List.iter
        (fun (name, write, wrote) ->
          let fork = E.fork image in
          write (mem fork);
          Alcotest.(check bool) (name ^ ": the fork reads its write") true (wrote (mem fork));
          Alcotest.(check bool) (name ^ ": a sibling fork keeps the original") true
            (Bytes.equal (page (mem sibling) gpfn) before);
          Alcotest.(check bool) (name ^ ": the image's chunks are untouched") true
            (Array.for_all2 Bytes.equal original image.E.im_chunks))
        writers;
      check_image "a third fork re-marshals to the image" image (E.image (E.fork image))

(* Unmarshalled words do not pace OCaml 5.1's major GC: without the
   slice each fork runs, 300 rmp-shootdown branches grow the heap by
   ~13 MB (~2 MB with it; ~49 MB when forks also unmarshalled the
   guest memory). *)
let test_fork_gc_pacing () =
  Gc.compact ();
  let before = (Gc.quick_stat ()).Gc.heap_words in
  let r = E.explore ~config:{ E.default_config with E.cf_budget = 300 } (scenario "rmp-shootdown") in
  Alcotest.(check int) "300 branches ran" 300 r.E.rr_runs;
  let grown_mb = ((Gc.quick_stat ()).Gc.heap_words - before) * (Sys.word_size / 8) / 1_048_576 in
  if grown_mb >= 8 then Alcotest.failf "heap grew %d MB over 300 forks (bound 8 MB)" grown_mb

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
    ("forks copy shared memory on write", `Quick, test_fork_copy_on_write);
    ("forks pace the major GC", `Quick, test_fork_gc_pacing);
    ("checked-in journals replay byte-for-byte", `Quick, test_checked_in_journals_replay);
    ("artifact parser rejects garbage", `Quick, test_artifact_parse_rejects_garbage);
  ]
