(** Veil-Explore (ISSUE 9): exhaustive interleaving search over the §5
    monitor protocols, with minimized counterexample journals.

    The deterministic SMP interleaver makes every scheduling decision a
    pure function of the schedule prefix, so the schedule {e tree} of a
    bounded scenario can be enumerated by re-running it: fork the
    scenario's booted {!snapshot}, replay a journal prefix
    byte-for-byte, take the first runnable VCPU beyond it, and record
    the runnable alternatives the run did not take.  Depth-first
    backtracking over those alternatives — with DPOR-style sleep-set
    pruning of commutative (invisible) steps and a configurable branch
    budget — visits the interleavings of four
    bounded scenarios, re-checking the chaos invariant classification
    plus cross-branch invariants (slog chain intact, IDCB sequence
    monotonicity, Dom_MON exclusivity, ring replay-cache consistency)
    on every branch.  Violations are shrunk to a minimal journal by
    greedy deletion with replay confirmation and emitted as a one-line
    artifact that [veilctl explore --replay] re-executes byte-for-byte.

    See DESIGN.md §14 for the branch-point model and the pruning
    soundness argument. *)

(** {1 Configuration} *)

type config = {
  cf_budget : int;  (** max branch executions per scenario (the DFS budget) *)
  cf_max_steps : int;  (** interleaver steps per branch before the schedule watchdog *)
  cf_watchdog : int;  (** fault-plan world-exit budget per branch *)
  cf_seed : int;  (** fault-plan seed (scenarios with chaos sites) *)
}

val default_config : config
(** budget 200, 4096 interleaver steps, 2M world exits, seed 11. *)

(** {1 Scenarios} *)

type scenario = {
  sc_name : string;
  sc_desc : string;
  sc_nvcpus : int;
  sc_weakened : bool;
      (** test-only weakened guard: a violation is the expected outcome *)
  sc_sites : (Chaos.Fault_plan.site * float * int option) list;
      (** (site, prob, max_hits) armed on every branch's fault plan *)
  sc_body : Veil_core.Boot.veil_system -> Veil_core.Smp.t -> unit -> unit;
      (** post-bring-up: registers the workers and returns the
          end-of-branch check (raises {!Chaos_outcome.Fail} on
          violation) *)
}

val all_scenarios : scenario list
(** The four bounded scenarios of ISSUE 9: [ap-race] (AP bring-up
    racing a domain switch), [rmp-shootdown] (concurrent RMPADJUST +
    TLB shootdown), [oscall-replay] (os_call replay under relay
    dup/reorder), [ring-race] (ring batch flush racing a synchronous
    os_call). *)

val weakened_scenarios : scenario list
(** TEST-ONLY scenarios with a deliberately weakened guard
    ([weakened-replay]: IDCB replay cache disabled), demonstrating the
    detect → minimize → replay pipeline end-to-end.  Excluded from
    [all_scenarios]; a violation here is the expected outcome. *)

val find_scenario : string -> scenario option

(** {1 Snapshot-fork}

    Each {!explore}, {!probe} and {!replay} call boots the scenario
    once and starts every branch — DFS alternatives and minimization
    retries alike — from a copy of that booted state. *)

val boot : ?config:config -> scenario -> Veil_core.Boot.veil_system
(** Boot plus AP bring-up under the scenario's fault plan (armed with
    [sc_sites], seeded from [cf_seed]): the state every branch starts
    from.  Raises whatever a failing boot raises. *)

type image = {
  im_state : string;
      (** the booted system marshalled with closures, its guest memory
          detached *)
  im_chunks : bytes array;
      (** that memory's {!Sevsnp.Phys_mem.detach}ed chunks, shared by
          every fork and never written *)
}
(** A snapshot image.  A fork unmarshals its own copy of the state and
    attaches the chunks read-only: a branch copies a chunk only when
    it first writes it, so forking costs the OCaml state alone. *)

val image : Veil_core.Boot.veil_system -> image
(** Detach the system's memory and marshal the rest.  The system is
    left without its memory: use {!fork} of the result instead. *)

val snapshot : ?config:config -> scenario -> (image, Chaos_outcome.t) result
(** The {!image} of {!boot}, or the classified outcome of a failed
    boot — which is then every branch's outcome. *)

val fork : image -> Veil_core.Boot.veil_system
(** An independent system from an image: its own state, the image's
    chunks shared copy-on-write.  Runs one major GC slice:
    unmarshalled words do not pace the major GC. *)

(** {1 Exploration} *)

type counterexample = {
  cx_scenario : string;
  cx_class : string;  (** stable class token, {!Chaos_outcome.class_name} *)
  cx_detail : string;  (** full outcome string of the confirming replay *)
  cx_journal : string;  (** minimized journal (may be [""]) *)
  cx_full : string;  (** full journal of the confirming replay *)
  cx_orig_len : int;  (** journal length before minimization *)
  cx_found_after : int;  (** branch executions until detection *)
  cx_shrink_runs : int;  (** branch executions spent minimizing *)
}

type report = {
  rr_scenario : string;
  rr_nvcpus : int;
  rr_weakened : bool;
  rr_runs : int;  (** branch executions, root + DFS + minimization *)
  rr_branch_points : int;  (** decisions with >= 2 runnable VCPUs *)
  rr_branched : int;  (** untaken alternatives actually executed *)
  rr_pruned : int;  (** alternatives skipped by sleep-set pruning *)
  rr_deferred : int;  (** alternatives beyond the budget (open frontier) *)
  rr_max_depth : int;
  rr_violation : counterexample option;
}

val exhausted : report -> bool
(** No alternative was left unexplored: the reported tree is the whole
    (pruning-reduced) schedule tree of the scenario. *)

val pruning_ratio : report -> float
(** pruned / (pruned + explored + deferred); 0 when no alternatives. *)

val frontier_coverage : report -> float
(** explored / (explored + deferred); 1 when exhausted. *)

val explore : ?config:config -> scenario -> report
(** Enumerate the scenario's schedule tree depth-first.  Stops at the
    first invariant violation, minimizes it, and reports it along with
    the search statistics accumulated so far. *)

val probe : ?config:config -> scenario -> prefix:string -> Chaos_outcome.t * string * bool
(** One prescribed-prefix branch execution: (outcome, full journal,
    diverged).  [diverged] means the prefix named a VCPU that was not
    runnable at that step.  Exposed for tests. *)

(** {1 Replay artifacts} *)

type artifact = {
  af_scenario : string;
  af_class : string;
  af_journal : string;
  af_full : string;  (** [""] skips the byte-for-byte journal check *)
}

val artifact_of_counterexample : counterexample -> string
(** One line: [veil-explore v1 scenario=... class=... journal=...
    full=... detail=...] — the replay artifact checked into [test/]
    and uploaded by CI. *)

val parse_artifact : string -> (artifact, string) result

val replay : ?config:config -> artifact -> (string, string) result
(** Re-execute the artifact's journal byte-for-byte: [Ok] with a human
    summary when the run reproduces the recorded class (and, when
    [af_full] is present, the exact full schedule); [Error] otherwise. *)

(** {1 Reports} *)

val report_json : report list -> Obs.Json.t
(** One JSON object: per-scenario branch counts, pruning ratio,
    frontier coverage, exhaustion flag and minimized counterexample
    (if any); ["ok"] is true when no non-weakened scenario violated. *)
