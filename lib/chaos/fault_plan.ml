(* Deterministic seed-driven fault plan.  Everything here is immediate
   ints — the PRNG is a 63-bit xorshift over a mutable int field, and
   zero-probability sites short-circuit before touching it — so an
   armed plan whose sites are all disarmed costs the hot paths exactly
   one load + compare and zero allocation. *)

type site =
  | Relay_drop
  | Relay_dup
  | Relay_reorder
  | Relay_refuse
  | Vmgexit_delay
  | Vmgexit_refuse
  | Spurious_exit
  | Rmpadjust_fail
  | Pvalidate_fail
  | Spurious_npf
  | Ghcb_corrupt
  | Shared_bitflip
  | Ring_slot_corrupt
  | Pulse_export_tamper

let all_sites =
  [ Relay_drop; Relay_dup; Relay_reorder; Relay_refuse; Vmgexit_delay; Vmgexit_refuse;
    Spurious_exit; Rmpadjust_fail; Pvalidate_fail; Spurious_npf; Ghcb_corrupt; Shared_bitflip;
    Ring_slot_corrupt; Pulse_export_tamper ]

let nsites = 14

let site_index = function
  | Relay_drop -> 0
  | Relay_dup -> 1
  | Relay_reorder -> 2
  | Relay_refuse -> 3
  | Vmgexit_delay -> 4
  | Vmgexit_refuse -> 5
  | Spurious_exit -> 6
  | Rmpadjust_fail -> 7
  | Pvalidate_fail -> 8
  | Spurious_npf -> 9
  | Ghcb_corrupt -> 10
  | Shared_bitflip -> 11
  | Ring_slot_corrupt -> 12
  | Pulse_export_tamper -> 13

let site_of_index = function
  | 0 -> Relay_drop
  | 1 -> Relay_dup
  | 2 -> Relay_reorder
  | 3 -> Relay_refuse
  | 4 -> Vmgexit_delay
  | 5 -> Vmgexit_refuse
  | 6 -> Spurious_exit
  | 7 -> Rmpadjust_fail
  | 8 -> Pvalidate_fail
  | 9 -> Spurious_npf
  | 10 -> Ghcb_corrupt
  | 11 -> Shared_bitflip
  | 12 -> Ring_slot_corrupt
  | 13 -> Pulse_export_tamper
  | i -> invalid_arg (Printf.sprintf "Fault_plan.site_of_index %d" i)

let site_name = function
  | Relay_drop -> "relay_drop"
  | Relay_dup -> "relay_dup"
  | Relay_reorder -> "relay_reorder"
  | Relay_refuse -> "relay_refuse"
  | Vmgexit_delay -> "vmgexit_delay"
  | Vmgexit_refuse -> "vmgexit_refuse"
  | Spurious_exit -> "spurious_exit"
  | Rmpadjust_fail -> "rmpadjust_fail"
  | Pvalidate_fail -> "pvalidate_fail"
  | Spurious_npf -> "spurious_npf"
  | Ghcb_corrupt -> "ghcb_corrupt"
  | Shared_bitflip -> "shared_bitflip"
  | Ring_slot_corrupt -> "ring_slot_corrupt"
  | Pulse_export_tamper -> "pulse_export_tamper"

let site_of_name n = List.find_opt (fun s -> site_name s = n) all_sites

(* Probabilities are stored as integer thresholds in [0, prob_one] so
   a fire check is "draw 16 bits, compare" with no float traffic. *)
let prob_one = 65536

type t = {
  seed : int;
  mutable state : int;  (* xorshift state, never 0 *)
  prob : int array;     (* per-site threshold, 0 = disarmed *)
  max_hits : int array; (* -1 = unlimited *)
  skip : int array;     (* eligible draws to ignore before the first hit *)
  hits : int array;
  draws_a : int array;
  mutable nsteps : int;
  max_steps : int;
  journal_cap : int;
  mutable journal_len : int;
  mutable journal_rev : (int * int) list;  (* (step, site_index), newest first *)
}

let create ?(max_steps = 1_000_000_000) ?(journal_cap = 65536) ~seed () =
  let mixed = (seed * 0x9E3779B1) lxor (seed lsr 16) lxor 0x6A09E667 in
  {
    seed;
    (* [lor 1] is load-bearing, not belt-and-braces: xorshift fixes 0,
       and seeds solving [mixed land max_int = 0] exist (e.g.
       0x396b1b8a8b9b10bc) — without it the armed plan would silently
       never fire.  Covered by the adversarial-seed regression in
       t_chaos.ml; do not "simplify" away. *)
    state = (mixed land max_int) lor 1;
    prob = Array.make nsites 0;
    max_hits = Array.make nsites (-1);
    skip = Array.make nsites 0;
    hits = Array.make nsites 0;
    draws_a = Array.make nsites 0;
    nsteps = 0;
    max_steps;
    journal_cap;
    journal_len = 0;
    journal_rev = [];
  }

let seed t = t.seed

let set_site t site ?(max_hits = -1) ?(skip = 0) ~prob () =
  let i = site_index site in
  let p = if prob <= 0.0 then 0 else if prob >= 1.0 then prob_one else
      int_of_float (prob *. float_of_int prob_one) in
  (* a tiny nonzero prob must stay armed *)
  t.prob.(i) <- (if prob > 0.0 && p = 0 then 1 else p);
  t.max_hits.(i) <- max_hits;
  t.skip.(i) <- skip

(* 63-bit xorshift; immediate-int arithmetic only *)
let next t =
  let x = t.state in
  let x = x lxor ((x lsl 13) land max_int) in
  let x = x lxor (x lsr 7) in
  let x = x lxor ((x lsl 17) land max_int) in
  t.state <- x;
  x

let draw t n = if n <= 0 then 0 else next t mod n

let site_enabled t site = Array.unsafe_get t.prob (site_index site) <> 0

let fire t site =
  let i = site_index site in
  let p = Array.unsafe_get t.prob i in
  if p = 0 then false
  else begin
    let d = t.draws_a.(i) + 1 in
    t.draws_a.(i) <- d;
    if d <= t.skip.(i) then false
    else if t.max_hits.(i) >= 0 && t.hits.(i) >= t.max_hits.(i) then false
    else if next t land 0xFFFF < p then begin
      t.hits.(i) <- t.hits.(i) + 1;
      if t.journal_len < t.journal_cap then begin
        t.journal_rev <- (t.nsteps, i) :: t.journal_rev;
        t.journal_len <- t.journal_len + 1
      end;
      true
    end
    else false
  end

let step t =
  t.nsteps <- t.nsteps + 1;
  t.nsteps <= t.max_steps

let steps t = t.nsteps
let hits t site = t.hits.(site_index site)
let draws t site = t.draws_a.(site_index site)
let total_hits t = Array.fold_left ( + ) 0 t.hits

let journal t =
  List.rev_map (fun (step, i) -> (step, site_of_index i)) t.journal_rev

let journal_equal a b =
  a.journal_rev = b.journal_rev && a.hits = b.hits
