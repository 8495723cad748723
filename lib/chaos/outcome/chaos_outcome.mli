(** Shared Passed/Degraded/Halted vs Watchdog/Corrupt/Crashed trial
    classifier — the "attacks blocked; correct, degraded, or halted —
    never silent corruption" contract, used by both the Veil-Chaos
    trial driver ([veilctl chaos]) and the Veil-Explore schedule-tree
    search ([veilctl explore]). *)

type t =
  | Passed
  | Degraded of string
  | Halted of string
  | Watchdog of string  (** detected hang (step-budget watchdog) *)
  | Corrupt of string  (** silently wrong guest-visible result *)
  | Crashed of string  (** unclassified exception escaped the simulator *)

val ok : t -> bool
(** [Passed], [Degraded] and [Halted] satisfy the invariant; the rest
    are violations. *)

val to_string : t -> string
(** Display form, including the detail message — byte-identical to the
    strings the pre-extraction chaos driver printed. *)

val class_name : t -> string
(** Stable lower-case class name without the detail
    ("passed" ... "crashed") — the token a replay artifact records. *)

val same_class : t -> t -> bool
(** Same constructor, details ignored — replay confirmation. *)

exception Fail of t
(** Raised by checks inside a classified run; {!classify} returns the
    carried outcome verbatim. *)

val fail : t -> 'a
val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises [Fail (Corrupt msg)]. *)

val classify : (unit -> t) -> t
(** Run a trial body and map escaping exceptions onto outcomes:
    [Fail] carries its own; watchdog-prefixed [Cvm_halted] is
    [Watchdog], other halts and #NPFs are [Halted]; a killed enclave
    is [Degraded]; [Stack_overflow] is a [Watchdog] (unbounded retry
    loop); anything else is [Crashed]. *)
