(** Core architectural types of the simulated AMD SEV-SNP platform. *)

(** Virtual machine privilege levels.  Lower numbers are more
    privileged; only VMPL-0 may execute [PVALIDATE] and create VMSAs. *)
type vmpl = Vmpl0 | Vmpl1 | Vmpl2 | Vmpl3

(** x86 protection rings, reduced to the two the paper uses. *)
type cpl = Cpl0 | Cpl3

type gpa = int
(** Guest-physical address. *)

type gpfn = int
(** Guest-physical frame number ([gpa / page_size]). *)

type va = int
(** Guest-virtual address. *)

type access = Read | Write | Execute
(** Access kind for fault reporting; [Execute] is qualified by the CPL
    of the fetching context. *)

type npf_info = {
  fault_gpa : gpa;
  fault_vmpl : vmpl;
  fault_access : access;
  fault_reason : string;
}
(** Payload of a nested page fault (#NPF). *)

exception Npf of npf_info
(** Raised by the platform on an RMP / VMPL permission violation.
    Unhandled violations halt the CVM (see {!Platform.halt}). *)

exception Cvm_halted of string
(** Raised when software touches a platform that has already halted. *)

val page_size : int
val page_shift : int

val gpfn_of_gpa : gpa -> gpfn
val gpa_of_gpfn : gpfn -> gpa
val page_offset : gpa -> int

val vmpl_index : vmpl -> int

val vmpl_strictly_higher : vmpl -> vmpl -> bool
(** [vmpl_strictly_higher a b] is true when [a] is strictly more
    privileged than [b] (numerically smaller). *)

val pp_vmpl : Format.formatter -> vmpl -> unit
val pp_cpl : Format.formatter -> cpl -> unit
val pp_npf : Format.formatter -> npf_info -> unit

val equal_vmpl : vmpl -> vmpl -> bool
