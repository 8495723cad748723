(** LTP-style system-call robustness suite (§7).

    Mirrors the paper's evaluation of the SDK against the Linux Test
    Project: for every one of the 96 calls, a battery of positive and
    negative cases runs *inside an enclave* through the redirection
    path.  A case passes when the call behaves per specification
    (correct result or the right errno); calls the single-threaded SDK
    does not support kill the enclave, failing all of their cases —
    exactly the prototype's behaviour. *)

type result = {
  lsys : Guest_kernel.Sysno.t;
  total : int;
  passed : int;
  killed : bool;  (** the enclave died on this call *)
}

type summary = {
  calls_total : int;
  calls_all_passed : int;  (** the paper reports 85/96 *)
  cases_total : int;
  cases_passed : int;
}

val run_all : Veil_core.Boot.veil_system -> result list
(** A fresh enclave per call, each running that call's battery, in
    {!Guest_kernel.Sysno.all} order. *)

val summarize : result list -> summary
