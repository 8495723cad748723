(** Kernel-side enclave layout descriptor.

    The OS lays out an enclave region inside a process's address space
    (§6.2: copy the self-contained binary, relocate, set up stack and
    heap, allocate a user-mapped GHCB) and then hands this descriptor
    to VeilS-ENC for finalization.  Everything here is *untrusted*
    input to the service, which re-derives and verifies what it needs. *)

type page_kind = Code | Data | Stack | Heap

type page = { page_va : Sevsnp.Types.va; page_gpfn : Sevsnp.Types.gpfn; page_kind : page_kind }

type t = {
  enclave_id : int;
  owner_pid : int;
  base_va : Sevsnp.Types.va;
  entry_va : Sevsnp.Types.va;
  pages : page list;  (** sorted by [page_va] *)
  ghcb_gpfn : Sevsnp.Types.gpfn;  (** per-thread user-mapped GHCB *)
  ghcb_va : Sevsnp.Types.va;
  shared : (Sevsnp.Types.va * Sevsnp.Types.gpfn) list;
      (** the untrusted in-process ocall arena: accessible to both the
          enclave (Dom_ENC) and the application/OS (Dom_UNT) *)
  mutable measurement : bytes option;  (** set by VeilS-ENC *)
}

val prot_of_kind : page_kind -> Ktypes.prot
val kind_to_string : page_kind -> string

val npages : t -> int
val frames : t -> Sevsnp.Types.gpfn list
