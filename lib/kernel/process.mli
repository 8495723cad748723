(** Guest processes. *)

type vma = {
  vma_start : Sevsnp.Types.va;
  mutable vma_npages : int;
  vma_file : string option;  (** backing path for file mappings *)
}

type t = {
  pid : int;
  ppid : int;
  mutable cwd : string;
  fds : (int, Fd.t) Hashtbl.t;
  mutable next_fd : int;
  mutable uid : int;
  mutable euid : int;
  mutable umask : int;
  pt_root : Sevsnp.Types.gpfn;  (** this process's page-table root *)
  mutable mmap_cursor : Sevsnp.Types.va;
  mutable brk_start : Sevsnp.Types.va;
  mutable brk : Sevsnp.Types.va;
  mutable vmas : vma list;
  mutable enclave : Enclave_desc.t option;
}

val create : pid:int -> ppid:int -> pt_root:Sevsnp.Types.gpfn -> t

val alloc_fd : t -> Fd.t -> int
val install_fd : t -> int -> Fd.t -> unit
val find_fd : t -> int -> (Fd.t, Ktypes.errno) result
val remove_fd : t -> int -> bool

val find_vma : t -> Sevsnp.Types.va -> vma option
val add_vma : t -> vma -> unit
val remove_vma : t -> Sevsnp.Types.va -> bool

val mmap_base : Sevsnp.Types.va
val enclave_base : Sevsnp.Types.va
(** Start of the enclave region inside the address space. *)
