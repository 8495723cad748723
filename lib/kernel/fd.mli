(** Open file descriptions.

    An [Fd.t] is the kernel's open-file-description object; a process
    fd table maps small integers to these, and [dup] aliases share the
    same description (and hence file position), as on Linux. *)

type pipe = { pq : Bytequeue.t; mutable readers : int; mutable writers : int }

type kind =
  | File of file_state
  | Sock of Net.endpoint
  | Pipe_r of pipe
  | Pipe_w of pipe
  | Veil_dev  (** the /dev/veil enclave control node (§7's kernel module) *)

and file_state = {
  path : string;
  mutable pos : int;
  readable : bool;
  writable : bool;
  append : bool;
}

type t = { kind : kind }

val mk_file : path:string -> readable:bool -> writable:bool -> append:bool -> t
val mk_sock : Net.endpoint -> t
val mk_pipe : unit -> t * t
(** (read end, write end) sharing one byte queue. *)

val mk_veil_dev : unit -> t
