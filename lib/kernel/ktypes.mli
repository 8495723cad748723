(** Common guest-kernel types: errors, flags, argument ABI. *)

type errno =
  | ENOENT
  | EBADF
  | EACCES
  | EEXIST
  | ENOTDIR
  | EISDIR
  | EINVAL
  | ENFILE
  | ENOSPC
  | ESPIPE
  | EPIPE
  | EAGAIN
  | ENOTCONN
  | EADDRINUSE
  | ECONNREFUSED
  | ENOMEM
  | ENOSYS
  | EPERM
  | EFAULT

val errno_to_string : errno -> string

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_EXCL

type prot = { pr : bool; pw : bool; px : bool }

val prot_rw : prot
val prot_r : prot
val prot_rx : prot

type whence = SEEK_SET | SEEK_CUR | SEEK_END

type stat = { st_size : int; st_is_dir : bool; st_mode : int; st_ino : int }

(** Uniform syscall argument value, the shape the audit layer records
    and the enclave SDK's sanitizer deep-copies. *)
type arg =
  | Int of int
  | Str of string
  | Buf of bytes
  | Ptr of int  (** raw user pointer (checked by IAGO sanitisation) *)

type ret = RInt of int | RBuf of bytes | RStat of stat | RErr of errno

val bprint_arg : Buffer.t -> arg -> unit
(** The argument as the audit log renders it: [%d], [%S], [<buf:LEN>]
    or [0x%x]. *)

val pp_arg : Format.formatter -> arg -> unit
val pp_ret : Format.formatter -> ret -> unit
