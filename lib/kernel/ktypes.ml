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

let errno_to_string = function
  | ENOENT -> "ENOENT"
  | EBADF -> "EBADF"
  | EACCES -> "EACCES"
  | EEXIST -> "EEXIST"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | EINVAL -> "EINVAL"
  | ENFILE -> "ENFILE"
  | ENOSPC -> "ENOSPC"
  | ESPIPE -> "ESPIPE"
  | EPIPE -> "EPIPE"
  | EAGAIN -> "EAGAIN"
  | ENOTCONN -> "ENOTCONN"
  | EADDRINUSE -> "EADDRINUSE"
  | ECONNREFUSED -> "ECONNREFUSED"
  | ENOMEM -> "ENOMEM"
  | ENOSYS -> "ENOSYS"
  | EPERM -> "EPERM"
  | EFAULT -> "EFAULT"

let errno_code = function
  | EPERM -> 1
  | ENOENT -> 2
  | EBADF -> 9
  | EAGAIN -> 11
  | ENOMEM -> 12
  | EACCES -> 13
  | EFAULT -> 14
  | EEXIST -> 17
  | ENOTDIR -> 20
  | EISDIR -> 21
  | EINVAL -> 22
  | ENFILE -> 23
  | ESPIPE -> 29
  | EPIPE -> 32
  | EADDRINUSE -> 98
  | ECONNREFUSED -> 111
  | ENOTCONN -> 107
  | ENOSPC -> 28
  | ENOSYS -> 38

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_EXCL

type prot = { pr : bool; pw : bool; px : bool }

let prot_none = { pr = false; pw = false; px = false }
let prot_rw = { pr = true; pw = true; px = false }
let prot_r = { pr = true; pw = false; px = false }
let prot_rx = { pr = true; pw = false; px = true }

type whence = SEEK_SET | SEEK_CUR | SEEK_END

type stat = { st_size : int; st_is_dir : bool; st_mode : int; st_ino : int }

type arg = Int of int | Str of string | Buf of bytes | Ptr of int

type ret = RInt of int | RBuf of bytes | RStat of stat | RErr of errno

let ret_errno = function RErr e -> Some e | _ -> None

let ret_int = function
  | RInt n -> Ok n
  | RErr e -> Error e
  | RBuf _ | RStat _ -> Error EINVAL

let bprint_arg buf = function
  | Int n -> Printf.bprintf buf "%d" n
  | Str s -> Printf.bprintf buf "%S" s
  | Buf b -> Printf.bprintf buf "<buf:%d>" (Bytes.length b)
  | Ptr p -> Printf.bprintf buf "0x%x" p

let pp_arg fmt a =
  let buf = Buffer.create 16 in
  bprint_arg buf a;
  Format.pp_print_string fmt (Buffer.contents buf)

let pp_ret fmt = function
  | RInt n -> Format.fprintf fmt "%d" n
  | RBuf b -> Format.fprintf fmt "<buf:%d>" (Bytes.length b)
  | RStat s -> Format.fprintf fmt "<stat:%d>" s.st_size
  | RErr e -> Format.fprintf fmt "-%s" (errno_to_string e)
