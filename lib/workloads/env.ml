module K = Guest_kernel.Ktypes
module S = Guest_kernel.Sysno

type t = {
  sys : S.t -> K.arg list -> K.ret;
  compute : int -> unit;
  env_rng : Veil_crypto.Rng.t;
  env_rings : bool;
}

exception Sys_error of K.errno * string

let fail e ctx = raise (Sys_error (e, ctx))

let o_rdonly = 0
let o_wronly = 1
let o_rdwr = 2
let o_creat = 0x40
let o_trunc = 0x200
let o_append = 0x400

let int_ret ctx = function
  | K.RInt n -> n
  | K.RErr e -> fail e ctx
  | _ -> fail K.EINVAL ctx

let buf_ret ctx = function
  | K.RBuf b -> b
  | K.RErr e -> fail e ctx
  | _ -> fail K.EINVAL ctx

let unit_ret ctx r = ignore (int_ret ctx r)

let open_ t path ~flags ~mode = int_ret ("open " ^ path) (t.sys S.Open [ K.Str path; K.Int flags; K.Int mode ])

let close t fd = unit_ret "close" (t.sys S.Close [ K.Int fd ])

let read t fd len = buf_ret "read" (t.sys S.Read [ K.Int fd; K.Int len ])

let write t fd data = int_ret "write" (t.sys S.Write [ K.Int fd; K.Buf data ])

let pread t fd ~len ~pos = buf_ret "pread" (t.sys S.Pread64 [ K.Int fd; K.Int len; K.Int pos ])

let pwrite t fd data ~pos = int_ret "pwrite" (t.sys S.Pwrite64 [ K.Int fd; K.Buf data; K.Int pos ])

let fsync t fd = unit_ret "fsync" (t.sys S.Fsync [ K.Int fd ])

let unlink t path = unit_ret ("unlink " ^ path) (t.sys S.Unlink [ K.Str path ])

let rename t a b = unit_ret "rename" (t.sys S.Rename [ K.Str a; K.Str b ])

let mkdir t path = unit_ret ("mkdir " ^ path) (t.sys S.Mkdir [ K.Str path; K.Int 0o755 ])

let stat_size t path =
  match t.sys S.Stat [ K.Str path ] with
  | K.RStat s -> s.K.st_size
  | K.RErr e -> fail e ("stat " ^ path)
  | _ -> fail K.EINVAL "stat"

let file_exists t path = match t.sys S.Access [ K.Str path ] with K.RInt 0 -> true | _ -> false

let truncate t path len = unit_ret "truncate" (t.sys S.Truncate [ K.Str path; K.Int len ])

let socket t = int_ret "socket" (t.sys S.Socket [ K.Int 2; K.Int 1; K.Int 0 ])

let bind t fd ~port = unit_ret "bind" (t.sys S.Bind [ K.Int fd; K.Int port ])

let listen t fd ~backlog = unit_ret "listen" (t.sys S.Listen [ K.Int fd; K.Int backlog ])

let accept t fd =
  match t.sys S.Accept [ K.Int fd ] with
  | K.RInt n -> Some n
  | K.RErr K.EAGAIN -> None
  | K.RErr e -> fail e "accept"
  | _ -> fail K.EINVAL "accept"

let connect t fd ~port = unit_ret "connect" (t.sys S.Connect [ K.Int fd; K.Int port ])

let send t fd data = int_ret "send" (t.sys S.Sendto [ K.Int fd; K.Buf data ])

let recv t fd len =
  match t.sys S.Recvfrom [ K.Int fd; K.Int len ] with
  | K.RBuf b -> Some b
  | K.RErr K.EAGAIN -> None
  | K.RErr e -> fail e "recv"
  | _ -> fail K.EINVAL "recv"

let mmap_anon t ~len =
  int_ret "mmap" (t.sys S.Mmap [ K.Int 0; K.Int len; K.Int 3; K.Int 0x22; K.Int (-1); K.Int 0 ])

let munmap t ~va ~len = unit_ret "munmap" (t.sys S.Munmap [ K.Int va; K.Int len ])

let getrandom t len = buf_ret "getrandom" (t.sys S.Getrandom [ K.Int len ])

let getpid t = int_ret "getpid" (t.sys S.Getpid [])

let console t s =
  let fd = open_ t "/dev/console" ~flags:o_wronly ~mode:0o644 in
  ignore (write t fd (Bytes.of_string s));
  close t fd
