module K = Guest_kernel.Ktypes
module S = Guest_kernel.Sysno

type t = Runtime.t

let o_rdonly = 0
let o_wronly = 1
let o_rdwr = 2
let o_creat = 0x40
let o_trunc = 0x200
let o_append = 0x400

let int_ret = function
  | K.RInt n -> Ok n
  | K.RErr e -> Error e
  | _ -> Error K.EINVAL

let unit_ret r = Result.map (fun (_ : int) -> ()) (int_ret r)

let buf_ret = function
  | K.RBuf b -> Ok b
  | K.RErr e -> Error e
  | _ -> Error K.EINVAL

let open_ t path ~flags ~mode = int_ret (Runtime.ocall t S.Open [ K.Str path; K.Int flags; K.Int mode ])

let close t fd = unit_ret (Runtime.ocall t S.Close [ K.Int fd ])

let read t fd len = buf_ret (Runtime.ocall t S.Read [ K.Int fd; K.Int len ])

let write t fd data = int_ret (Runtime.ocall t S.Write [ K.Int fd; K.Buf data ])

let pread t fd ~len ~pos = buf_ret (Runtime.ocall t S.Pread64 [ K.Int fd; K.Int len; K.Int pos ])

let pwrite t fd data ~pos = int_ret (Runtime.ocall t S.Pwrite64 [ K.Int fd; K.Buf data; K.Int pos ])

let lseek t fd off whence =
  let w = match whence with K.SEEK_SET -> 0 | K.SEEK_CUR -> 1 | K.SEEK_END -> 2 in
  int_ret (Runtime.ocall t S.Lseek [ K.Int fd; K.Int off; K.Int w ])

let unlink t path = unit_ret (Runtime.ocall t S.Unlink [ K.Str path ])

let mmap t ~len ~prot =
  int_ret (Runtime.ocall t S.Mmap [ K.Int 0; K.Int len; K.Int prot; K.Int 0x22; K.Int (-1); K.Int 0 ])

let munmap t ~va ~len = unit_ret (Runtime.ocall t S.Munmap [ K.Int va; K.Int len ])

let socket t = int_ret (Runtime.ocall t S.Socket [ K.Int 2; K.Int 1; K.Int 0 ])

let connect t fd ~port = unit_ret (Runtime.ocall t S.Connect [ K.Int fd; K.Int port ])

let send t fd data = int_ret (Runtime.ocall t S.Sendto [ K.Int fd; K.Buf data ])

let recv t fd len = buf_ret (Runtime.ocall t S.Recvfrom [ K.Int fd; K.Int len ])

let printf t fmt =
  Printf.ksprintf
    (fun s ->
      if Runtime.console t < 0 then
        Result.iter (Runtime.set_console t) (open_ t "/dev/console" ~flags:o_wronly ~mode:0o644);
      let fd = Runtime.console t in
      if fd >= 0 then ignore (write t fd (Bytes.of_string s)))
    fmt

let getrandom t len = buf_ret (Runtime.ocall t S.Getrandom [ K.Int len ])

let getpid t = match Runtime.ocall t S.Getpid [] with K.RInt n -> n | _ -> -1

let malloc = Runtime.malloc
let free = Runtime.free
