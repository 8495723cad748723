type vma = {
  vma_start : Sevsnp.Types.va;
  mutable vma_npages : int;
  vma_file : string option;
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
  pt_root : Sevsnp.Types.gpfn;
  mutable mmap_cursor : Sevsnp.Types.va;
  mutable brk_start : Sevsnp.Types.va;
  mutable brk : Sevsnp.Types.va;
  mutable vmas : vma list;
  mutable enclave : Enclave_desc.t option;
}

(* 39-bit VA space (3-level tables): keep regions well apart. *)
let brk_base = 0x0010_00_0000
let mmap_base = 0x0100_00_0000
let enclave_base = 0x0800_00_0000

let create ~pid ~ppid ~pt_root =
  {
    pid;
    ppid;
    cwd = "/";
    fds = Hashtbl.create 16;
    next_fd = 3;
    uid = 0;
    euid = 0;
    umask = 0o022;
    pt_root;
    mmap_cursor = mmap_base;
    brk_start = brk_base;
    brk = brk_base;
    vmas = [];
    enclave = None;
  }

let alloc_fd t fd =
  let n = t.next_fd in
  t.next_fd <- n + 1;
  Hashtbl.replace t.fds n fd;
  n

let install_fd t n fd = Hashtbl.replace t.fds n fd

let find_fd t n =
  match Hashtbl.find_opt t.fds n with Some fd -> Ok fd | None -> Error Ktypes.EBADF

let remove_fd t n =
  let existed = Hashtbl.mem t.fds n in
  Hashtbl.remove t.fds n;
  existed

let find_vma t va =
  List.find_opt
    (fun v -> va >= v.vma_start && va < v.vma_start + (v.vma_npages * Sevsnp.Types.page_size))
    t.vmas

let add_vma t v = t.vmas <- v :: t.vmas

let remove_vma t va_start =
  let before = List.length t.vmas in
  t.vmas <- List.filter (fun v -> v.vma_start <> va_start) t.vmas;
  List.length t.vmas < before
