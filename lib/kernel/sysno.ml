type t =
  | Read | Write | Open | Close | Stat | Fstat | Lstat | Poll | Lseek
  | Mmap | Mprotect | Munmap | Brk | Rt_sigaction | Rt_sigprocmask | Ioctl
  | Pread64 | Pwrite64 | Readv | Writev | Access | Pipe | Select
  | Sched_yield | Dup | Dup2 | Nanosleep | Getpid | Sendfile
  | Socket | Connect | Accept | Sendto | Recvfrom | Sendmsg | Recvmsg
  | Shutdown | Bind | Listen | Getsockname | Getpeername | Socketpair
  | Setsockopt | Getsockopt | Clone | Fork | Vfork | Execve | Exit
  | Wait4 | Kill | Uname | Fcntl | Fsync | Truncate | Ftruncate
  | Getdents | Getcwd | Chdir | Rename | Mkdir | Rmdir | Creat | Link
  | Unlink | Symlink | Readlink | Chmod | Fchmod | Chown | Umask
  | Gettimeofday | Getuid | Getgid | Setuid | Setgid
  | Geteuid | Getegid | Getppid | Setreuid | Setresuid | Mknod | Statfs
  | Futex | Clock_gettime | Exit_group | Openat | Mkdirat
  | Mknodat | Unlinkat | Renameat | Splice | Accept4 | Dup3 | Pipe2
  | Getrandom

let table =
  [
    (Read, 0, "read"); (Write, 1, "write"); (Open, 2, "open"); (Close, 3, "close");
    (Stat, 4, "stat"); (Fstat, 5, "fstat"); (Lstat, 6, "lstat"); (Poll, 7, "poll");
    (Lseek, 8, "lseek"); (Mmap, 9, "mmap"); (Mprotect, 10, "mprotect"); (Munmap, 11, "munmap");
    (Brk, 12, "brk"); (Rt_sigaction, 13, "rt_sigaction"); (Rt_sigprocmask, 14, "rt_sigprocmask");
    (Ioctl, 16, "ioctl"); (Pread64, 17, "pread64"); (Pwrite64, 18, "pwrite64");
    (Readv, 19, "readv"); (Writev, 20, "writev"); (Access, 21, "access"); (Pipe, 22, "pipe");
    (Select, 23, "select"); (Sched_yield, 24, "sched_yield");
    (Dup, 32, "dup"); (Dup2, 33, "dup2"); (Nanosleep, 35, "nanosleep"); (Getpid, 39, "getpid");
    (Sendfile, 40, "sendfile"); (Socket, 41, "socket"); (Connect, 42, "connect");
    (Accept, 43, "accept"); (Sendto, 44, "sendto"); (Recvfrom, 45, "recvfrom");
    (Sendmsg, 46, "sendmsg"); (Recvmsg, 47, "recvmsg"); (Shutdown, 48, "shutdown");
    (Bind, 49, "bind"); (Listen, 50, "listen"); (Getsockname, 51, "getsockname");
    (Getpeername, 52, "getpeername"); (Socketpair, 53, "socketpair");
    (Setsockopt, 54, "setsockopt"); (Getsockopt, 55, "getsockopt"); (Clone, 56, "clone");
    (Fork, 57, "fork"); (Vfork, 58, "vfork"); (Execve, 59, "execve"); (Exit, 60, "exit");
    (Wait4, 61, "wait4"); (Kill, 62, "kill"); (Uname, 63, "uname"); (Fcntl, 72, "fcntl");
    (Fsync, 74, "fsync"); (Truncate, 76, "truncate");
    (Ftruncate, 77, "ftruncate"); (Getdents, 78, "getdents"); (Getcwd, 79, "getcwd");
    (Chdir, 80, "chdir"); (Rename, 82, "rename"); (Mkdir, 83, "mkdir"); (Rmdir, 84, "rmdir");
    (Creat, 85, "creat"); (Link, 86, "link"); (Unlink, 87, "unlink"); (Symlink, 88, "symlink");
    (Readlink, 89, "readlink"); (Chmod, 90, "chmod"); (Fchmod, 91, "fchmod");
    (Chown, 92, "chown"); (Umask, 95, "umask"); (Gettimeofday, 96, "gettimeofday");
    (Getuid, 102, "getuid"); (Getgid, 104, "getgid");
    (Setuid, 105, "setuid"); (Setgid, 106, "setgid"); (Geteuid, 107, "geteuid");
    (Getegid, 108, "getegid"); (Getppid, 110, "getppid"); (Setreuid, 113, "setreuid");
    (Setresuid, 117, "setresuid"); (Mknod, 133, "mknod"); (Statfs, 137, "statfs");
    (Futex, 202, "futex"); (Clock_gettime, 228, "clock_gettime");
    (Exit_group, 231, "exit_group"); (Openat, 257, "openat"); (Mkdirat, 258, "mkdirat");
    (Mknodat, 259, "mknodat"); (Unlinkat, 263, "unlinkat"); (Renameat, 264, "renameat");
    (Splice, 275, "splice"); (Accept4, 288, "accept4"); (Dup3, 292, "dup3");
    (Pipe2, 293, "pipe2"); (Getrandom, 318, "getrandom");
  ]

let all = List.map (fun (t, _, _) -> t) table

let count = List.length all

let by_call = Hashtbl.create 128
let () = List.iter (fun ((t, _, _) as e) -> Hashtbl.replace by_call t e) table

let number t =
  let _, n, _ = Hashtbl.find by_call t in
  n

let to_string t =
  let _, _, s = Hashtbl.find by_call t in
  s

let of_string s =
  List.find_opt (fun (_, _, n) -> n = s) table |> Option.map (fun (t, _, _) -> t)

(* The constructors are declared in [table] order, which is ascending
   syscall number, so the constructors' own order is numeric order. *)
let compare (a : t) b = Stdlib.compare a b
let equal (a : t) b = a = b
let hash t = number t

let audit_default_ruleset =
  [
    Read; Readv; Write; Writev; Sendto; Recvfrom; Sendmsg; Recvmsg; Mmap; Mprotect; Link; Symlink;
    Clone; Fork; Vfork; Execve; Open; Close; Creat; Openat; Mknodat; Mknod; Dup; Dup2; Dup3; Bind;
    Accept; Accept4; Connect; Rename; Setuid; Setreuid; Setresuid; Chmod; Fchmod; Pipe; Pipe2;
    Truncate; Ftruncate; Sendfile; Unlink; Unlinkat; Socketpair; Splice;
  ]
