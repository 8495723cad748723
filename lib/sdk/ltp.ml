module S = Guest_kernel.Sysno
module K = Guest_kernel.Ktypes

type result = { lsys : S.t; total : int; passed : int; killed : bool }

type summary = {
  calls_total : int;
  calls_all_passed : int;
  cases_total : int;
  cases_passed : int;
}

type case = Runtime.t -> bool

let is_err = function K.RErr _ -> true | _ -> false
let is_int = function K.RInt _ -> true | _ -> false
let is_buf = function K.RBuf _ -> true | _ -> false
let int_of = function K.RInt n -> n | _ -> -1

let o rt sys args = Runtime.ocall rt sys args

(* Open a scratch file and return its fd. *)
let scratch rt name = int_of (o rt S.Open [ K.Str ("/tmp/ltp-" ^ name); K.Int 0x42; K.Int 0o644 ])

let sock_pair ~fresh_port rt =
  (* listener + connected client through the loopback stack *)
  let port = fresh_port () in
  let srv = int_of (o rt S.Socket [ K.Int 2; K.Int 1; K.Int 0 ]) in
  ignore (o rt S.Bind [ K.Int srv; K.Int port ]);
  ignore (o rt S.Listen [ K.Int srv; K.Int 4 ]);
  let cli = int_of (o rt S.Socket [ K.Int 2; K.Int 1; K.Int 0 ]) in
  ignore (o rt S.Connect [ K.Int cli; K.Int port ]);
  let conn = int_of (o rt S.Accept [ K.Int srv ]) in
  (cli, conn)

(* Positive (semantic) cases per call.  Each returns true on
   spec-conformant behaviour. *)
let positive ~fresh_port (sys : S.t) : case list =
  match sys with
  | S.Open ->
      [
        (fun rt -> int_of (o rt S.Open [ K.Str "/tmp/ltp-o"; K.Int 0x42; K.Int 0o644 ]) >= 3);
        (fun rt -> o rt S.Open [ K.Str "/tmp/ltp-absent"; K.Int 0; K.Int 0 ] = K.RErr K.ENOENT);
        (fun rt ->
          ignore (scratch rt "excl");
          o rt S.Open [ K.Str "/tmp/ltp-excl"; K.Int (0x40 lor 0x80); K.Int 0o644 ] = K.RErr K.EEXIST);
      ]
  | S.Openat -> [ (fun rt -> int_of (o rt S.Openat [ K.Int (-100); K.Str "/tmp/ltp-oat"; K.Int 0x42; K.Int 0o644 ]) >= 3) ]
  | S.Creat -> [ (fun rt -> int_of (o rt S.Creat [ K.Str "/tmp/ltp-c"; K.Int 0o644 ]) >= 3) ]
  | S.Close ->
      [
        (fun rt -> o rt S.Close [ K.Int (scratch rt "cl") ] = K.RInt 0);
        (fun rt -> o rt S.Close [ K.Int 9999 ] = K.RErr K.EBADF);
      ]
  | S.Read ->
      [
        (fun rt ->
          let fd = scratch rt "r" in
          ignore (o rt S.Write [ K.Int fd; K.Buf (Bytes.of_string "data") ]);
          ignore (o rt S.Lseek [ K.Int fd; K.Int 0; K.Int 0 ]);
          o rt S.Read [ K.Int fd; K.Int 4 ] = K.RBuf (Bytes.of_string "data"));
        (fun rt ->
          let fd = scratch rt "r0" in
          (* EOF returns an empty buffer *)
          o rt S.Read [ K.Int fd; K.Int 16 ] = K.RBuf Bytes.empty);
      ]
  | S.Write ->
      [
        (fun rt -> o rt S.Write [ K.Int (scratch rt "w"); K.Buf (Bytes.of_string "abc") ] = K.RInt 3);
        (fun rt -> is_err (o rt S.Write [ K.Int 9999; K.Buf Bytes.empty ]));
      ]
  | S.Pread64 ->
      [
        (fun rt ->
          let fd = scratch rt "pr" in
          ignore (o rt S.Write [ K.Int fd; K.Buf (Bytes.of_string "0123456789") ]);
          o rt S.Pread64 [ K.Int fd; K.Int 3; K.Int 4 ] = K.RBuf (Bytes.of_string "456"));
      ]
  | S.Pwrite64 ->
      [
        (fun rt ->
          let fd = scratch rt "pw" in
          o rt S.Pwrite64 [ K.Int fd; K.Buf (Bytes.of_string "xy"); K.Int 5 ] = K.RInt 2);
      ]
  | S.Readv ->
      [
        (fun rt ->
          let fd = scratch rt "rv" in
          ignore (o rt S.Write [ K.Int fd; K.Buf (Bytes.of_string "iov") ]);
          ignore (o rt S.Lseek [ K.Int fd; K.Int 0; K.Int 0 ]);
          is_buf (o rt S.Readv [ K.Int fd; K.Int 3 ]));
      ]
  | S.Writev -> [ (fun rt -> o rt S.Writev [ K.Int (scratch rt "wv"); K.Buf (Bytes.of_string "v") ] = K.RInt 1) ]
  | S.Lseek ->
      [
        (fun rt ->
          let fd = scratch rt "ls" in
          ignore (o rt S.Write [ K.Int fd; K.Buf (Bytes.of_string "abcdef") ]);
          o rt S.Lseek [ K.Int fd; K.Int 0; K.Int 2 ] = K.RInt 6);
        (fun rt -> is_err (o rt S.Lseek [ K.Int (scratch rt "ls2"); K.Int (-5); K.Int 0 ]));
      ]
  | S.Stat | S.Lstat ->
      [
        (fun rt ->
          ignore (scratch rt "st");
          match o rt sys [ K.Str "/tmp/ltp-st" ] with K.RStat _ -> true | _ -> false);
        (fun rt -> o rt sys [ K.Str "/absent" ] = K.RErr K.ENOENT);
      ]
  | S.Fstat -> [ (fun rt -> match o rt S.Fstat [ K.Int (scratch rt "fs") ] with K.RStat _ -> true | _ -> false) ]
  | S.Access ->
      [
        (fun rt ->
          ignore (scratch rt "ac");
          o rt S.Access [ K.Str "/tmp/ltp-ac" ] = K.RInt 0);
        (fun rt -> o rt S.Access [ K.Str "/absent" ] = K.RErr K.ENOENT);
      ]
  | S.Mmap ->
      [
        (fun rt -> int_of (o rt S.Mmap [ K.Int 0; K.Int 8192; K.Int 3; K.Int 0x22; K.Int (-1); K.Int 0 ]) > 0);
        (fun rt -> is_err (o rt S.Mmap [ K.Int 0; K.Int 0; K.Int 3; K.Int 0x22; K.Int (-1); K.Int 0 ]));
      ]
  | S.Munmap ->
      [
        (fun rt ->
          let va = int_of (o rt S.Mmap [ K.Int 0; K.Int 4096; K.Int 3; K.Int 0x22; K.Int (-1); K.Int 0 ]) in
          o rt S.Munmap [ K.Int va; K.Int 4096 ] = K.RInt 0);
        (fun rt -> is_err (o rt S.Munmap [ K.Int 0x123000; K.Int 4096 ]));
      ]
  | S.Mprotect ->
      [
        (fun rt ->
          let va = int_of (o rt S.Mmap [ K.Int 0; K.Int 4096; K.Int 3; K.Int 0x22; K.Int (-1); K.Int 0 ]) in
          o rt S.Mprotect [ K.Int va; K.Int 4096; K.Int 1 ] = K.RInt 0);
      ]
  | S.Brk ->
      [
        (fun rt ->
          let cur = int_of (o rt S.Brk [ K.Int 0 ]) in
          int_of (o rt S.Brk [ K.Int (cur + 4096) ]) = cur + 4096);
      ]
  | S.Socket -> [ (fun rt -> int_of (o rt S.Socket [ K.Int 2; K.Int 1; K.Int 0 ]) >= 3) ]
  | S.Bind ->
      [
        (fun rt ->
          let fd = int_of (o rt S.Socket [ K.Int 2; K.Int 1; K.Int 0 ]) in
          o rt S.Bind [ K.Int fd; K.Int (fresh_port ()) ] = K.RInt 0);
        (fun rt ->
          let port = fresh_port () in
          let a = int_of (o rt S.Socket [ K.Int 2; K.Int 1; K.Int 0 ]) in
          let b = int_of (o rt S.Socket [ K.Int 2; K.Int 1; K.Int 0 ]) in
          ignore (o rt S.Bind [ K.Int a; K.Int port ]);
          ignore (o rt S.Listen [ K.Int a; K.Int 1 ]);
          o rt S.Bind [ K.Int b; K.Int port ] = K.RErr K.EADDRINUSE);
      ]
  | S.Listen ->
      [
        (fun rt ->
          let fd = int_of (o rt S.Socket [ K.Int 2; K.Int 1; K.Int 0 ]) in
          ignore (o rt S.Bind [ K.Int fd; K.Int (fresh_port ()) ]);
          o rt S.Listen [ K.Int fd; K.Int 8 ] = K.RInt 0);
      ]
  | S.Connect ->
      [
        (fun rt ->
          let c, _ = sock_pair ~fresh_port rt in
          c >= 0);
        (fun rt ->
          let fd = int_of (o rt S.Socket [ K.Int 2; K.Int 1; K.Int 0 ]) in
          o rt S.Connect [ K.Int fd; K.Int 9999 ] = K.RErr K.ECONNREFUSED);
      ]
  | S.Accept | S.Accept4 ->
      [
        (fun rt ->
          let fd = int_of (o rt S.Socket [ K.Int 2; K.Int 1; K.Int 0 ]) in
          ignore (o rt S.Bind [ K.Int fd; K.Int (fresh_port ()) ]);
          ignore (o rt S.Listen [ K.Int fd; K.Int 2 ]);
          o rt sys [ K.Int fd ] = K.RErr K.EAGAIN);
      ]
  | S.Sendto | S.Sendmsg ->
      [
        (fun rt ->
          let cli, _conn = sock_pair ~fresh_port rt in
          o rt sys [ K.Int cli; K.Buf (Bytes.of_string "p") ] = K.RInt 1);
      ]
  | S.Recvfrom | S.Recvmsg ->
      [
        (fun rt ->
          let cli, conn = sock_pair ~fresh_port rt in
          ignore (o rt S.Sendto [ K.Int cli; K.Buf (Bytes.of_string "q") ]);
          o rt sys [ K.Int conn; K.Int 8 ] = K.RBuf (Bytes.of_string "q"));
      ]
  | S.Shutdown ->
      [
        (fun rt ->
          let cli, _ = sock_pair ~fresh_port rt in
          o rt S.Shutdown [ K.Int cli ] = K.RInt 0);
      ]
  | S.Getsockname | S.Getpeername ->
      [
        (fun rt ->
          let cli, _ = sock_pair ~fresh_port rt in
          is_int (o rt sys [ K.Int cli ]));
      ]
  | S.Setsockopt | S.Getsockopt ->
      [
        (fun rt ->
          let cli, _ = sock_pair ~fresh_port rt in
          is_int (o rt sys [ K.Int cli; K.Int 1; K.Int 1 ]));
      ]
  | S.Socketpair ->
      [
        (fun rt ->
          let pair = int_of (o rt S.Socketpair []) in
          let a = pair land 0xffff and b = pair lsr 16 in
          ignore (o rt S.Sendto [ K.Int a; K.Buf (Bytes.of_string "z") ]);
          o rt S.Recvfrom [ K.Int b; K.Int 4 ] = K.RBuf (Bytes.of_string "z"));
      ]
  | S.Pipe | S.Pipe2 ->
      [
        (fun rt ->
          let pair = int_of (o rt sys []) in
          let r = pair land 0xffff and w = pair lsr 16 in
          ignore (o rt S.Write [ K.Int w; K.Buf (Bytes.of_string "pp") ]);
          o rt S.Read [ K.Int r; K.Int 2 ] = K.RBuf (Bytes.of_string "pp"));
      ]
  | S.Dup | S.Dup2 | S.Dup3 ->
      [
        (fun rt ->
          let fd = scratch rt "dup" in
          let args = if sys = S.Dup then [ K.Int fd ] else [ K.Int fd; K.Int 20 ] in
          int_of (o rt sys args) >= 0);
      ]
  | S.Sendfile | S.Splice ->
      [
        (fun rt ->
          let src = scratch rt "sf-src" in
          ignore (o rt S.Write [ K.Int src; K.Buf (Bytes.of_string "bulk") ]);
          ignore (o rt S.Lseek [ K.Int src; K.Int 0; K.Int 0 ]);
          let dst = scratch rt "sf-dst" in
          o rt sys [ K.Int dst; K.Int src; K.Int 16 ] = K.RInt 4 || o rt sys [ K.Int src; K.Int dst; K.Int 16 ] = K.RInt 0);
      ]
  | S.Mkdir | S.Mkdirat ->
      [
        (fun rt ->
          let args = if sys = S.Mkdir then [ K.Str "/tmp/ltp-dir"; K.Int 0o755 ] else [ K.Int 0; K.Str "/tmp/ltp-dirat"; K.Int 0o755 ] in
          o rt sys args = K.RInt 0);
      ]
  | S.Rmdir ->
      [
        (fun rt ->
          ignore (o rt S.Mkdir [ K.Str "/tmp/ltp-rm"; K.Int 0o755 ]);
          o rt S.Rmdir [ K.Str "/tmp/ltp-rm" ] = K.RInt 0);
        (fun rt -> is_err (o rt S.Rmdir [ K.Str "/absent" ]));
      ]
  | S.Unlink | S.Unlinkat ->
      [
        (fun rt ->
          ignore (scratch rt "ul");
          let args = if sys = S.Unlink then [ K.Str "/tmp/ltp-ul" ] else [ K.Int 0; K.Str "/tmp/ltp-ul" ] in
          o rt sys args = K.RInt 0);
      ]
  | S.Rename | S.Renameat ->
      [
        (fun rt ->
          ignore (scratch rt "rn");
          o rt sys [ K.Str "/tmp/ltp-rn"; K.Str "/tmp/ltp-rn2" ] = K.RInt 0);
      ]
  | S.Link ->
      [
        (fun rt ->
          ignore (scratch rt "ln");
          o rt S.Link [ K.Str "/tmp/ltp-ln"; K.Str "/tmp/ltp-ln2" ] = K.RInt 0);
      ]
  | S.Symlink ->
      [ (fun rt -> o rt S.Symlink [ K.Str "/tmp/target"; K.Str "/tmp/ltp-sym" ] = K.RInt 0) ]
  | S.Readlink ->
      [
        (fun rt ->
          ignore (o rt S.Symlink [ K.Str "/tmp/t2"; K.Str "/tmp/ltp-rl" ]);
          o rt S.Readlink [ K.Str "/tmp/ltp-rl" ] = K.RBuf (Bytes.of_string "/tmp/t2"));
      ]
  | S.Truncate | S.Ftruncate ->
      [
        (fun rt ->
          let fd = scratch rt "tr" in
          ignore (o rt S.Write [ K.Int fd; K.Buf (Bytes.of_string "longcontent") ]);
          let r =
            if sys = S.Truncate then o rt S.Truncate [ K.Str "/tmp/ltp-tr"; K.Int 4 ]
            else o rt S.Ftruncate [ K.Int fd; K.Int 4 ]
          in
          r = K.RInt 0
          && match o rt S.Stat [ K.Str "/tmp/ltp-tr" ] with K.RStat st -> st.K.st_size = 4 | _ -> false);
      ]
  | S.Chmod | S.Fchmod ->
      [
        (fun rt ->
          let fd = scratch rt "cm" in
          let r =
            if sys = S.Chmod then o rt S.Chmod [ K.Str "/tmp/ltp-cm"; K.Int 0o600 ]
            else o rt S.Fchmod [ K.Int fd; K.Int 0o600 ]
          in
          r = K.RInt 0);
      ]
  | S.Chown -> [ (fun rt -> ignore (scratch rt "co"); o rt S.Chown [ K.Str "/tmp/ltp-co"; K.Int 1; K.Int 1 ] = K.RInt 0) ]
  | S.Chdir ->
      [
        (fun rt -> o rt S.Chdir [ K.Str "/tmp" ] = K.RInt 0);
        (fun rt -> is_err (o rt S.Chdir [ K.Str "/absent" ]));
      ]
  | S.Getcwd -> [ (fun rt -> is_buf (o rt S.Getcwd [])) ]
  | S.Getdents ->
      [
        (fun rt ->
          let fd = int_of (o rt S.Open [ K.Str "/tmp"; K.Int 0; K.Int 0 ]) in
          is_buf (o rt S.Getdents [ K.Int fd ]));
      ]
  | S.Fsync -> [ (fun rt -> o rt S.Fsync [ K.Int (scratch rt "sync") ] = K.RInt 0) ]
  | S.Fcntl -> [ (fun rt -> is_int (o rt S.Fcntl [ K.Int (scratch rt "fc"); K.Int 0 ])) ]
  | S.Mknod | S.Mknodat ->
      [
        (fun rt ->
          let args =
            if sys = S.Mknod then [ K.Str "/tmp/ltp-node"; K.Int 0o644; K.Int 0 ]
            else [ K.Int 0; K.Str "/tmp/ltp-nodeat"; K.Int 0o644; K.Int 0 ]
          in
          o rt sys args = K.RInt 0);
      ]
  | S.Statfs -> [ (fun rt -> is_int (o rt S.Statfs [ K.Str "/" ])) ]
  | S.Getpid -> [ (fun rt -> int_of (o rt S.Getpid []) > 0) ]
  | S.Getppid -> [ (fun rt -> int_of (o rt S.Getppid []) >= 0) ]
  | S.Getuid | S.Geteuid | S.Getgid | S.Getegid -> [ (fun rt -> is_int (o rt sys [])) ]
  | S.Setuid | S.Setgid -> [ (fun rt -> o rt sys [ K.Int 1000 ] = K.RInt 0) ]
  | S.Setreuid -> [ (fun rt -> o rt S.Setreuid [ K.Int 1000; K.Int 1000 ] = K.RInt 0) ]
  | S.Setresuid -> [ (fun rt -> o rt S.Setresuid [ K.Int 1000; K.Int 1000; K.Int 1000 ] = K.RInt 0) ]
  | S.Umask -> [ (fun rt -> is_int (o rt S.Umask [ K.Int 0o027 ])) ]
  | S.Uname -> [ (fun rt -> is_buf (o rt S.Uname [])) ]
  | S.Gettimeofday | S.Clock_gettime -> [ (fun rt -> is_int (o rt sys [])) ]
  | S.Nanosleep -> [ (fun rt -> o rt S.Nanosleep [ K.Int 1000 ] = K.RInt 0) ]
  | S.Sched_yield -> [ (fun rt -> o rt S.Sched_yield [] = K.RInt 0) ]
  | S.Getrandom ->
      [
        (fun rt -> match o rt S.Getrandom [ K.Int 16 ] with K.RBuf b -> Bytes.length b = 16 | _ -> false);
      ]
  | S.Exit | S.Exit_group -> [ (fun rt -> o rt sys [ K.Int 0 ] = K.RInt 0) ]
  | S.Ioctl -> [ (fun rt -> is_err (o rt S.Ioctl [ K.Int 0; K.Int 99 ])) ]
  | S.Rt_sigaction | S.Rt_sigprocmask | S.Poll | S.Select | S.Futex | S.Clone | S.Fork | S.Vfork
  | S.Execve | S.Wait4 | S.Kill ->
      (* SDK-unsupported: a single case that the enclave survives the
         call — it cannot, so all fail *)
      [ (fun rt -> is_int (o rt sys [])) ]

(* Calls whose first argument is a file descriptor: probing them with
   a wild descriptor must produce a clean error. *)
let fd_based =
  [ S.Read; S.Write; S.Close; S.Fstat; S.Lseek; S.Pread64; S.Pwrite64; S.Readv; S.Writev;
    S.Bind; S.Listen; S.Accept; S.Accept4; S.Connect; S.Sendto; S.Recvfrom; S.Sendmsg; S.Recvmsg;
    S.Shutdown; S.Getsockname; S.Getpeername; S.Setsockopt; S.Getsockopt; S.Dup; S.Dup2; S.Dup3;
    S.Fcntl; S.Fsync; S.Ftruncate; S.Getdents; S.Fchmod ]

(* Calls whose first argument is a path: a nonexistent deep path must
   produce a clean error (never a crash). *)
let path_based =
  [ S.Open; S.Stat; S.Lstat; S.Access; S.Rmdir; S.Unlink; S.Readlink; S.Chmod; S.Chown; S.Chdir;
    S.Truncate ]

let good_args_for (sys : S.t) (spec : Spec.t) first =
  (* plausible remaining arguments after a poisoned first one *)
  first
  :: (List.tl spec.Spec.shapes
     |> List.filter_map (fun sh ->
            match sh with
            | Spec.S_int | Spec.S_len_out -> Some (K.Int 1)
            | Spec.S_str -> Some (K.Str "/tmp/x")
            | Spec.S_buf_in -> Some (K.Buf (Bytes.of_string "z"))
            | Spec.S_rest -> None))
  |> fun args -> if sys = S.Lseek then [ first; K.Int 0; K.Int 0 ] else args

(* Generic negative cases derived from the call specification. *)
let negative (sys : S.t) : case list =
  let spec = Spec.spec_of sys in
  let has_rest = List.exists (fun sh -> sh = Spec.S_rest) spec.Spec.shapes in
  let arity =
    if has_rest then []
    else [ (fun rt -> o rt sys (List.init 9 (fun _ -> K.Int 0) @ [ K.Buf Bytes.empty ]) = K.RErr K.EINVAL) ]
  in
  let wrong_type =
    match spec.Spec.shapes with
    | Spec.S_str :: _ -> [ (fun rt -> o rt sys [ K.Int 42 ] = K.RErr K.EINVAL) ]
    | Spec.S_int :: _ -> [ (fun rt -> o rt sys [ K.Str "not-an-fd" ] = K.RErr K.EINVAL) ]
    | _ -> []
  in
  let bad_fd =
    if List.mem sys fd_based then
      [ (fun rt -> is_err (o rt sys (good_args_for sys spec (K.Int 9999))));
        (fun rt -> is_err (o rt sys (good_args_for sys spec (K.Int (-1))))) ]
    else []
  in
  let bad_path =
    if List.mem sys path_based then
      [ (fun rt -> is_err (o rt sys (good_args_for sys spec (K.Str "/no/such/deep/path")))) ]
    else []
  in
  arity @ wrong_type @ bad_fd @ bad_path

let battery ~fresh_port sys = positive ~fresh_port sys @ negative sys

let run_one ~fresh_port sys_boot (sysno : S.t) =
  let proc = Guest_kernel.Kernel.spawn sys_boot.Veil_core.Boot.kernel in
  match Runtime.create sys_boot ~heap_pages:8 ~stack_pages:2 ~binary:(Bytes.make 4096 'L') proc with
  | Error e -> failwith ("ltp: " ^ e)
  | Ok rt ->
      let cases = battery ~fresh_port sysno in
      let passed = ref 0 and killed = ref false in
      (try
         Runtime.run rt (fun rt -> List.iter (fun case -> if case rt then incr passed) cases)
       with Runtime.Enclave_killed _ -> killed := true);
      if not !killed then ignore (Runtime.destroy rt);
      { lsys = sysno; total = List.length cases; passed = !passed; killed = !killed }

let run_all sys_boot =
  (* ports must be unique across the whole battery: listeners persist in
     the guest's network stack between cases *)
  let port = ref 6100 in
  let fresh_port () =
    incr port;
    !port
  in
  List.map (run_one ~fresh_port sys_boot) S.all

let summarize results =
  {
    calls_total = List.length results;
    calls_all_passed = List.length (List.filter (fun r -> r.passed = r.total) results);
    cases_total = List.fold_left (fun a r -> a + r.total) 0 results;
    cases_passed = List.fold_left (fun a r -> a + r.passed) 0 results;
  }
