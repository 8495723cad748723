(* Guest kernel tests: filesystem, network, pipes, the syscall surface,
   memory management, modules, auditing. *)

module K = Guest_kernel.Ktypes
module S = Guest_kernel.Sysno
module Kern = Guest_kernel.Kernel
module Fs = Guest_kernel.Fs

let q = QCheck_alcotest.to_alcotest

let boot_native () =
  let n = Veil_core.Boot.boot_native ~npages:2048 ~seed:17 () in
  let kernel = n.Veil_core.Boot.n_kernel in
  (kernel, Kern.spawn kernel)

let sys kernel proc s args = Kern.invoke kernel proc s args

let expect_int msg = function
  | K.RInt n -> n
  | r -> Alcotest.failf "%s: unexpected %a" msg K.pp_ret r

let expect_buf msg = function
  | K.RBuf b -> b
  | r -> Alcotest.failf "%s: unexpected %a" msg K.pp_ret r

let expect_err msg expected = function
  | K.RErr e when e = expected -> ()
  | r -> Alcotest.failf "%s: expected %s, got %a" msg (K.errno_to_string expected) K.pp_ret r

(* --- sysno table --- *)

let test_sysno_table () =
  Alcotest.(check int) "96 supported syscalls (§7)" 96 S.count;
  Alcotest.(check int) "read is 0" 0 (S.number S.Read);
  Alcotest.(check int) "openat is 257" 257 (S.number S.Openat);
  Alcotest.(check (option reject)) "unknown name" None (Option.map ignore (S.of_string "bogus"));
  Alcotest.(check bool) "of_string roundtrip" true
    (List.for_all (fun s -> S.of_string (S.to_string s) = Some s) S.all);
  let uniq = List.sort_uniq compare (List.map S.number S.all) in
  Alcotest.(check int) "numbers unique" 96 (List.length uniq);
  (* [compare] orders constructors, which must stay declared in
     ascending-number order *)
  Alcotest.(check bool) "compare is number order" true
    (List.for_all (fun a -> List.for_all (fun b -> S.compare a b = Int.compare (S.number a) (S.number b)) S.all) S.all);
  Alcotest.(check int) "audit ruleset size (§9.2 footnote)" 44 (List.length S.audit_default_ruleset)

(* --- fs --- *)

let test_fs_basic () =
  let fs = Fs.create (Veil_crypto.Rng.create 3) in
  Alcotest.(check bool) "/tmp exists" true (Fs.exists fs "/tmp");
  (match Fs.create_file fs "/tmp/a.txt" ~mode:0o644 with Ok () -> () | Error _ -> Alcotest.fail "create");
  (match Fs.write_at fs "/tmp/a.txt" ~pos:0 (Bytes.of_string "hello") with
  | Ok 5 -> ()
  | _ -> Alcotest.fail "write");
  (match Fs.read_at fs "/tmp/a.txt" ~pos:1 ~len:3 with
  | Ok b -> Alcotest.(check bytes) "offset read" (Bytes.of_string "ell") b
  | Error _ -> Alcotest.fail "read");
  (* sparse extension *)
  (match Fs.write_at fs "/tmp/a.txt" ~pos:100 (Bytes.of_string "x") with Ok 1 -> () | _ -> Alcotest.fail "sparse");
  (match Fs.stat fs "/tmp/a.txt" with
  | Ok st -> Alcotest.(check int) "size" 101 st.K.st_size
  | Error _ -> Alcotest.fail "stat");
  (match Fs.read_at fs "/tmp/a.txt" ~pos:50 ~len:1 with
  | Ok b -> Alcotest.(check char) "hole is zero" '\000' (Bytes.get b 0)
  | Error _ -> Alcotest.fail "hole read")

let test_fs_tree_ops () =
  let fs = Fs.create (Veil_crypto.Rng.create 3) in
  (match Fs.mkdir fs "/tmp/sub" with Ok () -> () | Error _ -> Alcotest.fail "mkdir");
  (match Fs.mkdir fs "/tmp/sub" with Error K.EEXIST -> () | _ -> Alcotest.fail "mkdir eexist");
  (match Fs.create_file fs "/tmp/sub/f" ~mode:0o600 with Ok () -> () | Error _ -> Alcotest.fail "create");
  (match Fs.rmdir fs "/tmp/sub" with Error K.EINVAL -> () | _ -> Alcotest.fail "rmdir non-empty");
  (match Fs.rename fs "/tmp/sub/f" "/tmp/g" with Ok () -> () | Error _ -> Alcotest.fail "rename");
  Alcotest.(check bool) "renamed away" false (Fs.exists fs "/tmp/sub/f");
  Alcotest.(check bool) "renamed here" true (Fs.exists fs "/tmp/g");
  (match Fs.rmdir fs "/tmp/sub" with Ok () -> () | Error _ -> Alcotest.fail "rmdir empty");
  (match Fs.link fs "/tmp/g" "/tmp/h" with Ok () -> () | Error _ -> Alcotest.fail "link");
  ignore (Fs.write_at fs "/tmp/g" ~pos:0 (Bytes.of_string "shared"));
  (match Fs.read_at fs "/tmp/h" ~pos:0 ~len:6 with
  | Ok b -> Alcotest.(check bytes) "hard link shares data" (Bytes.of_string "shared") b
  | Error _ -> Alcotest.fail "link read");
  (match Fs.symlink fs ~target:"/tmp/g" ~linkpath:"/tmp/s" with Ok () -> () | Error _ -> Alcotest.fail "symlink");
  (match Fs.read_at fs "/tmp/s" ~pos:0 ~len:6 with
  | Ok b -> Alcotest.(check bytes) "symlink follows" (Bytes.of_string "shared") b
  | Error _ -> Alcotest.fail "symlink read");
  (match Fs.readdir fs "/tmp" with
  | Ok names -> Alcotest.(check (list string)) "listing" [ "g"; "h"; "s" ] names
  | Error _ -> Alcotest.fail "readdir")

let test_fs_devices () =
  let fs = Fs.create (Veil_crypto.Rng.create 3) in
  (match Fs.read_at fs "/dev/urandom" ~pos:0 ~len:32 with
  | Ok b -> Alcotest.(check int) "urandom length" 32 (Bytes.length b)
  | Error _ -> Alcotest.fail "urandom");
  (match Fs.write_at fs "/dev/null" ~pos:0 (Bytes.of_string "gone") with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "null");
  ignore (Fs.write_at fs "/dev/console" ~pos:0 (Bytes.of_string "boot ok\n"));
  Alcotest.(check string) "console captured" "boot ok\n" (Fs.console_output fs)

(* --- syscalls: files --- *)

let test_sys_file_io () =
  let kernel, proc = boot_native () in
  let fd = expect_int "open" (sys kernel proc S.Open [ K.Str "/tmp/f"; K.Int 0x42; K.Int 0o644 ]) in
  Alcotest.(check int) "write" 11 (expect_int "w" (sys kernel proc S.Write [ K.Int fd; K.Buf (Bytes.of_string "hello world") ]));
  ignore (expect_int "lseek" (sys kernel proc S.Lseek [ K.Int fd; K.Int 0; K.Int 0 ]));
  let b = expect_buf "read" (sys kernel proc S.Read [ K.Int fd; K.Int 5 ]) in
  Alcotest.(check bytes) "read data" (Bytes.of_string "hello") b;
  let b2 = expect_buf "pread" (sys kernel proc S.Pread64 [ K.Int fd; K.Int 5; K.Int 6 ]) in
  Alcotest.(check bytes) "pread" (Bytes.of_string "world") b2;
  expect_err "read on closed" K.EBADF
    (let _ = sys kernel proc S.Close [ K.Int fd ] in
     sys kernel proc S.Read [ K.Int fd; K.Int 1 ])

let test_sys_open_flags () =
  let kernel, proc = boot_native () in
  expect_err "missing file" K.ENOENT (sys kernel proc S.Open [ K.Str "/tmp/nope"; K.Int 0; K.Int 0 ]);
  let fd = expect_int "creat" (sys kernel proc S.Creat [ K.Str "/tmp/c"; K.Int 0o600 ]) in
  ignore (sys kernel proc S.Close [ K.Int fd ]);
  expect_err "excl on existing" K.EEXIST
    (sys kernel proc S.Open [ K.Str "/tmp/c"; K.Int (0x40 lor 0x80); K.Int 0o600 ]);
  ignore (expect_int "write" (sys kernel proc S.Write
    [ K.Int (expect_int "o" (sys kernel proc S.Open [ K.Str "/tmp/c"; K.Int 1; K.Int 0 ])); K.Buf (Bytes.of_string "xyz") ]));
  let fd2 = expect_int "trunc" (sys kernel proc S.Open [ K.Str "/tmp/c"; K.Int (2 lor 0x200); K.Int 0 ]) in
  (match sys kernel proc S.Fstat [ K.Int fd2 ] with
  | K.RStat st -> Alcotest.(check int) "truncated" 0 st.K.st_size
  | r -> Alcotest.failf "fstat: %a" K.pp_ret r)

let test_sys_append_mode () =
  let kernel, proc = boot_native () in
  let fd = expect_int "o" (sys kernel proc S.Open [ K.Str "/tmp/log"; K.Int (0x40 lor 1 lor 0x400); K.Int 0o644 ]) in
  ignore (sys kernel proc S.Write [ K.Int fd; K.Buf (Bytes.of_string "aa") ]);
  ignore (sys kernel proc S.Write [ K.Int fd; K.Buf (Bytes.of_string "bb") ]);
  (match sys kernel proc S.Stat [ K.Str "/tmp/log" ] with
  | K.RStat st -> Alcotest.(check int) "appended" 4 st.K.st_size
  | r -> Alcotest.failf "stat: %a" K.pp_ret r)

let test_sys_dir_ops () =
  let kernel, proc = boot_native () in
  ignore (expect_int "mkdir" (sys kernel proc S.Mkdir [ K.Str "/tmp/d"; K.Int 0o755 ]));
  ignore (expect_int "chdir" (sys kernel proc S.Chdir [ K.Str "/tmp/d" ]));
  let cwd = expect_buf "getcwd" (sys kernel proc S.Getcwd []) in
  Alcotest.(check bytes) "cwd" (Bytes.of_string "/tmp/d") cwd;
  (* relative path resolution *)
  ignore (expect_int "rel create" (sys kernel proc S.Creat [ K.Str "rel.txt"; K.Int 0o644 ]));
  Alcotest.(check bool) "exists at abs path" true
    (Fs.exists (Kern.fs kernel) "/tmp/d/rel.txt")

let test_sys_dup () =
  let kernel, proc = boot_native () in
  let fd = expect_int "o" (sys kernel proc S.Open [ K.Str "/tmp/x"; K.Int 0x42; K.Int 0o644 ]) in
  let fd2 = expect_int "dup" (sys kernel proc S.Dup [ K.Int fd ]) in
  ignore (sys kernel proc S.Write [ K.Int fd; K.Buf (Bytes.of_string "abc") ]);
  (* dup shares the offset *)
  let b = expect_buf "read on dup" (sys kernel proc S.Pread64 [ K.Int fd2; K.Int 3; K.Int 0 ]) in
  Alcotest.(check bytes) "shared description" (Bytes.of_string "abc") b

(* --- syscalls: memory --- *)

let test_sys_mmap () =
  let kernel, proc = boot_native () in
  let va = expect_int "mmap" (sys kernel proc S.Mmap [ K.Int 0; K.Int 8192; K.Int 3; K.Int 0x22; K.Int (-1); K.Int 0 ]) in
  Alcotest.(check bool) "page aligned" true (va land 4095 = 0);
  (* memory is usable through the process tables *)
  Kern.write_user kernel proc ~va (Bytes.of_string "in user memory");
  Alcotest.(check bytes) "user rw" (Bytes.of_string "in user memory") (Kern.read_user kernel proc ~va ~len:14);
  ignore (expect_int "mprotect" (sys kernel proc S.Mprotect [ K.Int va; K.Int 8192; K.Int 1 ]));
  ignore (expect_int "munmap" (sys kernel proc S.Munmap [ K.Int va; K.Int 8192 ]));
  expect_err "double munmap" K.EINVAL (sys kernel proc S.Munmap [ K.Int va; K.Int 8192 ])

let test_sys_brk () =
  let kernel, proc = boot_native () in
  let base = expect_int "brk 0" (sys kernel proc S.Brk [ K.Int 0 ]) in
  let nb = expect_int "grow" (sys kernel proc S.Brk [ K.Int (base + 16384) ]) in
  Alcotest.(check int) "brk grew" (base + 16384) nb;
  Kern.write_user kernel proc ~va:base (Bytes.of_string "heap!");
  Alcotest.(check bytes) "heap usable" (Bytes.of_string "heap!") (Kern.read_user kernel proc ~va:base ~len:5);
  ignore (expect_int "shrink" (sys kernel proc S.Brk [ K.Int base ]))

(* --- syscalls: sockets & pipes --- *)

let test_sys_sockets () =
  let kernel, proc = boot_native () in
  let srv = expect_int "socket" (sys kernel proc S.Socket [ K.Int 2; K.Int 1; K.Int 0 ]) in
  ignore (expect_int "bind" (sys kernel proc S.Bind [ K.Int srv; K.Int 7000 ]));
  ignore (expect_int "listen" (sys kernel proc S.Listen [ K.Int srv; K.Int 8 ]));
  expect_err "accept empty" K.EAGAIN (sys kernel proc S.Accept [ K.Int srv ]);
  let cli = expect_int "socket2" (sys kernel proc S.Socket [ K.Int 2; K.Int 1; K.Int 0 ]) in
  ignore (expect_int "connect" (sys kernel proc S.Connect [ K.Int cli; K.Int 7000 ]));
  let conn = expect_int "accept" (sys kernel proc S.Accept [ K.Int srv ]) in
  ignore (expect_int "send" (sys kernel proc S.Sendto [ K.Int cli; K.Buf (Bytes.of_string "ping") ]));
  let b = expect_buf "recv" (sys kernel proc S.Recvfrom [ K.Int conn; K.Int 16 ]) in
  Alcotest.(check bytes) "payload" (Bytes.of_string "ping") b;
  ignore (expect_int "reply" (sys kernel proc S.Sendto [ K.Int conn; K.Buf (Bytes.of_string "pong") ]));
  let b2 = expect_buf "recv reply" (sys kernel proc S.Recvfrom [ K.Int cli; K.Int 16 ]) in
  Alcotest.(check bytes) "reply" (Bytes.of_string "pong") b2;
  expect_err "connect refused" K.ECONNREFUSED
    (sys kernel proc S.Connect
       [ K.Int (expect_int "s3" (sys kernel proc S.Socket [ K.Int 2; K.Int 1; K.Int 0 ])); K.Int 9999 ])

let test_sys_pipe () =
  let kernel, proc = boot_native () in
  let pair = expect_int "pipe" (sys kernel proc S.Pipe []) in
  let r = pair land 0xffff and w = pair lsr 16 in
  ignore (expect_int "write" (sys kernel proc S.Write [ K.Int w; K.Buf (Bytes.of_string "through the pipe") ]));
  let b = expect_buf "read" (sys kernel proc S.Read [ K.Int r; K.Int 7 ]) in
  Alcotest.(check bytes) "fifo order" (Bytes.of_string "through") b;
  expect_err "write to read end" K.EBADF (sys kernel proc S.Write [ K.Int r; K.Buf Bytes.empty ])

let test_sys_socketpair () =
  let kernel, proc = boot_native () in
  let pair = expect_int "socketpair" (sys kernel proc S.Socketpair []) in
  let a = pair land 0xffff and b = pair lsr 16 in
  ignore (expect_int "send" (sys kernel proc S.Sendto [ K.Int a; K.Buf (Bytes.of_string "hi") ]));
  let got = expect_buf "recv" (sys kernel proc S.Recvfrom [ K.Int b; K.Int 8 ]) in
  Alcotest.(check bytes) "paired" (Bytes.of_string "hi") got

(* --- misc syscalls --- *)

let test_sys_ids_and_misc () =
  let kernel, proc = boot_native () in
  Alcotest.(check int) "getpid" proc.Guest_kernel.Process.pid
    (expect_int "gp" (sys kernel proc S.Getpid []));
  ignore (expect_int "setuid" (sys kernel proc S.Setuid [ K.Int 1000 ]));
  Alcotest.(check int) "getuid" 1000 (expect_int "gu" (sys kernel proc S.Getuid []));
  let u = expect_buf "uname" (sys kernel proc S.Uname []) in
  Alcotest.(check bool) "uname mentions the kernel" true
    (String.length (Bytes.to_string u) > 0);
  let r = expect_buf "getrandom" (sys kernel proc S.Getrandom [ K.Int 16 ]) in
  Alcotest.(check int) "entropy" 16 (Bytes.length r);
  expect_err "poll unimplemented" K.ENOSYS (sys kernel proc S.Poll [ K.Int 0 ]);
  let child = expect_int "fork" (sys kernel proc S.Fork []) in
  Alcotest.(check bool) "child exists" true (Kern.proc kernel child <> None)

let test_sendfile () =
  let kernel, proc = boot_native () in
  let src = expect_int "src" (sys kernel proc S.Open [ K.Str "/tmp/src"; K.Int 0x42; K.Int 0o644 ]) in
  ignore (sys kernel proc S.Write [ K.Int src; K.Buf (Bytes.of_string "payload") ]);
  ignore (sys kernel proc S.Lseek [ K.Int src; K.Int 0; K.Int 0 ]);
  let dst = expect_int "dst" (sys kernel proc S.Open [ K.Str "/tmp/dst"; K.Int 0x42; K.Int 0o644 ]) in
  Alcotest.(check int) "sendfile bytes" 7
    (expect_int "sf" (sys kernel proc S.Sendfile [ K.Int dst; K.Int src; K.Int 64 ]));
  (match Fs.read_at (Kern.fs kernel) "/tmp/dst" ~pos:0 ~len:7 with
  | Ok b -> Alcotest.(check bytes) "copied" (Bytes.of_string "payload") b
  | Error _ -> Alcotest.fail "dst read")

(* --- audit --- *)

let test_audit_rules_and_emit () =
  let kernel, proc = boot_native () in
  let audit = Kern.audit kernel in
  Guest_kernel.Audit.set_rules audit [ S.Open; S.Unlink ];
  ignore (sys kernel proc S.Open [ K.Str "/tmp/audited"; K.Int 0x42; K.Int 0o644 ]);
  ignore (sys kernel proc S.Getpid []) (* not in ruleset *);
  ignore (sys kernel proc S.Unlink [ K.Str "/tmp/audited" ]);
  Alcotest.(check int) "two records" 2 (Guest_kernel.Audit.count audit);
  let lines = List.map Guest_kernel.Audit.to_line (Guest_kernel.Audit.records audit) in
  Alcotest.(check bool) "record names the syscall" true
    (String.length (List.hd lines) > 0
    && String.length (List.nth lines 1) > 0
    &&
    let has_sub s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    has_sub (List.hd lines) "syscall=open" && has_sub (List.nth lines 1) "syscall=unlink")

let test_audit_tamper_unprotected () =
  let kernel, proc = boot_native () in
  Guest_kernel.Audit.set_rules (Kern.audit kernel) [ S.Open ];
  ignore (sys kernel proc S.Open [ K.Str "/tmp/t"; K.Int 0x42; K.Int 0o644 ]);
  (* in a native CVM the in-kernel buffer is tamperable — the gap
     VeilS-LOG closes *)
  Alcotest.(check bool) "tampered" true
    (Guest_kernel.Audit.tamper (Kern.audit kernel) ~seq:1 ~detail:"forged")

(* --- modules (native path) --- *)

let test_module_load_native () =
  let kernel, _ = boot_native () in
  let img = Guest_kernel.Kmodule.build (Kern.rng kernel) ~name:"m" ~text_size:4728 ~data_size:512
      ~symbols:[ "ksym_0"; "ksym_5" ] in
  (match Kern.load_module kernel img with
  | Error e -> Alcotest.(check string) "unsigned rejected" "module signature invalid" e
  | Ok _ -> Alcotest.fail "unsigned module accepted");
  Kern.vendor_sign_module kernel img;
  (match Kern.load_module kernel img with
  | Ok loaded ->
      Alcotest.(check bool) "installed" true loaded.Guest_kernel.Kmodule.installed;
      Alcotest.(check int) "in-memory size (pages)" (8192 + 4096)
        (Guest_kernel.Kmodule.installed_size loaded);
      Alcotest.(check bool) "registered" true (Kern.find_module kernel "m" <> None)
  | Error e -> Alcotest.fail e);
  (match Kern.unload_module kernel "m" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "unregistered" true (Kern.find_module kernel "m" = None);
  (match Kern.unload_module kernel "m" with Error _ -> () | Ok () -> Alcotest.fail "double unload")

let test_module_bad_signature () =
  let kernel, _ = boot_native () in
  let img = Guest_kernel.Kmodule.build (Kern.rng kernel) ~name:"evil" ~text_size:4096 ~data_size:0
      ~symbols:[] in
  Kern.vendor_sign_module kernel img;
  (* tamper after signing: TOCTOU attempt *)
  Bytes.set img.Guest_kernel.Kmodule.text 100 '\xcc';
  match Kern.load_module kernel img with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered module accepted"

(* --- frame allocator --- *)

let test_frame_allocator () =
  let kernel, _ = boot_native () in
  let a = Kern.alloc_frame kernel in
  let b = Kern.alloc_frame kernel in
  Alcotest.(check bool) "distinct" true (a <> b);
  let free0 = Kern.frames_free kernel in
  Kern.free_frame kernel a;
  Alcotest.(check int) "freed returns" (free0 + 1) (Kern.frames_free kernel);
  Alcotest.(check int) "reuse freed frame" a (Kern.alloc_frame kernel)

let fs_random_ops =
  QCheck.Test.make ~name:"fs random create/write/read consistency" ~count:30
    (QCheck.make QCheck.Gen.(list_size (1 -- 30) (pair (1 -- 8) (bytes_size (0 -- 100)))))
    (fun ops ->
      let fs = Fs.create (Veil_crypto.Rng.create 9) in
      let model : (string, bytes) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (slot, data) ->
          let path = Printf.sprintf "/tmp/file%d" slot in
          if not (Fs.exists fs path) then ignore (Fs.create_file fs path ~mode:0o644);
          ignore (Fs.write_at fs path ~pos:0 data);
          ignore (Fs.truncate fs path (Bytes.length data));
          Hashtbl.replace model path data)
        ops;
      Hashtbl.fold
        (fun path data acc ->
          acc
          &&
          match Fs.read_at fs path ~pos:0 ~len:(max 1 (Bytes.length data)) with
          | Ok b -> Bytes.equal b data
          | Error _ -> Bytes.length data = 0)
        model true)

(* File data sits in 4 KiB chunks: writes, holes and truncations that
   straddle chunk edges must read back like one flat byte array. *)
let fs_chunked_file =
  let op =
    QCheck.Gen.(
      oneof
        [
          map2 (fun pos len -> `Write (pos, len)) (0 -- 12_000) (0 -- 5_000);
          map (fun len -> `Truncate len) (0 -- 12_000);
        ])
  in
  QCheck.Test.make ~name:"fs file reads like flat bytes across chunk edges" ~count:200
    (QCheck.make QCheck.Gen.(list_size (1 -- 20) op))
    (fun ops ->
      let fs = Fs.create (Veil_crypto.Rng.create 9) in
      ignore (Fs.create_file fs "/tmp/f" ~mode:0o644);
      let model = ref Bytes.empty in
      let resize n =
        let b = Bytes.make n '\000' in
        Bytes.blit !model 0 b 0 (min n (Bytes.length !model));
        model := b
      in
      List.iteri
        (fun i op ->
          match op with
          | `Write (pos, len) ->
              let data = Bytes.make len (Char.chr (65 + (i mod 26))) in
              ignore (Fs.write_at fs "/tmp/f" ~pos data);
              if pos + len > Bytes.length !model then resize (pos + len);
              Bytes.blit data 0 !model pos len
          | `Truncate len ->
              ignore (Fs.truncate fs "/tmp/f" len);
              resize len)
        ops;
      let size = Bytes.length !model in
      Fs.size_of fs "/tmp/f" = Ok size
      && List.for_all
           (fun pos ->
             match Fs.read_at fs "/tmp/f" ~pos ~len:(size + 1) with
             | Ok b -> Bytes.equal b (if pos >= size then Bytes.empty else Bytes.sub !model pos (size - pos))
             | Error _ -> false)
           [ 0; 1; 4095; 4096; 4097; size / 3; size ])

let suite =
  [
    ("sysno table", `Quick, test_sysno_table);
    ("fs basic io", `Quick, test_fs_basic);
    ("fs tree operations", `Quick, test_fs_tree_ops);
    ("fs devices", `Quick, test_fs_devices);
    q fs_random_ops;
    q fs_chunked_file;
    ("sys file io", `Quick, test_sys_file_io);
    ("sys open flags", `Quick, test_sys_open_flags);
    ("sys append mode", `Quick, test_sys_append_mode);
    ("sys dir ops + cwd", `Quick, test_sys_dir_ops);
    ("sys dup shares offset", `Quick, test_sys_dup);
    ("sys mmap/mprotect/munmap", `Quick, test_sys_mmap);
    ("sys brk", `Quick, test_sys_brk);
    ("sys sockets", `Quick, test_sys_sockets);
    ("sys pipe", `Quick, test_sys_pipe);
    ("sys socketpair", `Quick, test_sys_socketpair);
    ("sys ids/misc/fork", `Quick, test_sys_ids_and_misc);
    ("sys sendfile", `Quick, test_sendfile);
    ("audit rules + records", `Quick, test_audit_rules_and_emit);
    ("audit tamperable without Veil", `Quick, test_audit_tamper_unprotected);
    ("module load/unload native", `Quick, test_module_load_native);
    ("module TOCTOU signature", `Quick, test_module_bad_signature);
    ("frame allocator", `Quick, test_frame_allocator);
  ]
