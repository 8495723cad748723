let prepare_docroot (ctx : Workload.ctx) ~file_kb ~nfiles =
  let client = ctx.Workload.client in
  if not (Env.file_exists client "/srv/www") then Env.mkdir client "/srv/www";
  for i = 0 to nfiles - 1 do
    let path = Printf.sprintf "/srv/www/file%d.html" i in
    let fd = Env.open_ client path ~flags:(Env.o_creat lor Env.o_wronly lor Env.o_trunc) ~mode:0o644 in
    ignore (Env.write client fd (Textgen.text ctx.Workload.rng (file_kb * 1024)));
    Env.close client fd
  done

let http_server_workload ~name ~vcpus ~port ~keepalive ~requests ~file_kb =
  Workload.make ~name ~vcpus
    ~setup:(fun ctx -> prepare_docroot ctx ~file_kb ~nfiles:16)
    (fun ctx ->
      let env = ctx.Workload.env and client = ctx.Workload.client in
      let server = Http.server_start env ~port ~docroot:"/srv/www" in
      if keepalive then Http.set_per_request_compute server 470_000;
      let n = requests * ctx.Workload.scale in
      let serve () = ignore (Http.serve_pending env server) in
      if keepalive then begin
        (* two workers' worth of persistent connections *)
        let per_conn = 64 in
        let remaining = ref n in
        while !remaining > 0 do
          let conn = Http.client_connect client ~port in
          (* server must accept the connection *)
          let accepted = ref None in
          (match Env.accept env (Http.listen_fd server) with
          | Some c -> accepted := Some c
          | None -> failwith "nginx: no pending connection");
          let server_conn = Option.get !accepted in
          let k = min per_conn !remaining in
          for i = 0 to k - 1 do
            let path = Printf.sprintf "/file%d.html" (i mod 16) in
            match
              Http.client_get_keepalive client ~conn_fd:conn ~server
                ~serve:(fun () -> ignore (Http.serve_on_connection env server ~conn_fd:server_conn))
                ~path
            with
            | Some body when Bytes.length body = file_kb * 1024 -> ()
            | Some _ -> failwith "nginx: short body"
            | None -> failwith "nginx: no response"
          done;
          Env.close client conn;
          Env.close env server_conn;
          remaining := !remaining - k
        done
      end
      else
        for i = 0 to n - 1 do
          let path = Printf.sprintf "/file%d.html" (i mod 16) in
          match Http.client_get client ~serve ~port ~path with
          | Some body when Bytes.length body = file_kb * 1024 -> ()
          | Some _ -> failwith (name ^ ": short body")
          | None -> failwith (name ^ ": no response")
        done)

let lighttpd ?(requests = 150) ?(file_kb = 10) () =
  http_server_workload ~name:"lighttpd" ~vcpus:1 ~port:8080 ~keepalive:false ~requests ~file_kb

let nginx ?(requests = 200) ?(file_kb = 10) () =
  http_server_workload ~name:"nginx" ~vcpus:2 ~port:8081 ~keepalive:true ~requests ~file_kb

(* --- memcached: text protocol over a persistent connection --- *)

let mc_serve env store server_conn =
  let rec loop () =
    match Env.recv env server_conn 4096 with
    | None -> ()
    | Some req when Bytes.length req = 0 -> ()
    | Some req ->
        let lines = String.split_on_char '\n' (Bytes.to_string req) in
        List.iter
          (fun line ->
            let line = String.trim line in
            if line <> "" then begin
              env.Env.compute 610_000 (* command parse, hash, LRU, slab bookkeeping *);
              match String.split_on_char ' ' line with
              | [ "get"; key ] -> (
                  match Mcache.get store key with
                  | Some v ->
                      (* writev: one submission for the whole reply *)
                      let reply =
                        Bytes.concat Bytes.empty
                          [
                            Bytes.of_string (Printf.sprintf "VALUE %s 0 %d\r\n" key (Bytes.length v));
                            v;
                            Bytes.of_string "\r\nEND\r\n";
                          ]
                      in
                      ignore (Env.send env server_conn reply)
                  | None -> ignore (Env.send env server_conn (Bytes.of_string "END\r\n")))
              | [ "set"; key; len ] ->
                  let n = int_of_string len in
                  env.Env.compute (400 + n);
                  Mcache.set store ~key ~value:(Veil_crypto.Rng.bytes env.Env.env_rng n) ();
                  ignore (Env.send env server_conn (Bytes.of_string "STORED\r\n"))
              | [ "delete"; key ] ->
                  ignore (Mcache.delete store key);
                  ignore (Env.send env server_conn (Bytes.of_string "DELETED\r\n"))
              | _ -> ignore (Env.send env server_conn (Bytes.of_string "ERROR\r\n"))
            end)
          lines;
        loop ()
  in
  loop ()

let memcached ?(ops = 600) ?(value_bytes = 1024) () =
  Workload.make ~name:"memcached" ~vcpus:4 (fun ctx ->
      let env = ctx.Workload.env and client = ctx.Workload.client in
      let port = 11211 in
      let listen_fd = Env.socket env in
      Env.bind env listen_fd ~port;
      Env.listen env listen_fd ~backlog:32;
      let store = Mcache.create ~memory_limit:(1 lsl 20) () in
      let conn = Http.client_connect client ~port in
      let server_conn =
        match Env.accept env listen_fd with
        | Some c -> c
        | None -> failwith "memcached: no pending connection"
      in
      let serve () = mc_serve env store server_conn in
      let n = ops * ctx.Workload.scale in
      (* warm the store *)
      for i = 0 to 63 do
        ignore (Env.send client conn (Bytes.of_string (Printf.sprintf "set key%d %d\n" i value_bytes)));
        serve ();
        ignore (Env.recv client conn 256)
      done;
      (* 90:10 GET:SET *)
      for _ = 1 to n do
        let key = Printf.sprintf "key%d" (Veil_crypto.Rng.int ctx.Workload.rng 64) in
        if Veil_crypto.Rng.int ctx.Workload.rng 10 = 0 then begin
          ignore (Env.send client conn (Bytes.of_string (Printf.sprintf "set %s %d\n" key value_bytes)));
          serve ();
          ignore (Env.recv client conn 256)
        end
        else begin
          ignore (Env.send client conn (Bytes.of_string (Printf.sprintf "get %s\n" key)));
          serve ();
          ignore (Env.recv client conn 65536)
        end
      done;
      Env.close client conn;
      Env.close env server_conn;
      Env.close env listen_fd)

(* --- scheduler-driven concurrent HTTP serving --- *)

let lighttpd_concurrent ?(requests = 60) ?(clients = 3) ?(file_kb = 10) () =
  Workload.make ~name:"lighttpd-mt"
    ~setup:(fun ctx -> prepare_docroot ctx ~file_kb ~nfiles:8)
    (fun ctx ->
      let env = ctx.Workload.env in
      let sched =
        Guest_kernel.Sched.create
          ~on_context_switch:(fun () -> env.Env.compute 900)
            (* every failed readiness re-poll of a blocked coroutine
               costs cycles too — idle waiting is not free *)
          ~on_blocked_poll:(fun () -> env.Env.compute 120)
          ()
      in
      let total = requests * ctx.Workload.scale in
      let per_client = total / clients in
      let served = ref 0 in
      let port = 8090 in
      (* The measured server runs in [env]; load generators run in the
         client environment — all as coroutines over one guest. *)
      Guest_kernel.Sched.spawn sched ~name:"lighttpd" (fun () ->
          let server = Http.server_start env ~port ~docroot:"/srv/www" in
          Http.set_per_request_compute server 650_000;
          while !served < clients * per_client do
            match Env.accept env (Http.listen_fd server) with
            | Some conn ->
                if Http.serve_on_connection env server ~conn_fd:conn then incr served;
                Env.close env conn
            | None -> Guest_kernel.Sched.yield ()
          done);
      for c = 1 to clients do
        Guest_kernel.Sched.spawn sched
          ~name:(Printf.sprintf "ab-%d" c)
          (fun () ->
            let client = ctx.Workload.client in
            for i = 1 to per_client do
              let path = Printf.sprintf "/file%d.html" ((c + i) mod 8) in
              let fd = Http.client_connect client ~port in
              ignore
                (Env.send client fd (Bytes.of_string (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path)));
              (* block until the server answered *)
              let got = ref None in
              while !got = None do
                match Env.recv client fd 65536 with
                | Some b when Bytes.length b > 0 -> got := Some b
                | _ -> Guest_kernel.Sched.yield ()
              done;
              Env.close client fd
            done)
      done;
      Guest_kernel.Sched.run sched;
      if !served < clients * per_client then failwith "lighttpd-mt: requests lost")
