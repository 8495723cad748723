type server = {
  listen_fd : int;
  docroot : string;
  mutable served : int;
  fd_cache : (string, int * int) Hashtbl.t; (* path -> open fd, size *)
  mutable per_request_compute : int;
}

let server_start env ~port ~docroot =
  let fd = Env.socket env in
  Env.bind env fd ~port;
  Env.listen env fd ~backlog:64;
  { listen_fd = fd; docroot; served = 0; fd_cache = Hashtbl.create 16; per_request_compute = 700_000 }

let requests_served s = s.served
let set_per_request_compute s n = s.per_request_compute <- n
let listen_fd s = s.listen_fd

let parse_request line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "GET"; path; _version ] -> Some path
  | [ "GET"; path ] -> Some path
  | _ -> None

let respond env conn body_opt =
  match body_opt with
  | Some body ->
      let header =
        Printf.sprintf "HTTP/1.0 200 OK\r\nContent-Length: %d\r\nServer: veil-httpd\r\n\r\n"
          (Bytes.length body)
      in
      (* writev: header + body in one submission *)
      ignore (Env.send env conn (Bytes.cat (Bytes.of_string header) body))
  | None -> ignore (Env.send env conn (Bytes.of_string "HTTP/1.0 404 Not Found\r\n\r\n"))

(* lighttpd keeps hot files open: open+stat once, pread per request *)
let read_file env s path =
  let handle =
    match Hashtbl.find_opt s.fd_cache path with
    | Some h -> Some h
    | None -> (
        match Env.open_ env path ~flags:Env.o_rdonly ~mode:0 with
        | fd ->
            let size = try Env.stat_size env path with Env.Sys_error _ -> 0 in
            Hashtbl.replace s.fd_cache path (fd, size);
            Some (fd, size)
        | exception Env.Sys_error _ -> None)
  in
  match handle with
  | None -> None
  | Some (fd, size) -> Some (if size > 0 then Env.pread env fd ~len:size ~pos:0 else Bytes.empty)

let handle_one env s conn =
  match Env.recv env conn 1024 with
  | None -> false
  | Some req when Bytes.length req = 0 -> false
  | Some req -> (
      env.Env.compute s.per_request_compute (* parse, routing, logging, TCP stack *);
      match parse_request (Bytes.to_string req) with
      | None ->
          respond env conn None;
          false
      | Some path ->
          let body = read_file env s (s.docroot ^ path) in
          respond env conn body;
          s.served <- s.served + 1;
          true)

let serve_pending env s =
  let handled = ref 0 in
  let rec accept_loop () =
    match Env.accept env s.listen_fd with
    | None -> ()
    | Some conn ->
        ignore (handle_one env s conn);
        Env.close env conn;
        incr handled;
        accept_loop ()
  in
  accept_loop ();
  !handled

let serve_on_connection env s ~conn_fd = handle_one env s conn_fd

let client_connect env ~port =
  let fd = Env.socket env in
  Env.connect env fd ~port;
  fd

(* our loopback stack delivers the queued response atomically, so one
   large recv suffices (and keeps the client's audited-call count
   realistic: one recvfrom per response) *)
let recv_all env fd =
  match Env.recv env fd 65536 with Some b -> b | None -> Bytes.empty

(* Scans the response in place; the body is its one copy. *)
let strip_header resp =
  let n = Bytes.length resp in
  let at i c = Bytes.get resp i = c in
  let rec find i =
    if i + 3 >= n then None
    else if at i '\r' && at (i + 1) '\n' && at (i + 2) '\r' && at (i + 3) '\n' then Some (i + 4)
    else find (i + 1)
  in
  if not (n >= 12 && at 9 '2' && at 10 '0' && at 11 '0') then None
  else Option.map (fun body -> Bytes.sub resp body (n - body)) (find 0)

let client_get ?(serve = fun () -> ()) env ~port ~path =
  let fd = client_connect env ~port in
  ignore (Env.send env fd (Bytes.of_string (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path)));
  (* single-threaded guest: run the server side now *)
  serve ();
  let resp = recv_all env fd in
  Env.close env fd;
  strip_header resp

let client_get_keepalive env ~conn_fd ~server:_ ~serve ~path =
  ignore (Env.send env conn_fd (Bytes.of_string (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path)));
  serve ();
  let resp = recv_all env conn_fd in
  strip_header resp
