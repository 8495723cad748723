type stream = { inbox : Bytequeue.t; mutable peer : endpoint option; mutable open_ : bool }

and ep_state =
  | Fresh
  | Bound of int
  | Listening of { port : int; backlog : int; queue : endpoint Queue.t }
  | Connected of stream
  | Closed

and endpoint = { id : int; mutable state : ep_state }

type t = { mutable next_id : int; listeners : (int, endpoint) Hashtbl.t }

let create () = { next_id = 1; listeners = Hashtbl.create 8 }

let socket t =
  let ep = { id = t.next_id; state = Fresh } in
  t.next_id <- t.next_id + 1;
  ep

let bind t ep ~port =
  match ep.state with
  | Fresh ->
      if Hashtbl.mem t.listeners port then Error Ktypes.EADDRINUSE
      else begin
        ep.state <- Bound port;
        Ok ()
      end
  | _ -> Error Ktypes.EINVAL

let listen t ep ~backlog =
  match ep.state with
  | Bound port ->
      ep.state <- Listening { port; backlog; queue = Queue.create () };
      Hashtbl.replace t.listeners port ep;
      Ok ()
  | _ -> Error Ktypes.EINVAL

let mk_stream () = { inbox = Bytequeue.create (); peer = None; open_ = true }

let connect t ep ~port =
  match ep.state with
  | Fresh -> (
      match Hashtbl.find_opt t.listeners port with
      | None -> Error Ktypes.ECONNREFUSED
      | Some listener -> (
          match listener.state with
          | Listening l ->
              if Queue.length l.queue >= l.backlog then Error Ktypes.ECONNREFUSED
              else begin
                let client_stream = mk_stream () and server_stream = mk_stream () in
                let server_ep = { id = -ep.id; state = Connected server_stream } in
                ep.state <- Connected client_stream;
                client_stream.peer <- Some server_ep;
                server_stream.peer <- Some ep;
                Queue.push server_ep l.queue;
                Ok ()
              end
          | _ -> Error Ktypes.ECONNREFUSED))
  | _ -> Error Ktypes.EINVAL

let pair t =
  let sa = mk_stream () and sb = mk_stream () in
  let a = { id = t.next_id; state = Connected sa } in
  let b = { id = t.next_id + 1; state = Connected sb } in
  t.next_id <- t.next_id + 2;
  sa.peer <- Some b;
  sb.peer <- Some a;
  (a, b)

let accept _t ep =
  match ep.state with
  | Listening l -> if Queue.is_empty l.queue then Error Ktypes.EAGAIN else Ok (Queue.pop l.queue)
  | _ -> Error Ktypes.EINVAL

let send _t ep data =
  match ep.state with
  | Connected s -> (
      if not s.open_ then Error Ktypes.EPIPE
      else begin
        match s.peer with
        | Some { state = Connected peer_stream; _ } when peer_stream.open_ ->
            Bytequeue.push peer_stream.inbox data;
            Ok (Bytes.length data)
        | _ -> Error Ktypes.EPIPE
      end)
  | _ -> Error Ktypes.ENOTCONN

let peer_open s =
  match s.peer with Some { state = Connected ps; _ } -> ps.open_ | _ -> false

let recv _t ep len =
  match ep.state with
  | Connected s ->
      (* EOF (empty read) once the peer has shut down and the queue is
         drained; EAGAIN while the peer may still send *)
      if Bytequeue.length s.inbox = 0 then
        if s.open_ && peer_open s then Error Ktypes.EAGAIN else Ok Bytes.empty
      else Ok (Bytequeue.take s.inbox len)
  | _ -> Error Ktypes.ENOTCONN

let pending _t ep = match ep.state with Connected s -> Bytequeue.length s.inbox | _ -> 0

let shutdown _t ep = match ep.state with Connected s -> s.open_ <- false | _ -> ()

let close t ep =
  (match ep.state with
  | Connected s -> s.open_ <- false
  | Listening { port; _ } -> Hashtbl.remove t.listeners port
  | _ -> ());
  ep.state <- Closed
