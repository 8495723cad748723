type pipe = { pq : Bytequeue.t; mutable readers : int; mutable writers : int }

type kind =
  | File of file_state
  | Sock of Net.endpoint
  | Pipe_r of pipe
  | Pipe_w of pipe
  | Veil_dev

and file_state = {
  path : string;
  mutable pos : int;
  readable : bool;
  writable : bool;
  append : bool;
}

type t = { kind : kind }

let mk_file ~path ~readable ~writable ~append =
  { kind = File { path; pos = 0; readable; writable; append } }

let mk_sock ep = { kind = Sock ep }

let mk_pipe () =
  let p = { pq = Bytequeue.create (); readers = 1; writers = 1 } in
  ({ kind = Pipe_r p }, { kind = Pipe_w p })

let mk_veil_dev () = { kind = Veil_dev }
