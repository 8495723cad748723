(** Loopback network stack.

    Just enough of AF_INET/SOCK_STREAM for the evaluation's server
    workloads (lighttpd/NGINX/memcached miniatures): listeners with
    accept queues and connected stream pairs with unbounded byte
    queues.  Single-threaded semantics: operations never block;
    [recv] on an empty stream returns [EAGAIN].

    Each receive side is a {!Bytequeue}: a queue of chunks, one per
    [send], with a read offset into the head chunk.  [send] copies the
    caller's bytes once, so the caller may reuse its buffer at once;
    [recv] returns bytes the receiver owns, either the whole head chunk
    with no further copy or one fresh copy of the bytes asked for. *)

type t
type endpoint

val create : unit -> t

val socket : t -> endpoint
val bind : t -> endpoint -> port:int -> (unit, Ktypes.errno) result
val listen : t -> endpoint -> backlog:int -> (unit, Ktypes.errno) result

val connect : t -> endpoint -> port:int -> (unit, Ktypes.errno) result
(** Loopback connect: queues the connection on the listener. *)

val accept : t -> endpoint -> (endpoint, Ktypes.errno) result

val pair : t -> endpoint * endpoint
(** A connected endpoint pair (socketpair). *)

val send : t -> endpoint -> bytes -> (int, Ktypes.errno) result
(** Queue a copy of the bytes on the peer; a zero-length send queues
    nothing.  [EPIPE] once either side has shut down or the peer has
    closed; [ENOTCONN] on a closed endpoint. *)

val recv : t -> endpoint -> int -> (bytes, Ktypes.errno) result
(** The next [min len queued] bytes.  On an empty queue: [EAGAIN] while
    both sides are open, an empty result (EOF) once either has shut
    down or closed. *)

val pending : t -> endpoint -> int
(** Bytes currently queued for [recv]. *)

val shutdown : t -> endpoint -> unit
val close : t -> endpoint -> unit
