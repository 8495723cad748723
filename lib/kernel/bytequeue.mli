(** The byte stream behind a socket's receive side and a pipe.

    A FIFO of chunks plus a read offset into the head chunk.  {!push}
    copies the writer's bytes once, at their exact size, so the writer
    may reuse its buffer at once.  {!take} hands the reader bytes it
    owns: the head chunk itself when the read takes exactly that chunk,
    otherwise one fresh [n]-byte copy gathered across chunk
    boundaries. *)

type t

val create : unit -> t

val length : t -> int
(** Bytes queued. *)

val push : t -> bytes -> unit
(** Queue a copy of the bytes; an empty push queues nothing. *)

val take : t -> int -> bytes
(** Remove and return the next [min n (length t)] bytes (empty when
    [n <= 0] or nothing is queued). *)
