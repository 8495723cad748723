(** Paged B-tree keyed storage over a file.

    The storage engine of the SQLite workload miniature: fixed-size
    keys and values in 4 KB nodes, read and written through the
    environment's [pread]/[pwrite] with a small write-back page cache
    — so every cache miss is a real (redirected, under enclaves)
    system call, as in the paper's SQLite runs. *)

type t

val key_size : int
val value_size : int

val create : Env.t -> path:string -> t
(** Create or open the tree backed by [path]. *)

val insert : t -> key:bytes -> value:bytes -> unit
(** Keys shorter than [key_size] are zero-padded; longer raise. *)

val find : t -> key:bytes -> bytes option

val iter_count : t -> int
(** Number of live entries (full scan). *)

val iter : t -> (bytes -> bytes -> unit) -> unit
(** Visit every (key, value) in key order. *)

val flush : t -> unit
(** Write back dirty pages and fsync. *)

val close : t -> unit

val height : t -> int
