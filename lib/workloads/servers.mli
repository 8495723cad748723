(** Server workload miniatures (Tables 4-5).

    The measured server runs in [ctx.env]; the ApacheBench / memaslap
    load generators run natively in [ctx.client], exactly like the
    paper's local benchmarking setup. *)

val lighttpd : ?requests:int -> ?file_kb:int -> unit -> Workload.t
(** One worker, a fresh connection per request, 10 KB files. *)

val nginx : ?requests:int -> ?file_kb:int -> unit -> Workload.t
(** Two workers, keep-alive connections. *)

val memcached : ?ops:int -> ?value_bytes:int -> unit -> Workload.t
(** memaslap-style 90:10 GET:SET mix, four workers. *)

val mc_serve : Env.t -> Mcache.t -> int -> unit
(** The memcached server loop: answer every command queued on the
    connection fd ([get], [set], [delete]; anything else gets
    [ERROR]), charging the calibrated per-command cycles to the
    server's env. *)

val lighttpd_concurrent : ?requests:int -> ?clients:int -> ?file_kb:int -> unit -> Workload.t
(** The lighttpd engine under the cooperative scheduler: the server
    and [clients] load-generator processes run as interleaved
    coroutines with blocking accept/recv — no hand-written serve
    callbacks. *)
