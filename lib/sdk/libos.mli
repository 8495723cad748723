(** Mini library OS for enclaves (§10's LibOS integration).

    Two of the benefits the paper expects from a Graphene-style LibOS,
    implemented directly over the SDK:

    - a **containerized in-enclave filesystem**: paths under a memfs
      mount are served entirely from enclave memory — zero redirected
      system calls, zero exits, invisible to the OS;
    - **buffered stdio**: file streams batch small reads/writes into
      enclave-side buffers, amortizing the redirection cost exactly
      like musl's FILE layer would.

    Everything else passes through to the host kernel via the normal
    redirection path. *)

type t

val create : ?stdio_buffer:int -> Runtime.t -> t
(** Default stdio buffer: 8 KB. *)

val mount_memfs : t -> prefix:string -> unit
(** Serve every path under [prefix] from enclave memory. *)

val is_memfs_path : t -> string -> bool

(* File streams (FILE*-style) *)

type file

val fopen : t -> string -> mode:[ `Read | `Write | `Append ] -> (file, string) result
val fwrite : t -> file -> bytes -> (int, string) result
val fread : t -> file -> int -> (bytes, string) result
val fclose : t -> file -> (unit, string) result

val unlink : t -> string -> (unit, string) result
val exists : t -> string -> bool
val file_size : t -> string -> int option

(* Accounting *)

val ocalls_saved : t -> int
(** Redirected calls avoided by buffering + memfs (vs issuing one call
    per stream operation). *)
