(** The one JSON codec: every report the simulator writes is built as a
    {!t} and printed here, and every JSON document it reads back (a
    committed [BENCH_prN.json] baseline, an exporter's output under
    test) goes through {!parse}.

    Numbers keep the text their producer formatted ([%.1f], [%.3f],
    [%g], ...), so printing a report is byte-identical to the
    hand-formatted text it replaces, and printing a parsed compact
    document gives back its bytes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of string  (** a number literal, printed verbatim *)
  | Str of string  (** raw bytes; escaped on output *)
  | List of t list
  | Obj of (string * t) list  (** fields in output order *)

val fixed : int -> float -> t
(** [fixed d x] is [Num] of [x] printed with [d] decimals ([%.*f]). *)

val to_buffer : Buffer.t -> t -> unit
(** Compact output (no whitespace).  Strings escape the double quote,
    the backslash, newline and tab by name and every other byte below
    0x20 as a [\u00XX] escape; all other bytes pass through. *)

val to_string : t -> string

val parse : string -> (t, string) result
(** Total: malformed input (bad syntax, trailing bytes, a lone UTF-16
    surrogate, nesting deeper than 512) gives [Error] naming the byte
    offset, never an exception.  Whitespace around tokens is skipped.
    An integer literal whose value fits an [int] and prints back as the
    same text reads as [Int]; every other number reads as [Num] of its
    literal text.  [\uXXXX] escapes decode to UTF-8. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the first field named [k]; [None] for a
    missing key or a non-object. *)
