(** Loadable kernel modules.

    A module image carries text, data, a relocation list (offsets into
    text that must be patched with kernel symbol addresses) and a
    vendor signature over all of it.  Loading is performed either by
    the native kernel or — under VeilS-KCI — by the protected service,
    which re-verifies the signature, relocates against its *protected*
    symbol table and write-protects the installed text with RMPADJUST
    (§6.1's TOCTOU-free path). *)

type image = {
  name : string;
  text : bytes;
  data : bytes;
  relocs : (int * string) list;  (** text offset -> symbol name *)
  mutable signature : bytes option;
}

val build :
  Veil_crypto.Rng.t -> name:string -> text_size:int -> data_size:int -> symbols:string list -> image
(** Synthesize a module image with one relocation per listed symbol at
    deterministic offsets. *)

val sign : Veil_crypto.Rng.t -> vendor_secret:Veil_crypto.Bignum.t -> image -> unit
val verify : vendor_public:Veil_crypto.Bignum.t -> image -> bool

type loaded = {
  module_image : image;
  text_gpfns : Sevsnp.Types.gpfn list;
  data_gpfns : Sevsnp.Types.gpfn list;
  load_address : int;
  mutable installed : bool;
}

val binary_size : image -> int
(** On-disk size of the image (text + data + relocation table). *)

val installed_size : loaded -> int
(** In-memory footprint in bytes (whole pages). *)
