(** Guest-physical memory layout of a Veil CVM.

    Fixed at boot-image build time; VeilMon's protection sweep and the
    kernel's allocator both derive from it. *)

type region = { lo : Sevsnp.Types.gpfn; hi : Sevsnp.Types.gpfn }
(** Frames [lo, hi). *)

type t = {
  total_frames : int;
  mon_image : region;  (** VeilMon + services code/data (measured at launch) *)
  kernel_text : region;
  kernel_data : region;
  mon_heap : region;  (** Dom_MON private heap: VMSAs, cloned page tables *)
  svc_region : region;  (** Dom_SEC service heap *)
  log_region : region;  (** VeilS-LOG reserved append-only storage *)
  idcb_region : region;  (** per-VCPU inter-domain communication blocks *)
  kernel_free : region;  (** the OS frame allocator's pool *)
  vmsa_region : region;  (** top-of-memory frames for VMSAs *)
}

val standard : ?log_frames:int -> npages:int -> unit -> t
(** The default carve-up.  Needs [npages >= 1024]. *)

val region_size : region -> int
val pp : Format.formatter -> t -> unit
