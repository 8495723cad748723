type t = {
  vcpu_id : int;
  vmpl : Types.vmpl;
  backing_gpfn : Types.gpfn;
  mutable cpl : Types.cpl;
  mutable rip : int;
  mutable rsp : int;
  mutable cr3 : Types.gpfn;
  gprs : int array;
  mutable ghcb_gpa : Types.gpa;
}

let create ~vcpu_id ~vmpl ~backing_gpfn =
  {
    vcpu_id;
    vmpl;
    backing_gpfn;
    cpl = Types.Cpl0;
    rip = 0;
    rsp = 0;
    cr3 = 0;
    gprs = Array.make 16 0;
    ghcb_gpa = 0;
  }

let pp fmt t =
  Format.fprintf fmt "VMSA{vcpu=%d %a %a rip=0x%x cr3=%d gpfn=%d}" t.vcpu_id Types.pp_vmpl t.vmpl
    Types.pp_cpl t.cpl t.rip t.cr3 t.backing_gpfn
