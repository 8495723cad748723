type vmpl = Vmpl0 | Vmpl1 | Vmpl2 | Vmpl3
type cpl = Cpl0 | Cpl3

type gpa = int
type gpfn = int
type va = int

type access = Read | Write | Execute

type npf_info = {
  fault_gpa : gpa;
  fault_vmpl : vmpl;
  fault_access : access;
  fault_reason : string;
}

exception Npf of npf_info
exception Cvm_halted of string

let page_shift = 12
let page_size = 1 lsl page_shift

let gpfn_of_gpa gpa = gpa lsr page_shift
let gpa_of_gpfn gpfn = gpfn lsl page_shift
let page_offset gpa = gpa land (page_size - 1)

let vmpl_index = function Vmpl0 -> 0 | Vmpl1 -> 1 | Vmpl2 -> 2 | Vmpl3 -> 3

let vmpl_strictly_higher a b = vmpl_index a < vmpl_index b

let pp_vmpl fmt v = Format.fprintf fmt "VMPL-%d" (vmpl_index v)
let pp_cpl fmt c = Format.fprintf fmt "CPL-%d" (match c with Cpl0 -> 0 | Cpl3 -> 3)

let pp_access fmt = function
  | Read -> Format.pp_print_string fmt "read"
  | Write -> Format.pp_print_string fmt "write"
  | Execute -> Format.pp_print_string fmt "execute"

let pp_npf fmt i =
  Format.fprintf fmt "#NPF{gpa=0x%x vmpl=%a access=%a: %s}" i.fault_gpa pp_vmpl i.fault_vmpl
    pp_access i.fault_access i.fault_reason

let equal_vmpl (a : vmpl) b = a = b
