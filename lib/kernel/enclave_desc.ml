type page_kind = Code | Data | Stack | Heap

type page = { page_va : Sevsnp.Types.va; page_gpfn : Sevsnp.Types.gpfn; page_kind : page_kind }

type t = {
  enclave_id : int;
  owner_pid : int;
  base_va : Sevsnp.Types.va;
  entry_va : Sevsnp.Types.va;
  pages : page list;
  ghcb_gpfn : Sevsnp.Types.gpfn;
  ghcb_va : Sevsnp.Types.va;
  shared : (Sevsnp.Types.va * Sevsnp.Types.gpfn) list;
  mutable measurement : bytes option;
}

let prot_of_kind = function
  | Code -> Ktypes.prot_rx
  | Data | Stack | Heap -> Ktypes.prot_rw

let kind_to_string = function Code -> "code" | Data -> "data" | Stack -> "stack" | Heap -> "heap"

let npages t = List.length t.pages

let frames t = List.map (fun p -> p.page_gpfn) t.pages
