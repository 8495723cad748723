type t = {
  base : int;
  size : int;
  mutable free_list : (int * int) list;  (** (addr, size), address-ordered *)
  live : (int, int) Hashtbl.t;  (** addr -> size *)
  mutable allocated : int;
}

let align = 16

let round_up n = (n + align - 1) / align * align

let create ~base ~size =
  if base <= 0 || size < align then invalid_arg "Dlmalloc.create";
  { base; size; free_list = [ (base, size) ]; live = Hashtbl.create 64; allocated = 0 }

let malloc t n =
  if n <= 0 then None
  else begin
    let need = round_up n in
    (* first fit *)
    let rec take acc = function
      | [] -> None
      | (addr, size) :: rest when size >= need ->
          let remainder = if size > need then [ (addr + need, size - need) ] else [] in
          t.free_list <- List.rev_append acc (remainder @ rest);
          Hashtbl.replace t.live addr need;
          t.allocated <- t.allocated + need;
          Some addr
      | blk :: rest -> take (blk :: acc) rest
    in
    take [] t.free_list
  end

let insert_coalesced free_list (addr, size) =
  (* Address-sort, then one linear coalescing pass. *)
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) ((addr, size) :: free_list) in
  let rec coalesce = function
    | (a1, s1) :: (a2, s2) :: rest when a1 + s1 = a2 -> coalesce ((a1, s1 + s2) :: rest)
    | blk :: rest -> blk :: coalesce rest
    | [] -> []
  in
  coalesce sorted

let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg (Printf.sprintf "Dlmalloc.free: 0x%x is not a live allocation" addr)
  | Some size ->
      Hashtbl.remove t.live addr;
      t.allocated <- t.allocated - size;
      t.free_list <- insert_coalesced t.free_list (addr, size)

let block_size t addr = Hashtbl.find_opt t.live addr

let free_bytes t = List.fold_left (fun acc (_, s) -> acc + s) 0 t.free_list

let check_invariants t =
  let rec sorted_disjoint = function
    | (a1, s1) :: ((a2, _) :: _ as rest) -> a1 + s1 < a2 && sorted_disjoint rest
    | _ -> true
  in
  let in_bounds = List.for_all (fun (a, s) -> a >= t.base && a + s <= t.base + t.size) t.free_list in
  let live_total = Hashtbl.fold (fun _ s acc -> acc + s) t.live 0 in
  sorted_disjoint t.free_list && in_bounds
  && live_total = t.allocated
  && live_total + free_bytes t <= t.size
