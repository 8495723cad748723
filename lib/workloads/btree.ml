let page_size = 4096
let key_size = 16
let value_size = 64

(* Leaf layout:     [0]=1  [1..2]=nkeys  then nkeys * (key ++ value)
   Internal layout: [0]=2  [1..2]=nkeys  then nkeys * (key ++ child:u32)
                    followed by one extra child:u32 (rightmost).
   Page 0 is the header: [0..3]=root page, [4..7]=page count. *)

let leaf_capacity = (page_size - 3) / (key_size + value_size) (* 51 *)
let internal_capacity = (page_size - 3 - 4) / (key_size + 4) (* ~204 *)

type cached = { mutable data : bytes; mutable dirty : bool; mutable last_use : int }

type t = {
  env : Env.t;
  fd : int;
  path : string;
  cache : (int, cached) Hashtbl.t;
  cache_limit : int;
  mutable tick : int;
  mutable root : int;
  mutable npages : int;
  mutable entries : int;
}

let pad size b =
  if Bytes.length b > size then invalid_arg "Btree: key/value too large"
  else if Bytes.length b = size then b
  else begin
    let p = Bytes.make size '\000' in
    Bytes.blit b 0 p 0 (Bytes.length b);
    p
  end

(* --- paging --- *)

let write_page_raw t page data = ignore (Env.pwrite t.env t.fd data ~pos:(page * page_size))

let read_page_raw t page =
  let b = Env.pread t.env t.fd ~len:page_size ~pos:(page * page_size) in
  if Bytes.length b < page_size then begin
    let full = Bytes.make page_size '\000' in
    Bytes.blit b 0 full 0 (Bytes.length b);
    full
  end
  else b

(* Evict the LRU page, but never one touched within the last few
   operations — an insert holds up to a handful of node buffers across
   nested calls, and those must stay write-through coherent. *)
let evict_one t =
  if Hashtbl.length t.cache >= t.cache_limit then begin
    let victim = ref (-1) and oldest = ref max_int in
    Hashtbl.iter
      (fun page c ->
        if c.last_use < !oldest && c.last_use <= t.tick - 8 then begin
          oldest := c.last_use;
          victim := page
        end)
      t.cache;
    if !victim >= 0 then begin
      let c = Hashtbl.find t.cache !victim in
      if c.dirty then write_page_raw t !victim c.data;
      Hashtbl.remove t.cache !victim
    end
  end

let get_page t page =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.cache page with
  | Some c ->
      t.env.Env.compute 120 (* cache lookup + pin *);
      c.last_use <- t.tick;
      c.data
  | None ->
      evict_one t;
      let data = read_page_raw t page in
      Hashtbl.replace t.cache page { data; dirty = false; last_use = t.tick };
      data

let mark_dirty t page =
  match Hashtbl.find_opt t.cache page with
  | Some c -> c.dirty <- true
  | None -> ()

let alloc_page t =
  let p = t.npages in
  t.npages <- p + 1;
  t.tick <- t.tick + 1;
  evict_one t;
  Hashtbl.replace t.cache p { data = Bytes.make page_size '\000'; dirty = true; last_use = t.tick };
  p

let flush_header t =
  let h = Bytes.make page_size '\000' in
  Bytes.set_int32_le h 0 (Int32.of_int t.root);
  Bytes.set_int32_le h 4 (Int32.of_int t.npages);
  Bytes.set_int32_le h 8 (Int32.of_int t.entries);
  write_page_raw t 0 h

(* --- node accessors --- *)

let node_kind data = Char.code (Bytes.get data 0)
let node_nkeys data = Bytes.get_uint16_le data 1
let set_node_header data kind nkeys =
  Bytes.set data 0 (Char.chr kind);
  Bytes.set_uint16_le data 1 nkeys

let leaf_key data i = Bytes.sub data (3 + (i * (key_size + value_size))) key_size
let leaf_value data i = Bytes.sub data (3 + (i * (key_size + value_size)) + key_size) value_size

let leaf_set data i key value =
  Bytes.blit key 0 data (3 + (i * (key_size + value_size))) key_size;
  Bytes.blit value 0 data (3 + (i * (key_size + value_size)) + key_size) value_size

let int_key data i = Bytes.sub data (3 + (i * (key_size + 4))) key_size
let int_child data i =
  if i = node_nkeys data then Int32.to_int (Bytes.get_int32_le data (3 + (node_nkeys data * (key_size + 4))))
  else Int32.to_int (Bytes.get_int32_le data (3 + (i * (key_size + 4)) + key_size))

let int_set_key data i key = Bytes.blit key 0 data (3 + (i * (key_size + 4))) key_size

let int_set_child data i child =
  let nkeys = node_nkeys data in
  if i = nkeys then Bytes.set_int32_le data (3 + (nkeys * (key_size + 4))) (Int32.of_int child)
  else Bytes.set_int32_le data (3 + (i * (key_size + 4)) + key_size) (Int32.of_int child)

(* --- open/create --- *)

let create env ~path =
  let fd = Env.open_ env path ~flags:(Env.o_creat lor Env.o_rdwr) ~mode:0o644 in
  let size = try Env.stat_size env path with Env.Sys_error _ -> 0 in
  let t =
    {
      env;
      fd;
      path;
      cache = Hashtbl.create 64;
      cache_limit = 48;
      tick = 0;
      root = 1;
      npages = 2;
      entries = 0;
    }
  in
  if size >= page_size then begin
    let h = read_page_raw t 0 in
    t.root <- Int32.to_int (Bytes.get_int32_le h 0);
    t.npages <- Int32.to_int (Bytes.get_int32_le h 4);
    t.entries <- Int32.to_int (Bytes.get_int32_le h 8)
  end
  else begin
    (* fresh: page 1 is an empty leaf *)
    let leaf = Bytes.make page_size '\000' in
    set_node_header leaf 1 0;
    write_page_raw t 1 leaf;
    flush_header t
  end;
  t

(* --- search --- *)

let rec find_in t page key =
  let data = get_page t page in
  let nkeys = node_nkeys data in
  t.env.Env.compute (80 + (12 * nkeys)) (* binary search modelled linear for small n *);
  if node_kind data = 1 then begin
    let rec scan i =
      if i >= nkeys then None
      else begin
        let c = Bytes.compare (leaf_key data i) key in
        if c = 0 then Some (leaf_value data i) else if c > 0 then None else scan (i + 1)
      end
    in
    scan 0
  end
  else begin
    let rec pick i = if i < nkeys && Bytes.compare (int_key data i) key <= 0 then pick (i + 1) else i in
    find_in t (int_child data (pick 0)) key
  end

let find t ~key = find_in t t.root (pad key_size key)

(* --- insert --- *)

(* Insert into the subtree at [page]; returns [Some (sep, right_page)]
   when the node split. *)
let rec insert_in t page key value =
  let data = get_page t page in
  let nkeys = node_nkeys data in
  t.env.Env.compute (100 + (14 * nkeys));
  if node_kind data = 1 then begin
    (* find position / overwrite *)
    let rec pos i =
      if i >= nkeys then i
      else begin
        let c = Bytes.compare (leaf_key data i) key in
        if c >= 0 then i else pos (i + 1)
      end
    in
    let i = pos 0 in
    if i < nkeys && Bytes.equal (leaf_key data i) key then begin
      leaf_set data i key value;
      mark_dirty t page;
      None
    end
    else if nkeys < leaf_capacity then begin
      (* shift right *)
      for j = nkeys - 1 downto i do
        leaf_set data (j + 1) (leaf_key data j) (leaf_value data j)
      done;
      leaf_set data i key value;
      set_node_header data 1 (nkeys + 1);
      mark_dirty t page;
      t.entries <- t.entries + 1;
      None
    end
    else begin
      (* split leaf *)
      let mid = nkeys / 2 in
      let right_page = alloc_page t in
      let right = get_page t right_page in
      set_node_header right 1 (nkeys - mid);
      for j = mid to nkeys - 1 do
        leaf_set right (j - mid) (leaf_key data j) (leaf_value data j)
      done;
      set_node_header data 1 mid;
      mark_dirty t page;
      mark_dirty t right_page;
      let sep = leaf_key right 0 in
      (* insert into the proper half *)
      let target = if Bytes.compare key sep < 0 then page else right_page in
      ignore (insert_in t target key value);
      Some (sep, right_page)
    end
  end
  else begin
    let rec pick i = if i < nkeys && Bytes.compare (int_key data i) key <= 0 then pick (i + 1) else i in
    let slot = pick 0 in
    match insert_in t (int_child data slot) key value with
    | None -> None
    | Some (sep, right_child) ->
        let data = get_page t page in
        let nkeys = node_nkeys data in
        if nkeys < internal_capacity then begin
          (* rebuild with (sep, right_child) spliced in at [slot] —
             the last-child slot changes location when nkeys grows, so
             a full rewrite is the only safe update *)
          let keys = Array.init nkeys (fun j -> int_key data j) in
          let children = Array.init (nkeys + 1) (fun j -> int_child data j) in
          set_node_header data 2 (nkeys + 1);
          for j = 0 to nkeys do
            if j < slot then int_set_key data j keys.(j)
            else if j = slot then int_set_key data j sep
            else int_set_key data j keys.(j - 1)
          done;
          for j = 0 to nkeys + 1 do
            if j <= slot then int_set_child data j children.(j)
            else if j = slot + 1 then int_set_child data j right_child
            else int_set_child data j children.(j - 1)
          done;
          mark_dirty t page;
          None
        end
        else begin
          (* split internal node *)
          let keys = Array.init nkeys (fun j -> int_key data j) in
          let children = Array.init (nkeys + 1) (fun j -> int_child data j) in
          (* conceptually insert (sep, right_child) at slot *)
          let all_keys = Array.make (nkeys + 1) sep in
          let all_children = Array.make (nkeys + 2) right_child in
          Array.blit keys 0 all_keys 0 slot;
          all_keys.(slot) <- sep;
          Array.blit keys slot all_keys (slot + 1) (nkeys - slot);
          Array.blit children 0 all_children 0 (slot + 1);
          all_children.(slot + 1) <- right_child;
          Array.blit children (slot + 1) all_children (slot + 2) (nkeys - slot);
          let total = nkeys + 1 in
          let mid = total / 2 in
          let up_key = all_keys.(mid) in
          let right_page = alloc_page t in
          let right = get_page t right_page in
          set_node_header right 2 (total - mid - 1);
          for j = mid + 1 to total - 1 do
            int_set_key right (j - mid - 1) all_keys.(j)
          done;
          for j = mid + 1 to total do
            int_set_child right (j - mid - 1) all_children.(j)
          done;
          set_node_header data 2 mid;
          for j = 0 to mid - 1 do
            int_set_key data j all_keys.(j)
          done;
          for j = 0 to mid do
            int_set_child data j all_children.(j)
          done;
          mark_dirty t page;
          mark_dirty t right_page;
          Some (up_key, right_page)
        end
  end

let insert t ~key ~value =
  let key = pad key_size key and value = pad value_size value in
  match insert_in t t.root key value with
  | None -> ()
  | Some (sep, right) ->
      let new_root = alloc_page t in
      let data = get_page t new_root in
      set_node_header data 2 1;
      int_set_key data 0 sep;
      int_set_child data 0 t.root;
      int_set_child data 1 right;
      mark_dirty t new_root;
      t.root <- new_root

let iter t f =
  let rec go page =
    let data = get_page t page in
    if node_kind data = 1 then
      for i = 0 to node_nkeys data - 1 do
        f (leaf_key data i) (leaf_value data i)
      done
    else
      for i = 0 to node_nkeys data do
        go (int_child data i)
      done
  in
  go t.root

let iter_count t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let flush t =
  Hashtbl.iter
    (fun page c ->
      if c.dirty then begin
        write_page_raw t page c.data;
        c.dirty <- false
      end)
    t.cache;
  flush_header t;
  Env.fsync t.env t.fd

let close t =
  flush t;
  Env.close t.env t.fd

let height t =
  let rec go page acc =
    let data = get_page t page in
    if node_kind data = 1 then acc else go (int_child data 0) (acc + 1)
  in
  go t.root 1
