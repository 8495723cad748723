(* Chunked arena: guest-physical space is carved into 64-page (256 KiB)
   chunks materialized on first write, preserving the old sparse
   lazy-zero-fill semantics while making the common access a single
   array load + blit instead of a Hashtbl probe per page.  A per-page
   touched byte keeps [page_is_materialized]'s write-tracking
   semantics.

   A chunk may be shared with other instances (Veil-Explore forks all
   attach one snapshot's chunks): its [shared] byte is set, readers
   use it in place, and the first write copies it.  Every writer goes
   through [chunk_rw], so no write reaches a shared chunk. *)

let chunk_page_bits = 6
let chunk_pages = 1 lsl chunk_page_bits
let chunk_shift = Types.page_shift + chunk_page_bits
let chunk_bytes = 1 lsl chunk_shift

type t = {
  npages : int;
  nbytes : int;
  chunks : bytes array;
  shared : Bytes.t;  (* one byte per chunk: '\001' = copy before writing *)
  empty : bytes;
      (* this instance's unmaterialized-slot sentinel: one block for
         every empty slot, so a detached instance marshals like a
         fresh one *)
  touched : Bytes.t;
}

let create ~npages =
  if npages <= 0 then invalid_arg "Phys_mem.create";
  let nchunks = (npages + chunk_pages - 1) / chunk_pages in
  let empty = Bytes.create 0 in
  {
    npages;
    nbytes = npages * Types.page_size;
    chunks = Array.make nchunks empty;
    shared = Bytes.make nchunks '\000';
    empty;
    touched = Bytes.make npages '\000';
  }

let npages t = t.npages
let bytes_size t = t.nbytes

let valid_gpa t gpa = gpa >= 0 && gpa < t.nbytes

let check_range t gpa len =
  (* [gpa > t.nbytes - len], not [gpa + len > t.nbytes]: the sum can
     overflow for a huge attacker-supplied gpa and slip past the check
     straight into an [unsafe_get]. *)
  if len < 0 || gpa < 0 || gpa > t.nbytes - len then
    invalid_arg (Printf.sprintf "Phys_mem: access 0x%x+%d out of range" gpa len)

(* the chunk holding [gpa], private to this instance: materialized
   if empty, copied if shared *)
let chunk_rw t gpa =
  let ci = gpa lsr chunk_shift in
  let c = Array.unsafe_get t.chunks ci in
  if Bytes.length c <> 0 && Bytes.unsafe_get t.shared ci = '\000' then c
  else begin
    let c = if Bytes.length c = 0 then Bytes.make chunk_bytes '\000' else Bytes.copy c in
    Bytes.unsafe_set t.shared ci '\000';
    Array.unsafe_set t.chunks ci c;
    c
  end

let mark_written t gpa len =
  if len > 0 then begin
    let first = Types.gpfn_of_gpa gpa and last = Types.gpfn_of_gpa (gpa + len - 1) in
    if first = last then Bytes.set t.touched first '\001'
    else Bytes.fill t.touched first (last - first + 1) '\001'
  end

let read_into t gpa buf pos len =
  check_range t gpa len;
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then invalid_arg "Phys_mem.read_into";
  let p = ref 0 in
  while !p < len do
    let a = gpa + !p in
    let off = a land (chunk_bytes - 1) in
    let n = min (len - !p) (chunk_bytes - off) in
    let c = Array.unsafe_get t.chunks (a lsr chunk_shift) in
    if Bytes.length c = 0 then Bytes.fill buf (pos + !p) n '\000'
    else Bytes.blit c off buf (pos + !p) n;
    p := !p + n
  done

let read t gpa len =
  check_range t gpa len;
  let out = Bytes.create len in
  read_into t gpa out 0 len;
  out

let write_sub t gpa data pos len =
  check_range t gpa len;
  if pos < 0 || len < 0 || pos + len > Bytes.length data then invalid_arg "Phys_mem.write_sub";
  mark_written t gpa len;
  let p = ref 0 in
  while !p < len do
    let a = gpa + !p in
    let off = a land (chunk_bytes - 1) in
    let n = min (len - !p) (chunk_bytes - off) in
    Bytes.blit data (pos + !p) (chunk_rw t a) off n;
    p := !p + n
  done

let write t gpa data = write_sub t gpa data 0 (Bytes.length data)

let read_byte t gpa =
  check_range t gpa 1;
  let c = Array.unsafe_get t.chunks (gpa lsr chunk_shift) in
  if Bytes.length c = 0 then 0 else Char.code (Bytes.unsafe_get c (gpa land (chunk_bytes - 1)))

let write_byte t gpa v =
  check_range t gpa 1;
  Bytes.set t.touched (Types.gpfn_of_gpa gpa) '\001';
  Bytes.unsafe_set (chunk_rw t gpa) (gpa land (chunk_bytes - 1)) (Char.chr (v land 0xff))

(* Fault-injection support (Veil-Chaos): DRAM disturbance in a single
   bit.  The caller (Platform) is responsible for restricting this to
   Shared frames — private-page integrity is SNP's hardware guarantee
   and is never subject to injection. *)
let flip_bit t gpa bit = write_byte t gpa (read_byte t gpa lxor (1 lsl (bit land 7)))

(* The u64 accessors compose bytes by hand rather than via
   [Bytes.get_int64_le]: an 8-load spill is still a handful of ns and,
   unlike an intermediate [Int64], allocates nothing — the TLB-hit
   read path's zero-allocation contract depends on it. *)
let read_u64 t gpa =
  check_range t gpa 8;
  let off = gpa land (chunk_bytes - 1) in
  if off <= chunk_bytes - 8 then begin
    let c = Array.unsafe_get t.chunks (gpa lsr chunk_shift) in
    if Bytes.length c = 0 then 0
    else
      (Char.code (Bytes.unsafe_get c off)
       lor (Char.code (Bytes.unsafe_get c (off + 1)) lsl 8)
       lor (Char.code (Bytes.unsafe_get c (off + 2)) lsl 16)
       lor (Char.code (Bytes.unsafe_get c (off + 3)) lsl 24)
       lor (Char.code (Bytes.unsafe_get c (off + 4)) lsl 32)
       lor (Char.code (Bytes.unsafe_get c (off + 5)) lsl 40)
       lor (Char.code (Bytes.unsafe_get c (off + 6)) lsl 48)
       lor (Char.code (Bytes.unsafe_get c (off + 7)) lsl 56))
      land max_int
  end
  else begin
    (* straddles a chunk boundary *)
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor read_byte t (gpa + i)
    done;
    !v land max_int
  end

let write_u64 t gpa v =
  check_range t gpa 8;
  mark_written t gpa 8;
  let off = gpa land (chunk_bytes - 1) in
  if off <= chunk_bytes - 8 then begin
    let c = chunk_rw t gpa in
    Bytes.unsafe_set c off (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set c (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set c (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set c (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xff));
    Bytes.unsafe_set c (off + 4) (Char.unsafe_chr ((v lsr 32) land 0xff));
    Bytes.unsafe_set c (off + 5) (Char.unsafe_chr ((v lsr 40) land 0xff));
    Bytes.unsafe_set c (off + 6) (Char.unsafe_chr ((v lsr 48) land 0xff));
    Bytes.unsafe_set c (off + 7) (Char.unsafe_chr ((v lsr 56) land 0xff))
  end
  else
    for i = 0 to 7 do
      write_byte t (gpa + i) ((v lsr (8 * i)) land 0xff)
    done

let zero_page t gpfn =
  if gpfn < 0 || gpfn >= t.npages then invalid_arg "Phys_mem.zero_page";
  let gpa = Types.gpa_of_gpfn gpfn in
  if Bytes.length (Array.unsafe_get t.chunks (gpa lsr chunk_shift)) <> 0 then
    Bytes.fill (chunk_rw t gpa) (gpa land (chunk_bytes - 1)) Types.page_size '\000'

let page_is_materialized t gpfn =
  gpfn >= 0 && gpfn < t.npages && Bytes.get t.touched gpfn <> '\000'

let detach t =
  let chunks = Array.copy t.chunks in
  Array.fill t.chunks 0 (Array.length chunks) t.empty;
  Bytes.fill t.shared 0 (Bytes.length t.shared) '\000';
  chunks

let attach t chunks =
  if Array.length chunks <> Array.length t.chunks then invalid_arg "Phys_mem.attach";
  Array.iteri
    (fun ci c ->
      if Bytes.length c <> 0 then begin
        Array.unsafe_set t.chunks ci c;
        Bytes.unsafe_set t.shared ci '\001'
      end)
    chunks
