type node_kind = Regular | Directory | Device of string

type node = {
  ino : int;
  mutable kind : kind_impl;
  mutable mode : int;
}

and kind_impl =
  | KFile of file
  | KDir of (string, node) Hashtbl.t
  | KDev of string
  | KSymlink of string

(* File data lives in [chunk]-byte pieces, so growth never copies
   stored bytes.  Chunk [i] is allocated, zero-filled, once the size
   reaches into it ([i < chunks_for size]); slots beyond hold
   [Bytes.empty].  Bytes at or past [size] are always zero, so growing
   the file exposes zeros without a fill. *)
and file = { mutable chunks : bytes array; mutable size : int }

let chunk = 4096

let chunks_for size = (size + chunk - 1) / chunk

(* Set the size to [len], allocating only the chunks it newly reaches
   or zeroing the bytes it cuts off and dropping emptied chunks. *)
let resize f len =
  let have = chunks_for f.size and want = chunks_for len in
  if want > Array.length f.chunks then begin
    let grown = Array.make (max want (2 * Array.length f.chunks)) Bytes.empty in
    Array.blit f.chunks 0 grown 0 have;
    f.chunks <- grown
  end;
  for i = have to want - 1 do
    f.chunks.(i) <- Bytes.make chunk '\000'
  done;
  if len < f.size then begin
    if len mod chunk > 0 then
      Bytes.fill f.chunks.(want - 1) (len mod chunk) (min f.size (want * chunk) - len) '\000';
    Array.fill f.chunks want (have - want) Bytes.empty
  end;
  f.size <- len

(* [g c coff off n] for each piece of bytes [pos, pos + len) of [f]:
   [n] bytes at [coff] in chunk [c], at [off] from [pos]. *)
let iter_chunks f ~pos ~len g =
  let pos = ref pos and off = ref 0 in
  while !off < len do
    let n = min (len - !off) (chunk - (!pos mod chunk)) in
    g f.chunks.(!pos / chunk) (!pos mod chunk) !off n;
    pos := !pos + n;
    off := !off + n
  done

type t = {
  root : node;
  rng : Veil_crypto.Rng.t;
  mutable console : string list;
      (** writes to /dev/console, newest first: a [Buffer.t]'s unused
          capacity is uninitialized memory, which would make two boots'
          marshalled images differ (Veil-Explore forks from one) *)
  mutable next_ino : int;
}

let fresh_ino t =
  let i = t.next_ino in
  t.next_ino <- i + 1;
  i

let new_dir t = { ino = fresh_ino t; kind = KDir (Hashtbl.create 8); mode = 0o755 }
let new_file t ~mode = { ino = fresh_ino t; kind = KFile { chunks = [||]; size = 0 }; mode }

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

(* Resolve to a node, following symlinks a bounded number of times. *)
let rec resolve ?(depth = 0) t node components =
  if depth > 8 then Error Ktypes.ENOENT
  else begin
    match components with
    | [] -> Ok node
    | name :: rest -> (
        match node.kind with
        | KDir entries -> (
            match Hashtbl.find_opt entries name with
            | None -> Error Ktypes.ENOENT
            | Some child -> (
                match child.kind with
                | KSymlink target -> resolve ~depth:(depth + 1) t t.root (split_path target @ rest)
                | _ -> resolve ~depth t child rest))
        | KFile _ | KDev _ | KSymlink _ -> Error Ktypes.ENOTDIR)
  end

let lookup t path = resolve t t.root (split_path path)

let lookup_parent t path =
  match List.rev (split_path path) with
  | [] -> Error Ktypes.EINVAL
  | name :: rev_parents -> (
      match resolve t t.root (List.rev rev_parents) with
      | Error e -> Error e
      | Ok parent -> (
          match parent.kind with
          | KDir entries -> Ok (parent, entries, name)
          | _ -> Error Ktypes.ENOTDIR))

let create rng =
  let t =
    {
      root = { ino = 1; kind = KDir (Hashtbl.create 16); mode = 0o755 };
      rng;
      console = [];
      next_ino = 2;
    }
  in
  let add_dir path =
    match lookup_parent t path with
    | Ok (_, entries, name) -> Hashtbl.replace entries name (new_dir t)
    | Error _ -> assert false
  in
  add_dir "/tmp";
  add_dir "/dev";
  add_dir "/etc";
  add_dir "/var";
  add_dir "/var/log";
  add_dir "/srv";
  let add_dev path which =
    match lookup_parent t path with
    | Ok (_, entries, name) -> Hashtbl.replace entries name { ino = fresh_ino t; kind = KDev which; mode = 0o666 }
    | Error _ -> assert false
  in
  add_dev "/dev/null" "null";
  add_dev "/dev/urandom" "urandom";
  add_dev "/dev/console" "console";
  t

let console_output t = String.concat "" (List.rev t.console)

let mkdir t path =
  match lookup_parent t path with
  | Error e -> Error e
  | Ok (_, entries, name) ->
      if Hashtbl.mem entries name then Error Ktypes.EEXIST
      else begin
        Hashtbl.replace entries name (new_dir t);
        Ok ()
      end

let rmdir t path =
  match lookup_parent t path with
  | Error e -> Error e
  | Ok (_, entries, name) -> (
      match Hashtbl.find_opt entries name with
      | None -> Error Ktypes.ENOENT
      | Some { kind = KDir sub; _ } ->
          if Hashtbl.length sub > 0 then Error Ktypes.EINVAL
          else begin
            Hashtbl.remove entries name;
            Ok ()
          end
      | Some _ -> Error Ktypes.ENOTDIR)

let create_file t path ~mode =
  match lookup_parent t path with
  | Error e -> Error e
  | Ok (_, entries, name) ->
      if Hashtbl.mem entries name then Error Ktypes.EEXIST
      else begin
        Hashtbl.replace entries name (new_file t ~mode);
        Ok ()
      end

let unlink t path =
  match lookup_parent t path with
  | Error e -> Error e
  | Ok (_, entries, name) -> (
      match Hashtbl.find_opt entries name with
      | None -> Error Ktypes.ENOENT
      | Some { kind = KDir _; _ } -> Error Ktypes.EISDIR
      | Some _ ->
          Hashtbl.remove entries name;
          Ok ())

let rename t src dst =
  match (lookup_parent t src, lookup_parent t dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok (_, src_entries, src_name), Ok (_, dst_entries, dst_name) -> (
      match Hashtbl.find_opt src_entries src_name with
      | None -> Error Ktypes.ENOENT
      | Some node ->
          Hashtbl.remove src_entries src_name;
          Hashtbl.replace dst_entries dst_name node;
          Ok ())

let link t existing newpath =
  match (lookup t existing, lookup_parent t newpath) with
  | Error e, _ | _, Error e -> Error e
  | Ok node, Ok (_, entries, name) -> (
      match node.kind with
      | KDir _ -> Error Ktypes.EISDIR
      | _ ->
          if Hashtbl.mem entries name then Error Ktypes.EEXIST
          else begin
            Hashtbl.replace entries name node;
            Ok ()
          end)

let symlink t ~target ~linkpath =
  match lookup_parent t linkpath with
  | Error e -> Error e
  | Ok (_, entries, name) ->
      if Hashtbl.mem entries name then Error Ktypes.EEXIST
      else begin
        Hashtbl.replace entries name { ino = fresh_ino t; kind = KSymlink target; mode = 0o777 };
        Ok ()
      end

let readlink t path =
  (* Look up the link node itself (no final deref). *)
  match lookup_parent t path with
  | Error e -> Error e
  | Ok (_, entries, name) -> (
      match Hashtbl.find_opt entries name with
      | Some { kind = KSymlink target; _ } -> Ok target
      | Some _ -> Error Ktypes.EINVAL
      | None -> Error Ktypes.ENOENT)

let exists t path = match lookup t path with Ok _ -> true | Error _ -> false

let kind_of t path =
  match lookup t path with
  | Error _ -> None
  | Ok n -> (
      match n.kind with
      | KFile _ -> Some Regular
      | KDir _ -> Some Directory
      | KDev d -> Some (Device d)
      | KSymlink _ -> Some Regular)

let stat t path =
  match lookup t path with
  | Error e -> Error e
  | Ok n ->
      let size, is_dir =
        match n.kind with
        | KFile f -> (f.size, false)
        | KDir entries -> (Hashtbl.length entries, true)
        | KDev _ | KSymlink _ -> (0, false)
      in
      Ok { Ktypes.st_size = size; st_is_dir = is_dir; st_mode = n.mode; st_ino = n.ino }

let chmod t path mode =
  match lookup t path with
  | Error e -> Error e
  | Ok n ->
      n.mode <- mode land 0o7777;
      Ok ()

let with_file t path f =
  match lookup t path with
  | Error e -> Error e
  | Ok n -> (
      match n.kind with
      | KFile file -> f file
      | KDir _ -> Error Ktypes.EISDIR
      | KDev _ | KSymlink _ -> Error Ktypes.EINVAL)

let truncate t path len =
  if len < 0 then Error Ktypes.EINVAL
  else
    with_file t path (fun f ->
        resize f len;
        Ok ())

let readdir t path =
  match lookup t path with
  | Error e -> Error e
  | Ok n -> (
      match n.kind with
      | KDir entries -> Ok (Hashtbl.fold (fun k _ acc -> k :: acc) entries [] |> List.sort String.compare)
      | _ -> Error Ktypes.ENOTDIR)

let read_at t path ~pos ~len =
  if pos < 0 || len < 0 then Error Ktypes.EINVAL
  else begin
    match lookup t path with
    | Error e -> Error e
    | Ok n -> (
        match n.kind with
        | KDev "null" -> Ok Bytes.empty
        | KDev "urandom" -> Ok (Veil_crypto.Rng.bytes t.rng len)
        | KDev "console" -> Ok Bytes.empty
        | KDev _ -> Error Ktypes.EINVAL
        | KDir _ -> Error Ktypes.EISDIR
        | KSymlink _ -> Error Ktypes.EINVAL
        | KFile f ->
            if pos >= f.size then Ok Bytes.empty
            else begin
              let len = min len (f.size - pos) in
              let out = Bytes.create len in
              iter_chunks f ~pos ~len (fun c coff off n -> Bytes.blit c coff out off n);
              Ok out
            end)
  end

let write_at t path ~pos data =
  let len = Bytes.length data in
  if pos < 0 then Error Ktypes.EINVAL
  else begin
    match lookup t path with
    | Error e -> Error e
    | Ok n -> (
        match n.kind with
        | KDev "null" -> Ok len
        | KDev "console" ->
            t.console <- Bytes.to_string data :: t.console;
            Ok len
        | KDev "urandom" -> Ok len
        | KDev _ -> Error Ktypes.EINVAL
        | KDir _ -> Error Ktypes.EISDIR
        | KSymlink _ -> Error Ktypes.EINVAL
        | KFile f ->
            if pos + len > f.size then resize f (pos + len);
            iter_chunks f ~pos ~len (fun c coff off n -> Bytes.blit data off c coff n);
            Ok len)
  end

let size_of t path =
  match stat t path with Ok s -> Ok s.Ktypes.st_size | Error e -> Error e
