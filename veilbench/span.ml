(* Host-clock spans: name, start, end, parent and op id around every
   public call the benchmark makes.  Kept in memory; the caller writes
   them once at exit. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = { id : int; parent : int; op : int; start_ns : int; end_ns : int; name : string }

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 1
let open_ids : int list ref = ref []

(* [f ()] inside a span; returns its result and its host duration in ns.
   With recording off this is just the two clock reads. *)
let timed ?(op = 0) name f =
  if not !enabled then begin
    let t0 = now_ns () in
    let v = f () in
    (v, now_ns () - t0)
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    open_ids := id :: !open_ids;
    let t0 = now_ns () in
    let close () =
      let t1 = now_ns () in
      open_ids := List.tl !open_ids;
      recorded := { id; parent; op; start_ns = t0; end_ns = t1; name } :: !recorded;
      t1 - t0
    in
    match f () with
    | v -> (v, close ())
    | exception e ->
        ignore (close ());
        raise e
  end

let with_span ?op name f = fst (timed ?op name f)

(* [n] timed calls of [f] after [warmup] untimed ones; [between i] runs
   untimed before sample [i].  Returns the durations in ns. *)
let sample ?(warmup = 20) ?(between = fun _ -> ()) ~n name f =
  for _ = 1 to warmup do
    f ()
  done;
  Array.init n (fun i ->
      between i;
      snd (timed ~op:i name f))

let to_json () =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "[%d,%d,%d,%d,%d,\"%s\"]" s.id s.parent s.op s.start_ns s.end_ns s.name)
    (List.rev !recorded);
  Buffer.add_char b ']';
  Buffer.contents b

(* --- order statistics --- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Nearest-rank percentile: at n samples, p leaves n - ceil(p/100 n)
   samples above it. *)
let percentile p a =
  let s = sorted a in
  let n = Array.length s in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))
