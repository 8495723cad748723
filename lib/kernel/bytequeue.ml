type t = { chunks : bytes Queue.t; mutable off : int; mutable len : int }

let create () = { chunks = Queue.create (); off = 0; len = 0 }
let length t = t.len

let push t data =
  let n = Bytes.length data in
  if n > 0 then begin
    Queue.push (Bytes.copy data) t.chunks;
    t.len <- t.len + n
  end

let take t n =
  let n = min n t.len in
  if n <= 0 then Bytes.empty
  else begin
    t.len <- t.len - n;
    let head = Queue.peek t.chunks in
    if t.off = 0 && n = Bytes.length head then Queue.pop t.chunks
    else begin
      let out = Bytes.create n in
      let pos = ref 0 in
      while !pos < n do
        let head = Queue.peek t.chunks in
        let k = min (Bytes.length head - t.off) (n - !pos) in
        Bytes.blit head t.off out !pos k;
        pos := !pos + k;
        if t.off + k = Bytes.length head then begin
          ignore (Queue.pop t.chunks);
          t.off <- 0
        end
        else t.off <- t.off + k
      done;
      out
    end
  end
