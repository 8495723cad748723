type t = { ctx : Sha256.ctx }

let add_framed ctx tag payload =
  let header = Printf.sprintf "%s:%d:" tag (Bytes.length payload) in
  Sha256.update_string ctx header;
  Sha256.update ctx payload

let create ~domain =
  let ctx = Sha256.init () in
  add_framed ctx "domain" (Bytes.of_string domain);
  { ctx }

let add_bytes t ~label b = add_framed t.ctx label b
let add_string t ~label s = add_bytes t ~label (Bytes.of_string s)
let add_int t ~label n = add_string t ~label (string_of_int n)

let digest t = Sha256.finalize t.ctx
