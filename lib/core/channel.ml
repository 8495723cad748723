module C = Sevsnp.Cycles

(* Typed channel errors.  The one the fleet teardown/reconnect path
   cares about is [Disconnected]: the session is gone (never
   established, explicitly dropped, or the guest restarted underneath
   us) and the correct reaction is re-attest + retry — unlike an
   attestation refusal or detected tampering, which retrying cannot
   fix and must surface to the operator. *)
type error =
  | Disconnected  (* no live session: reconnect and retry *)
  | Attestation of string  (* handshake refused: wrong platform/image *)
  | Tampering of string  (* seal/MAC/hash-chain verification failed *)
  | Rejected of string  (* remote refused the request *)

let error_to_string = function
  | Disconnected -> "channel not connected"
  | Attestation m -> "attestation: " ^ m
  | Tampering m -> "channel tampering detected: " ^ m
  | Rejected m -> m

let retryable = function
  | Disconnected -> true
  | Attestation _ | Tampering _ | Rejected _ -> false

type t = {
  rng : Veil_crypto.Rng.t;
  platform_public : Veil_crypto.Bignum.t;
  expected_launch : bytes option;
  dh : Veil_crypto.Dh.keypair;
  mutable session : bytes option;
  mutable seq : int;
  mutable peer : Monitor.t option;
}

let create rng ~platform_public ~expected_launch =
  { rng; platform_public; expected_launch; dh = Veil_crypto.Dh.keygen rng; session = None; seq = 0; peer = None }

let connected t = t.session <> None

let disconnect t =
  t.session <- None;
  t.peer <- None

let connect t mon vcpu =
  let nonce = Veil_crypto.Rng.bytes t.rng 16 in
  let report = Monitor.attestation_report mon vcpu ~nonce in
  if not (Sevsnp.Attestation.verify ~public_key:t.platform_public report) then
    Error (Attestation "bad platform signature")
  else if not (Sevsnp.Types.equal_vmpl report.Sevsnp.Attestation.requester_vmpl Sevsnp.Types.Vmpl0) then
    Error (Attestation "report was not requested from VMPL-0")
  else begin
    let launch_ok =
      match t.expected_launch with
      | None -> true
      | Some expected -> Bytes.equal expected report.Sevsnp.Attestation.launch_measurement
    in
    if not launch_ok then Error (Attestation "launch measurement mismatch (wrong boot image?)")
    else begin
      (* The report must bind the DH public value VeilMon presented. *)
      let buf = Buffer.create 64 in
      Buffer.add_bytes buf nonce;
      Buffer.add_bytes buf (Veil_crypto.Bignum.to_bytes_be (Monitor.dh_public mon));
      let expected_rd = Veil_crypto.Sha256.digest_string (Buffer.contents buf) in
      if not (Bytes.equal expected_rd report.Sevsnp.Attestation.report_data) then
        Error (Attestation "report data does not bind the DH key")
      else begin
        t.session <-
          Some
            (Veil_crypto.Dh.shared_secret ~secret:t.dh.Veil_crypto.Dh.secret
               ~peer_public:(Monitor.dh_public mon) ());
        t.peer <- Some mon;
        Ok ()
      end
    end
  end

(* Sealed envelope: ct = ChaCha20(key, nonce(dir, seq), payload);
   tag = HMAC(key, dir || seq || ct).  Both sides derive the same
   session key; [dir] keeps the nonce spaces disjoint. *)

let nonce_of ~seq ~dir =
  let n = Bytes.make 12 '\000' in
  Bytes.set_int64_le n 0 (Int64.of_int seq);
  Bytes.set n 8 (Char.chr (dir land 0xff));
  n

let seal ~key ~seq ~dir payload =
  let ct = Veil_crypto.Chacha20.encrypt ~key ~nonce:(nonce_of ~seq ~dir) payload in
  let header = Bytes.create 9 in
  Bytes.set_int64_le header 0 (Int64.of_int seq);
  Bytes.set header 8 (Char.chr (dir land 0xff));
  let mac_input = Bytes.cat header ct in
  let tag = Veil_crypto.Hmac.mac ~key mac_input in
  Bytes.concat Bytes.empty [ header; tag; ct ]

let open_ ~key ~seq ~dir msg =
  if Bytes.length msg < 9 + 32 then Error "sealed message too short"
  else begin
    let header = Bytes.sub msg 0 9 in
    let got_seq = Int64.to_int (Bytes.get_int64_le header 0) in
    let got_dir = Char.code (Bytes.get header 8) in
    let tag = Bytes.sub msg 9 32 in
    let ct = Bytes.sub msg 41 (Bytes.length msg - 41) in
    if got_seq <> seq then Error "sealed message replay or reorder detected"
    else if got_dir <> dir then Error "sealed message direction mismatch"
    else if not (Veil_crypto.Hmac.verify ~key ~msg:(Bytes.cat header ct) ~tag) then
      Error "sealed message authentication failed"
    else Ok (Veil_crypto.Chacha20.encrypt ~key ~nonce:(nonce_of ~seq ~dir) ct)
  end

let with_session t k = match t.session with None -> Error Disconnected | Some key -> k key

let fetch_logs t slog vcpu =
  with_session t (fun key ->
      let seq = t.seq in
      t.seq <- seq + 1;
      (* user -> monitor: sealed request *)
      let request = seal ~key ~seq ~dir:0 (Bytes.of_string "fetch-logs") in
      match open_ ~key ~seq ~dir:0 request with
      | Error e -> Error (Rejected ("monitor rejected request: " ^ e))
      | Ok _ ->
          (* monitor -> user: sealed log payload + chain digest *)
          let lines = Slog.read_all slog in
          let digest = Slog.chain_digest slog in
          let payload = String.concat "\n" lines in
          Sevsnp.Vcpu.charge vcpu C.Crypto (C.cipher_cost (String.length payload) + C.hash_cost (String.length payload));
          let sealed = seal ~key ~seq ~dir:1 (Bytes.of_string payload) in
          (match open_ ~key ~seq ~dir:1 sealed with
          | Error e -> Error (Tampering e)
          | Ok plain ->
              let lines' =
                match Bytes.to_string plain with "" -> [] | s -> String.split_on_char '\n' s
              in
              if not (Slog.verify_chain ~lines:lines' ~digest) then
                Error (Tampering "log hash chain verification failed")
              else Ok lines'))
