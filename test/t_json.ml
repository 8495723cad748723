(* Obs.Json, the one codec every report is printed with and every
   baseline is read by: print-then-parse is the identity, parse is
   total, and the committed BENCH_prN.json baselines re-print to their
   own bytes. *)

module J = Obs.Json

let value = Alcotest.testable (fun fmt v -> Format.pp_print_string fmt (J.to_string v)) ( = )
let parsed = Alcotest.(result value string)

(* Bytes the printer must escape or pass through untouched. *)
let gen_string =
  let special = [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\x1f'; '\x7f'; '\xc3'; '\xff' ] in
  QCheck.Gen.(string_size ~gen:(frequency [ (3, char); (2, oneofl special) ]) (0 -- 12))

let gen_value =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return J.Null;
                 map (fun b -> J.Bool b) bool;
                 map (fun i -> J.Int i)
                   (oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0 ] ]);
                 (* [%.*f] with at least one decimal never reads back as an [Int] *)
                 map2 J.fixed (1 -- 6) (float_range (-1e12) 1e12);
                 map (fun s -> J.Str s) gen_string;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> J.List l) (list_size (0 -- 4) (self (n / 4))));
                 (1, map (fun l -> J.Obj l) (list_size (0 -- 4) (pair gen_string (self (n / 4)))));
               ]))

let prop_roundtrip =
  QCheck.Test.make ~name:"json: parse (to_string v) = Ok v" ~count:2000
    (QCheck.make ~print:J.to_string gen_value)
    (fun v -> J.parse (J.to_string v) = Ok v)

let total s = match J.parse s with Ok _ | Error _ -> true

let prop_total_bytes =
  QCheck.Test.make ~name:"json: parse never raises on arbitrary bytes" ~count:2000 QCheck.string
    total

(* Strings drawn from JSON's own alphabet reach far deeper into the
   parser than random bytes do. *)
let prop_total_tokens =
  let token =
    QCheck.Gen.oneofl
      [ "{"; "}"; "["; "]"; ":"; ","; "\""; "\\"; "\\u"; "\\ud83d"; "\\ude00"; "\\n"; "\\x"; "0";
        "-"; "12"; "1.5"; "."; "e"; "E+"; "true"; "false"; "null"; "tru"; " "; "\"k\""; "\001";
        "\xff" ]
  in
  QCheck.Test.make ~name:"json: parse never raises on JSON-alphabet strings" ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(map (String.concat "") (list_size (0 -- 30) token)))
    total

let test_parse_cases () =
  let ok text v = Alcotest.check parsed text (Ok v) (J.parse text) in
  (* integers that fit an [int] and print back as themselves read as [Int] *)
  ok " {\"a\" : [1, -2, 3.50, 1e3, -0, 4611686018427387904]}\n"
    (J.Obj
       [
         ( "a",
           J.List
             [ J.Int 1; J.Int (-2); J.Num "3.50"; J.Num "1e3"; J.Num "-0";
               J.Num "4611686018427387904" ] );
       ]);
  ok "\"\\u00e9\\ud83d\\ude00\\/\\b\\f\\r\\u0001\"" (J.Str "\xc3\xa9\xf0\x9f\x98\x80/\b\012\r\001");
  ok "[true,false,null,{}]" (J.List [ J.Bool true; J.Bool false; J.Null; J.Obj [] ]);
  Alcotest.check parsed "error names the offset" (Error "unexpected character at offset 3")
    (J.parse "[1,]");
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "%S is rejected" bad) true
        (Result.is_error (J.parse bad)))
    [ ""; "{\"a\"}"; "01"; "1."; "-"; "tru"; "[1] x"; "\"a\nb\""; "\"\\ud800\"";
      "\"\\ud800\\u0041\""; "\"\\ude00\""; "\"\\u12\""; "\"\\q\""; "{1:2}"; String.make 1000 '[' ]

let test_member () =
  let v = J.Obj [ ("a", J.Int 1); ("b", J.Null); ("a", J.Int 2) ] in
  Alcotest.(check (option value)) "first field wins" (Some (J.Int 1)) (J.member "a" v);
  Alcotest.(check (option value)) "missing key" None (J.member "c" v);
  Alcotest.(check (option value)) "not an object" None (J.member "a" (J.List [ v ]))

(* The trajectory gate reads these files; each one must parse, and its
   compact text must be exactly what the codec prints. *)
let test_bench_baselines_reprint () =
  let files =
    List.filter
      (fun f -> String.starts_with ~prefix:"BENCH_pr" f && Filename.check_suffix f ".json")
      (List.sort compare (Array.to_list (Sys.readdir "..")))
  in
  Alcotest.(check bool) "the committed baselines are visible" true (List.length files >= 4);
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin (Filename.concat ".." f) In_channel.input_all in
      match J.parse text with
      | Ok v -> Alcotest.(check string) (f ^ " re-prints byte for byte") text (J.to_string v ^ "\n")
      | Error e -> Alcotest.failf "%s: %s" f e)
    files

let q = QCheck_alcotest.to_alcotest

let suite =
  [
    q prop_roundtrip;
    q prop_total_bytes;
    q prop_total_tokens;
    ("parse decodes escapes and rejects malformed input", `Quick, test_parse_cases);
    ("member", `Quick, test_member);
    ("committed BENCH baselines re-print to their bytes", `Quick, test_bench_baselines_reprint);
  ]
