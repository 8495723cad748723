(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§9), plus the ablations DESIGN.md calls out and
   Bechamel micro-benchmarks of the simulator.  Run with an experiment
   id (e1..e11, ablate, micro) or no argument for everything. *)

let usage () =
  print_endline
    "usage: bench/main.exe [e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|e11|escale|efleet|ablate|micro|all] [--json] [--seed N]";
  print_endline "       (no argument = all; scale via VEIL_BENCH_SCALE, default 1;";
  print_endline "        --json additionally prints every recorded run as one JSON document;";
  print_endline "        --seed sets the guest RNG seed for every run, default 97;";
  print_endline "        escale: VEIL_ESCALE_VCPUS=1,2,4,8 picks the VCPU counts,";
  print_endline "        VEIL_ESCALE_JOURNAL=path dumps the interleaver schedule journals,";
  print_endline "        --rings runs escale with Veil-Ring batched submission rings,";
  print_endline "        --pulse arms Veil-Pulse telemetry sampling during escale)"

let scale =
  match Sys.getenv_opt "VEIL_BENCH_SCALE" with Some s -> int_of_string s | None -> 1

(* Command-line options.  [seed] is the guest RNG seed of every
   Driver.run (97 is the driver's historical default); [rings] and
   [pulse] opt escale and efleet into Veil-Ring submission rings and
   the Veil-Pulse sampler, leaving every other experiment — and E2's
   single-call legs — byte-identical. *)
type opts = { seed : int; json : bool; rings : bool; pulse : bool }

let opts, args =
  let rec strip o = function
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some seed -> strip { o with seed } rest
        | None ->
            prerr_endline ("bench: --seed expects an integer, got " ^ v);
            exit 2)
    | "--seed" :: [] ->
        prerr_endline "bench: --seed expects an integer";
        exit 2
    | "--json" :: rest -> strip { o with json = true } rest
    | "--rings" :: rest -> strip { o with rings = true } rest
    | "--pulse" :: rest -> strip { o with pulse = true } rest
    | a :: rest ->
        let o, args = strip o rest in
        (o, a :: args)
    | [] -> (o, [])
  in
  strip { seed = 97; json = false; rings = false; pulse = false } (List.tl (Array.to_list Sys.argv))

module E = Experiments

let seed = opts.seed
let no_rows f () = f (); []

let experiments =
  [
    ("e1", no_rows E.e1);
    ("e2", no_rows E.e2);
    ("e3", E.e3 ~seed ~scale);
    ("e4", no_rows (E.e4 ~seed));
    ("e5", E.e5 ~seed ~scale);
    ("e6", E.e6 ~seed ~scale);
    ("e7", no_rows E.e7);
    ("e8", no_rows E.e8);
    ("e9", no_rows E.e9);
    ("e10", no_rows E.e10);
    ("e11", no_rows E.e11);
    ("escale", E.escale ~seed ~rings:opts.rings ~pulse:opts.pulse);
    ("efleet", E.efleet ~seed ~rings:opts.rings ~pulse:opts.pulse ~scale);
    ("ablate", E.ablate ~seed ~scale);
    ("micro", Micro.run);
  ]

let () =
  let rows =
    match match args with a :: _ -> a | [] -> "all" with
    | "all" -> List.concat_map (fun (_, run) -> run ()) experiments
    | name -> (
        match List.assoc_opt name experiments with
        | Some run -> run ()
        | None ->
            usage ();
            [])
  in
  if opts.json then print_string ("\n" ^ Obs.Json.to_string (E.document ~seed rows) ^ "\n")
