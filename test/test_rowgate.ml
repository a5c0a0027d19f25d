(* Tests for the one regression gate (Graft_report.Rowgate) and its
   three producers: the stack-VM tier suite, serve's SLO metrics, and
   the throughput sweep.

   - the verdict rule, as one table over all three suites' row shapes;
   - verdict equivalence: the committed BENCH_*.json files against a
     fixed table of synthetic runs, with the verdicts the three
     separate gates gave before they were folded into this one;
   - the reader: typed errors for other schemas, malformed files and
     config mismatches, and a seeded fuzz property that it never
     raises;
   - the producers' rows and the CLI's refusal of out-of-range serve
     options (exit 2, one line). *)

module Gate = Graft_report.Rowgate
module Serve = Graft_slo.Serve
module Throughput = Graft_slo.Throughput
module Robust = Graft_stats.Robust

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Gate.verdict_name v))
    ( = )

let row ?ci ?(hb = false) metric value =
  { Gate.metric; value; ci95 = ci; higher_better = hb }

let snap ?(suite = "t") ?(config = []) rows = { Gate.suite; config; rows }

let load_ok path =
  match Gate.load path with
  | Ok b -> b
  | Error e -> Alcotest.fail (Gate.error_message e)

let gate_ok ~threshold ~baseline cur =
  match Gate.gate ~threshold:(fun _ -> threshold) ~baseline cur with
  | Ok checks -> checks
  | Error e -> Alcotest.fail (Gate.error_message e)

(* ------------------------------------------------------------------ *)
(* The verdict rule.                                                   *)
(* ------------------------------------------------------------------ *)

(* (case, threshold, baseline row, current row, verdict). The first
   four are the stack-VM gate's cases (lower-better, CIs), the next
   seven the serve gate's (no CIs, zero-baseline floor), the rest the
   throughput gate's (higher-better, CIs). *)
let rule_table =
  let lb ?ci v = row ?ci "m" v and hb ?ci v = row ?ci ~hb:true "m" v in
  Gate.
    [
      ("overlapping CIs pass", 0.30, lb ~ci:(90., 110.) 100.,
       lb ~ci:(105., 160.) 150., Pass);
      ("disjoint move under threshold passes", 0.30, lb ~ci:(99., 101.) 100.,
       lb ~ci:(109., 111.) 110., Pass);
      ("disjoint move past threshold regresses", 0.30,
       lb ~ci:(99., 101.) 100., lb ~ci:(138., 142.) 140., Regression);
      ("disjoint drop is an improvement", 0.30, lb ~ci:(99., 101.) 100.,
       lb ~ci:(59., 61.) 60., Improvement);
      ("small drift passes", 0.10, lb 100., lb 105., Pass);
      ("latency up regresses", 0.10, lb 100., lb 120., Regression);
      ("latency down improves", 0.10, lb 100., lb 80., Improvement);
      ("throughput down regresses", 0.10, hb 100., hb 80., Regression);
      ("throughput up improves", 0.10, hb 100., hb 120., Improvement);
      ("zero baseline, zero current", 0.10, lb 0., lb 0., Pass);
      ("zero baseline, nonzero current", 0.10, lb 0., lb 1., Regression);
      ("ops/s disjoint below past threshold regresses", 0.30,
       hb ~ci:(95., 105.) 100., hb ~ci:(55., 65.) 60., Regression);
      ("ops/s overlapping CIs pass", 0.30, hb ~ci:(95., 105.) 100.,
       hb ~ci:(50., 100.) 60., Pass);
      ("ops/s disjoint below under threshold passes", 0.30,
       hb ~ci:(95., 105.) 100., hb ~ci:(75., 85.) 80., Pass);
      ("ops/s disjoint above past threshold improves", 0.30,
       hb ~ci:(95., 105.) 100., hb ~ci:(150., 170.) 160., Improvement);
      ("a CI on one side only: threshold alone", 0.30, lb 100.,
       lb ~ci:(138., 142.) 140., Regression);
    ]

let test_rule_table () =
  List.iter
    (fun (name, threshold, base, cur, want) ->
      Alcotest.check verdict name want (Gate.verdict ~threshold ~base cur))
    rule_table

(* ------------------------------------------------------------------ *)
(* Gating snapshots: skipped rows and mismatches.                      *)
(* ------------------------------------------------------------------ *)

let test_one_sided_rows_skipped () =
  let base =
    snap
      [ row ~hb:true ~ci:(95., 105.) "ops_per_s.d1" 100.;
        row ~hb:true ~ci:(95., 105.) "ops_per_s.d2" 100. ]
  in
  let cur =
    snap
      [ row ~hb:true ~ci:(95., 105.) "ops_per_s.d1" 100.;
        row ~hb:true ~ci:(1., 2.) "ops_per_s.d4" 1. ]
  in
  let checks = gate_ok ~threshold:0.30 ~baseline:base cur in
  Alcotest.(check (list string))
    "only the domain count on both sides is gated" [ "ops_per_s.d1" ]
    (List.map (fun c -> c.Gate.cur.Gate.metric) checks);
  check_bool "and it passes" false (Gate.failed checks)

let test_mismatch_is_typed () =
  let cfg = [ ("seed", 42.); ("tenants", 8.); ("duration_s", 8.) ] in
  let base = snap ~suite:"serve-throughput" ~config:cfg [ row "m" 1. ] in
  let expect name cur field =
    match Gate.gate ~threshold:(fun _ -> 0.3) ~baseline:base cur with
    | Error (Gate.Mismatch m) ->
        Alcotest.(check string) name field m.field
    | Error e -> Alcotest.failf "%s: wrong error: %s" name (Gate.error_message e)
    | Ok _ -> Alcotest.failf "%s: gated a different experiment" name
  in
  let with_ k v = List.map (fun (k', v') -> (k', if k = k' then v else v')) cfg in
  let cur config = snap ~suite:"serve-throughput" ~config [ row "m" 1. ] in
  expect "seed" (cur (with_ "seed" 43.)) "seed";
  expect "tenants" (cur (with_ "tenants" 9.)) "tenants";
  expect "duration" (cur (with_ "duration_s" 9.)) "duration_s";
  expect "missing key" (cur (List.tl cfg)) "seed";
  expect "suite" { (cur cfg) with Gate.suite = "serve" } "suite"

(* ------------------------------------------------------------------ *)
(* Verdict equivalence on the committed baselines.                     *)
(* ------------------------------------------------------------------ *)

(* The synthetic runs. A suite's row i moves by twice its threshold,
   the harmful or the helpful way, with a 1% CI around the new value
   (disjoint from the baseline's). The overlap case makes the same
   harmful move but widens the CI to cover the baseline's. [All_worse t]
   moves every row the harmful way and gates with CI's --threshold [t];
   [Differ k] changes config key [k] by one. *)
type scenario =
  | Self
  | Worse of int
  | Better of int
  | Overlap of int
  | All_worse of float
  | Differ of string

let shift ~hb ~t ~worse b =
  if hb <> worse then b *. (1.0 +. (2.0 *. t)) else b *. (1.0 -. (2.0 *. t))

(* Serve's latency percentiles are integers in a run. *)
let round metric v =
  if String.ends_with ~suffix:"_us" metric then Float.round v else v

let synth ~threshold kind i (b : Gate.row) =
  let moved ~worse ~widen =
    let t = threshold b.Gate.metric in
    let c =
      round b.Gate.metric (shift ~hb:b.Gate.higher_better ~t ~worse b.Gate.value)
    in
    let ci =
      Option.map
        (fun (lo, hi) ->
          if widen then (Float.min lo (c *. 0.99), Float.max hi (c *. 1.01))
          else (c *. 0.99, c *. 1.01))
        b.Gate.ci95
    in
    { b with Gate.value = c; ci95 = ci }
  in
  match kind with
  | Worse j when j = i -> moved ~worse:true ~widen:false
  | Better j when j = i -> moved ~worse:false ~widen:false
  | Overlap j when j = i -> moved ~worse:true ~widen:true
  | All_worse _ -> moved ~worse:true ~widen:false
  | _ -> b

(* Expected results, produced by the three gates this module replaced
   (Benchgate.gate, Servegate.gate and Throughput.gate) on the same
   synthetic runs against the same committed numbers. [Error k]: the
   gate refused the run as another experiment, and the new gate must
   name config key [k]. The stack-VM suite has no config. *)
let expected_stackvm =
  Gate.
    [
      (Self, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Worse 0, Ok [ Regression; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Worse 1, Ok [ Pass; Regression; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Worse 2, Ok [ Pass; Pass; Regression; Pass; Pass; Pass; Pass; Pass ]);
      (Worse 3, Ok [ Pass; Pass; Pass; Regression; Pass; Pass; Pass; Pass ]);
      (Worse 4, Ok [ Pass; Pass; Pass; Pass; Regression; Pass; Pass; Pass ]);
      (Worse 5, Ok [ Pass; Pass; Pass; Pass; Pass; Regression; Pass; Pass ]);
      (Worse 6, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Regression; Pass ]);
      (Worse 7, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Regression ]);
      (Better 0, Ok [ Improvement; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Better 1, Ok [ Pass; Improvement; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Better 2, Ok [ Pass; Pass; Improvement; Pass; Pass; Pass; Pass; Pass ]);
      (Better 3, Ok [ Pass; Pass; Pass; Improvement; Pass; Pass; Pass; Pass ]);
      (Better 4, Ok [ Pass; Pass; Pass; Pass; Improvement; Pass; Pass; Pass ]);
      (Better 5, Ok [ Pass; Pass; Pass; Pass; Pass; Improvement; Pass; Pass ]);
      (Better 6, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Improvement; Pass ]);
      (Better 7, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Improvement ]);
      (Overlap 0, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Overlap 1, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Overlap 2, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Overlap 3, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Overlap 4, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Overlap 5, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Overlap 6, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Overlap 7, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (All_worse 3.0, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
    ]

let expected_serve =
  Gate.
    [
      (Self, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Worse 0, Ok [ Regression; Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Worse 1, Ok [ Pass; Regression; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Worse 2, Ok [ Pass; Pass; Regression; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Worse 3, Ok [ Pass; Pass; Pass; Regression; Pass; Pass; Pass; Pass; Pass ]);
      (Worse 4, Ok [ Pass; Pass; Pass; Pass; Regression; Pass; Pass; Pass; Pass ]);
      (Worse 5, Ok [ Pass; Pass; Pass; Pass; Pass; Regression; Pass; Pass; Pass ]);
      (Worse 6, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Regression; Pass; Pass ]);
      (Worse 7, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Regression; Pass ]);
      (Worse 8, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass; Regression ]);
      (Better 0, Ok [ Improvement; Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Better 1, Ok [ Pass; Improvement; Pass; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Better 2, Ok [ Pass; Pass; Improvement; Pass; Pass; Pass; Pass; Pass; Pass ]);
      (Better 3, Ok [ Pass; Pass; Pass; Improvement; Pass; Pass; Pass; Pass; Pass ]);
      (Better 4, Ok [ Pass; Pass; Pass; Pass; Improvement; Pass; Pass; Pass; Pass ]);
      (Better 5, Ok [ Pass; Pass; Pass; Pass; Pass; Improvement; Pass; Pass; Pass ]);
      (Better 6, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Improvement; Pass; Pass ]);
      (Better 7, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Improvement; Pass ]);
      (Better 8, Ok [ Pass; Pass; Pass; Pass; Pass; Pass; Pass; Pass; Improvement ]);
      (Differ "seed", Error "seed");
    ]

let expected_throughput =
  Gate.
    [
      (Self, Ok [ Pass; Pass ]);
      (Worse 0, Ok [ Regression; Pass ]);
      (Worse 1, Ok [ Pass; Regression ]);
      (Better 0, Ok [ Improvement; Pass ]);
      (Better 1, Ok [ Pass; Improvement ]);
      (Overlap 0, Ok [ Pass; Pass ]);
      (Overlap 1, Ok [ Pass; Pass ]);
      (All_worse 0.75, Ok [ Pass; Pass ]);
      (Differ "seed", Error "seed");
      (Differ "tenants", Error "tenants");
      (Differ "duration_s", Error "duration_s");
    ]

let equivalence ~file ~suite ~threshold table () =
  let base = load_ok file in
  Alcotest.(check string) "suite" suite base.Gate.suite;
  List.iter
    (fun (kind, want) ->
      let cur =
        { base with Gate.rows = List.mapi (synth ~threshold kind) base.Gate.rows }
      in
      let cur, threshold =
        match kind with
        | All_worse t -> (cur, fun _ -> t)
        | Differ k ->
            ( { cur with
                Gate.config =
                  List.map
                    (fun (k', v) -> (k', if k = k' then v +. 1.0 else v))
                    cur.Gate.config },
              threshold )
        | _ -> (cur, threshold)
      in
      let got =
        match Gate.gate ~threshold ~baseline:base cur with
        | Ok checks -> Ok (List.map (fun c -> c.Gate.verdict) checks)
        | Error (Gate.Mismatch m) -> Error m.field
        | Error e -> Alcotest.fail (Gate.error_message e)
      in
      Alcotest.(check (result (list verdict) string)) file want got)
    table

(* ------------------------------------------------------------------ *)
(* The reader.                                                         *)
(* ------------------------------------------------------------------ *)

let expect_error name want text =
  match (Gate.parse text, want) with
  | Error (Gate.Schema v), `Schema w -> check_int name w v
  | Error (Gate.Invalid _), `Invalid -> ()
  | Error e, _ -> Alcotest.failf "%s: wrong error: %s" name (Gate.error_message e)
  | Ok _, _ -> Alcotest.failf "%s: parsed" name

let test_reader_errors () =
  (* The formats the three gates used before. *)
  expect_error "stack-VM v5" (`Schema 5)
    {|{"schema_version":5,"host":"ci","ocaml":"5.1.0",
       "results":[{"graft":"md5_64k","interp_ns_per_op":1000.0,
         "interp_ci95_lo":990.0,"interp_ci95_hi":1010.0,"interp_cv":0.01,
         "jit_ns_per_op":400.0,"jit_ci95_lo":395.0,"jit_ci95_hi":405.0,
         "jit_cv":0.01,"rounds":15,"jit_speedup":2.5}]}|};
  expect_error "stack-VM v4" (`Schema 4)
    {|{"schema_version":4,"host":"old","ocaml":"5.1.0","results":[]}|};
  expect_error "serve v1" (`Schema 1)
    {|{"schema_version":1,"host":"vm","ocaml":"5.1.1","suite":"serve",
       "seed":42,"tenants":8,"duration_s":8.00,"base_rate":40.00,
       "metrics":[{"metric":"p50_us","value":79.0,"higher_better":false}]}|};
  let v6 body = Printf.sprintf {|{"schema_version":6,%s}|} body in
  expect_error "not JSON" `Invalid "{";
  expect_error "no schema" `Invalid "{}";
  expect_error "no suite" `Invalid (v6 {|"config":{},"rows":[]|});
  expect_error "config not an object" `Invalid
    (v6 {|"suite":"s","config":[],"rows":[]|});
  expect_error "config value not a number" `Invalid
    (v6 {|"suite":"s","config":{"seed":"42"},"rows":[]|});
  expect_error "row without value" `Invalid
    (v6 {|"suite":"s","config":{},"rows":[{"metric":"m","higher_better":true}]|});
  expect_error "half a CI" `Invalid
    (v6
       {|"suite":"s","config":{},"rows":[{"metric":"m","value":1,"ci95_lo":0,"higher_better":true}]|});
  expect_error "direction not a bool" `Invalid
    (v6 {|"suite":"s","config":{},"rows":[{"metric":"m","value":1,"higher_better":1}]|});
  match Gate.load "no/such/baseline.json" with
  | Error (Gate.Invalid _) -> ()
  | _ -> Alcotest.fail "a missing file must be Invalid"

let test_save_load_roundtrip () =
  let s =
    snap ~suite:"serve-throughput"
      ~config:[ ("seed", 42.); ("duration_s", 0.1) ]
      [ row ~hb:true ~ci:(1. /. 3., 2. /. 3.) "ops_per_s.d1" (0.1 +. 0.2);
        row "p50_us" 79. ]
  in
  let path = Filename.temp_file "rowgate" ".json" in
  Gate.save ~path s;
  let back = load_ok path in
  Sys.remove path;
  check_bool "exact round trip" true (back = s);
  check_bool "self-comparison passes" false
    (Gate.failed (gate_ok ~threshold:0.0 ~baseline:back s))

(* Truncate each committed baseline at a random point (or not at all)
   and overwrite a few random bytes: the reader must answer Ok or a
   typed Error. Untruncated files with printable edits mostly stay JSON,
   so the schema checks past the JSON parser get exercised too. *)
let committed =
  [ "../BENCH_stackvm.json"; "../BENCH_serve.json"; "../BENCH_throughput.json" ]

let prop_reader_total =
  let texts =
    List.map (fun f -> In_channel.with_open_bin f In_channel.input_all) committed
  in
  let gen =
    QCheck.Gen.(
      let* text = oneofl texts in
      let n = String.length text in
      let* cut = frequency [ (1, return n); (1, int_range 0 n) ] in
      let* edits = list_size (int_range 0 3) (pair nat printable) in
      return (text, cut, edits))
  in
  QCheck.Test.make ~count:600 ~name:"reader never raises on damaged baselines"
    (QCheck.make gen) (fun (text, cut, edits) ->
      let b = Bytes.of_string (String.sub text 0 cut) in
      if cut > 0 then
        List.iter (fun (i, c) -> Bytes.set b (i mod cut) c) edits;
      match Gate.parse (Bytes.to_string b) with
      | Ok _ | Error (Gate.Schema _ | Gate.Invalid _ | Gate.Mismatch _) -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Producers.                                                          *)
(* ------------------------------------------------------------------ *)

let tiny =
  Serve.
    {
      smoke with
      tenants = 4;
      duration_s = 3.0;
      base_rate = 25.0;
      window_s = 1.0;
      snapshot_every_s = 1.0;
      narms = 2;
    }

let test_serve_rows () =
  let r = Serve.run tiny in
  let s = Serve.gate_snapshot r in
  Alcotest.(check (list string)) "the nine gated metrics"
    [ "throughput_ops_per_s"; "p50_us"; "p95_us"; "p99_us"; "p999_us"; "jain";
      "burn"; "mttr_mean_s"; "error_rate" ]
    (List.map (fun r -> r.Gate.metric) s.Gate.rows);
  check_bool "no CIs on deterministic rows" true
    (List.for_all (fun r -> r.Gate.ci95 = None) s.Gate.rows);
  match Gate.parse (Gate.to_json s) with
  | Error e -> Alcotest.fail (Gate.error_message e)
  | Ok base -> (
      let again = Serve.gate_snapshot (Serve.run tiny) in
      match Gate.gate ~threshold:Serve.gate_threshold ~baseline:base again with
      | Ok checks ->
          check_int "all rows gated" 9 (List.length checks);
          check_bool "a rerun passes" false (Gate.failed checks)
      | Error e -> Alcotest.fail (Gate.error_message e))

let test_throughput_rows () =
  let report = Throughput.run ~reps:1 ~domain_counts:[ 1 ] tiny in
  let s = Throughput.gate_snapshot report in
  Alcotest.(check (list string)) "one row per domain count" [ "ops_per_s.d1" ]
    (List.map (fun r -> r.Gate.metric) s.Gate.rows);
  check_bool "higher-better with a CI" true
    (List.for_all (fun r -> r.Gate.higher_better && r.Gate.ci95 <> None) s.Gate.rows);
  check_bool "same identity as serve" true
    (s.Gate.config = (Serve.gate_snapshot (Serve.run tiny)).Gate.config);
  check_bool "0.30 tolerance" true (Throughput.gate_threshold "ops_per_s.d1" = 0.30)

let test_stackvm_rows () =
  let est m = { (Robust.estimate [| m |]) with Robust.median = m; ci95_lo = m; ci95_hi = m } in
  let rows =
    Graft_report.Benchgate.
      [ { graft = "md5_64k"; interp = est 3.; jit = est 1.; rounds = 5 };
        { graft = "packet_filter"; interp = est 3.; jit = est 1.; rounds = 5 } ]
  in
  let s = Graft_report.Benchgate.snapshot rows in
  Alcotest.(check (list (pair string (float 0.))))
    "two tiers per graft, md5 gated tighter"
    [ ("md5_64k.interp", 0.15); ("md5_64k.jit", 0.15);
      ("packet_filter.interp", 0.30); ("packet_filter.jit", 0.30) ]
    (List.map
       (fun r -> (r.Gate.metric, Graft_report.Benchgate.threshold r.Gate.metric))
       s.Gate.rows)

(* ------------------------------------------------------------------ *)
(* The CLI.                                                            *)
(* ------------------------------------------------------------------ *)

let graftkit = "../bin/graftkit.exe"

(* Run graftkit with [args]; its exit code and stderr lines. *)
let graftkit_run args =
  let err = Filename.temp_file "graftkit" ".err" in
  let code =
    Out_channel.with_open_bin err (fun oc ->
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process graftkit
            (Array.of_list (graftkit :: args))
            Unix.stdin null (Unix.descr_of_out_channel oc)
        in
        Unix.close null;
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | _ -> -1)
  in
  let lines =
    In_channel.with_open_bin err In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  Sys.remove err;
  (code, lines)

let expect_exit ?(want = 2) args =
  let code, lines = graftkit_run args in
  let shown = String.concat " " args in
  check_int (shown ^ ": exit") want code;
  if want = 2 then
    match lines with
    | [ l ] -> check_bool (shown ^ ": message") true (String.starts_with ~prefix:"serve: " l)
    | _ -> Alcotest.failf "%s: expected one stderr line, got %d" shown (List.length lines)

let test_cli_out_of_range () =
  List.iter
    (fun extra -> expect_exit ("serve" :: "--smoke" :: extra))
    [
      [ "--tenants"; "0" ]; [ "--domains"; "0" ];
      [ "--tenants"; "1"; "--domains"; "2" ]; [ "--rate"; "0" ];
      [ "--window"; "0" ]; [ "--snapshot-every"; "0" ]; [ "--faults=-1" ];
      [ "--throughput"; "--reps"; "0" ];
      [ "--throughput"; "--domain-counts"; "0" ];
      [ "--throughput"; "--domain-counts"; "1,0" ];
      [ "--throughput"; "--tenants"; "1"; "--domain-counts"; "1,2" ];
    ]

let test_cli_serve_gate () =
  (* The CI serve gate, in tier-1: the committed baseline passes... *)
  expect_exit ~want:0
    [ "serve"; "--smoke"; "--baseline"; "../BENCH_serve.json"; "--check" ];
  (* ...and a baseline for another suite is refused, not gated. *)
  expect_exit [ "serve"; "--smoke"; "--baseline"; "../BENCH_stackvm.json" ];
  expect_exit [ "serve"; "--smoke"; "--seed"; "7"; "--baseline"; "../BENCH_serve.json" ];
  expect_exit [ "serve"; "--smoke"; "--check" ]

let () =
  Alcotest.run "graft_rowgate"
    [
      ( "verdict",
        [
          Alcotest.test_case "rule table" `Quick test_rule_table;
          Alcotest.test_case "one-sided rows skipped" `Quick
            test_one_sided_rows_skipped;
          Alcotest.test_case "config mismatch typed" `Quick
            test_mismatch_is_typed;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "BENCH_stackvm.json" `Quick
            (equivalence ~file:"../BENCH_stackvm.json" ~suite:"stackvm"
               ~threshold:Graft_report.Benchgate.threshold expected_stackvm);
          Alcotest.test_case "BENCH_serve.json" `Quick
            (equivalence ~file:"../BENCH_serve.json" ~suite:"serve"
               ~threshold:Serve.gate_threshold expected_serve);
          Alcotest.test_case "BENCH_throughput.json" `Quick
            (equivalence ~file:"../BENCH_throughput.json"
               ~suite:"serve-throughput" ~threshold:Throughput.gate_threshold
               expected_throughput);
        ] );
      ( "reader",
        [
          Alcotest.test_case "typed errors" `Quick test_reader_errors;
          Alcotest.test_case "save/load round trip" `Quick
            test_save_load_roundtrip;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x6a7e |])
            prop_reader_total;
        ] );
      ( "producers",
        [
          Alcotest.test_case "serve rows" `Quick test_serve_rows;
          Alcotest.test_case "throughput rows" `Quick test_throughput_rows;
          Alcotest.test_case "stack-VM rows" `Quick test_stackvm_rows;
        ] );
      ( "cli",
        [
          Alcotest.test_case "out-of-range serve options" `Quick
            test_cli_out_of_range;
          Alcotest.test_case "serve gate" `Quick test_cli_serve_gate;
        ] );
    ]
