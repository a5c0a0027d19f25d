(* Tests for graft_stats: robust estimation, the measurement harness,
   and the noise-aware regression gate (driven with synthetic numbers
   so no benchmark runs in CI). *)

module Robust = Graft_stats.Robust
module Harness = Graft_stats.Harness
module Benchgate = Graft_report.Benchgate
module Minijson = Graft_util.Minijson

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ---------- deterministic unit tests ---------- *)

let test_median_mad () =
  check_float "median odd" 3.0 (Robust.median [| 5.0; 1.0; 3.0 |]);
  check_float "median even" 2.5 (Robust.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "mad" 1.0 (Robust.mad [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_outlier_rejection () =
  let samples = [| 10.0; 11.0; 10.5; 10.2; 10.8; 500.0 |] in
  let kept = Robust.reject_outliers samples in
  check_bool "outlier dropped" true
    (not (Array.exists (fun x -> x = 500.0) kept));
  check_bool "inliers kept" true (Array.length kept = 5);
  (* Small samples are never rejected from. *)
  let tiny = [| 1.0; 100.0; 2.0 |] in
  check_bool "tiny untouched" true (Robust.reject_outliers tiny = tiny)

let test_constant_series () =
  let e = Robust.estimate (Array.make 20 7.5) in
  check_float "median" 7.5 e.Robust.median;
  check_float "cv" 0.0 e.Robust.cv;
  check_float "ci lo" 7.5 e.Robust.ci95_lo;
  check_float "ci hi" 7.5 e.Robust.ci95_hi

let test_bootstrap_deterministic () =
  let samples = Array.init 30 (fun i -> 10.0 +. float_of_int (i mod 7)) in
  let lo1, hi1 = Robust.bootstrap_ci Robust.median samples in
  let lo2, hi2 = Robust.bootstrap_ci Robust.median samples in
  check_float "lo reproducible" lo1 lo2;
  check_float "hi reproducible" hi1 hi2;
  check_bool "interval ordered" true (lo1 <= hi1)

let test_harness_measure () =
  let n = ref 0 in
  let m =
    Harness.measure
      ~config:
        { Harness.quick with
          min_rounds = 3; max_rounds = 5; target_s = 1e-4; gc_fence = false }
      (fun () -> incr n)
  in
  check_bool "op ran" true (!n > 0);
  check_bool "positive time" true (m.Harness.est.Robust.median >= 0.0);
  check_bool "rounds recorded" true (Array.length m.Harness.samples >= 3)

let test_paired_delta () =
  let a = [| 10.0; 10.0; 10.0 |] and b = [| 11.0; 11.0; 11.0 |] in
  let d = Harness.paired_delta_pct a b in
  check_bool "10% slower" true (Float.abs (d.Robust.median -. 10.0) < 1e-9)

(* ---------- qcheck properties ---------- *)

let nonempty_floats =
  QCheck.(
    list_of_size Gen.(int_range 1 60) (float_range 0.001 1e6)
    |> map ~rev:Array.to_list Array.of_list)

let prop_ci_contains_median =
  QCheck.Test.make ~count:100 ~name:"bootstrap CI contains sample median"
    nonempty_floats (fun samples ->
      let m = Robust.median samples in
      let lo, hi = Robust.bootstrap_ci Robust.median samples in
      lo <= m && m <= hi)

let prop_rejection_idempotent =
  QCheck.Test.make ~count:100 ~name:"outlier rejection is idempotent"
    nonempty_floats (fun samples ->
      let once = Robust.reject_outliers samples in
      let twice = Robust.reject_outliers once in
      once = twice)

let prop_constant_cv_zero =
  QCheck.Test.make ~count:50 ~name:"CV of a constant series is 0"
    QCheck.(pair (float_range 0.5 1e3) (int_range 1 40))
    (fun (v, n) -> (Robust.estimate (Array.make n v)).Robust.cv = 0.0)

let prop_estimate_ordered =
  QCheck.Test.make ~count:100 ~name:"estimate CI brackets the median"
    nonempty_floats (fun samples ->
      let e = Robust.estimate samples in
      e.Robust.ci95_lo <= e.Robust.median
      && e.Robust.median <= e.Robust.ci95_hi)

(* ---------- gate verdicts on synthetic baselines ---------- *)

let base ns lo hi = { Benchgate.b_ns = ns; b_lo = lo; b_hi = hi }

let test_gate_verdicts () =
  let t = 0.30 in
  (* Overlapping CIs never fail, however far the median moved. *)
  check_bool "overlap passes" true
    (Benchgate.compare_ci ~threshold:t ~base:(base 100.0 90.0 110.0)
       ~cur_ns:150.0 ~cur_lo:105.0 ~cur_hi:160.0
    = Benchgate.Pass);
  (* Disjoint but under threshold: still a pass. *)
  check_bool "small real move passes" true
    (Benchgate.compare_ci ~threshold:t ~base:(base 100.0 99.0 101.0)
       ~cur_ns:110.0 ~cur_lo:109.0 ~cur_hi:111.0
    = Benchgate.Pass);
  (* Disjoint and beyond threshold: regression. *)
  check_bool "real big move regresses" true
    (Benchgate.compare_ci ~threshold:t ~base:(base 100.0 99.0 101.0)
       ~cur_ns:140.0 ~cur_lo:138.0 ~cur_hi:142.0
    = Benchgate.Regression);
  (* Symmetric improvement. *)
  check_bool "improvement detected" true
    (Benchgate.compare_ci ~threshold:t ~base:(base 100.0 99.0 101.0)
       ~cur_ns:60.0 ~cur_lo:59.0 ~cur_hi:61.0
    = Benchgate.Improvement)

let synthetic_v5 =
  {|{"schema_version":5,"host":"ci","ocaml":"5.1.0",
     "results":[{"graft":"md5_64k","interp_ns_per_op":1000.0,
       "interp_ci95_lo":990.0,"interp_ci95_hi":1010.0,"interp_cv":0.01,
       "jit_ns_per_op":400.0,"jit_ci95_lo":395.0,"jit_ci95_hi":405.0,
       "jit_cv":0.01,"rounds":15,"jit_speedup":2.5}]}|}

(* The last schema that carried the retired optimizing tier's columns. *)
let synthetic_v4 =
  {|{"schema_version":4,"host":"old","ocaml":"5.1.0",
     "results":[{"graft":"md5_64k","interp_ns_per_op":1000.0,
       "interp_ci95_lo":990.0,"interp_ci95_hi":1010.0,"interp_cv":0.01,
       "opt_ns_per_op":400.0,"opt_ci95_lo":395.0,"opt_ci95_hi":405.0,
       "opt_cv":0.01,"jit_ns_per_op":300.0,"jit_ci95_lo":295.0,
       "jit_ci95_hi":305.0,"jit_cv":0.01,"rounds":15,"speedup":2.5,
       "jit_speedup":3.33}]}|}

let est median lo hi =
  let e = Robust.estimate [| median |] in
  { e with Robust.median; ci95_lo = lo; ci95_hi = hi }

let row graft interp jit = { Benchgate.graft; interp; jit; rounds = 15 }

let parse_ok text =
  match Benchgate.parse_baseline text with
  | Ok b -> b
  | Error e -> Alcotest.fail (Benchgate.baseline_error_message e)

let test_gate_on_parsed_baseline () =
  let baseline = parse_ok synthetic_v5 in
  (* Unchanged numbers: both tiers pass. *)
  let ok =
    Benchgate.gate ~baseline
      [ row "md5_64k" (est 1005.0 992.0 1012.0) (est 402.0 396.0 406.0) ]
  in
  check_bool "unchanged passes" false (Benchgate.failed ok);
  Alcotest.(check (list string)) "interp and jit are gated" [ "interp"; "jit" ]
    (List.map (fun c -> c.Benchgate.c_tier) ok);
  (* Doctored: interp CI-disjoint and 50% over. *)
  let bad =
    Benchgate.gate ~baseline
      [ row "md5_64k" (est 1500.0 1480.0 1520.0) (est 402.0 396.0 406.0) ]
  in
  check_bool "doctored fails" true (Benchgate.failed bad);
  (* Unknown grafts are skipped, not compared. *)
  let skipped =
    Benchgate.gate ~baseline
      [ row "unknown" (est 1.0 1.0 1.0) (est 1.0 1.0 1.0) ]
  in
  Alcotest.(check int) "unknown skipped" 0 (List.length skipped)

let test_v4_baseline_rejected () =
  match Benchgate.parse_baseline synthetic_v4 with
  | Error (Benchgate.Schema 4) -> ()
  | Error e ->
      Alcotest.failf "wrong error: %s" (Benchgate.baseline_error_message e)
  | Ok _ -> Alcotest.fail "a v4 baseline parsed"

let test_roundtrip_json () =
  let rows =
    [ row "md5_64k" (est 1000.0 990.0 1010.0) (est 200.0 198.0 202.0) ]
  in
  match parse_ok (Benchgate.to_json rows) with
  | [ b ] ->
      check_float "roundtrip ns" 1000.0 b.Benchgate.b_interp.Benchgate.b_ns;
      check_float "roundtrip lo" 990.0 b.Benchgate.b_interp.Benchgate.b_lo;
      check_float "roundtrip jit ns" 200.0 b.Benchgate.b_jit.Benchgate.b_ns;
      check_bool "roundtrip gates clean" false
        (Benchgate.failed (Benchgate.gate ~baseline:[ b ] rows))
  | _ -> Alcotest.fail "expected one row"

(* ---------- minijson ---------- *)

let test_minijson () =
  (match Minijson.parse {| {"a": [1, 2.5, true, null, "x\n"], "b": -3e2} |} with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      check_float "num" (-300.0)
        (Option.get (Option.bind (Minijson.member "b" doc) Minijson.to_float));
      let l =
        Option.get (Option.bind (Minijson.member "a" doc) Minijson.to_list)
      in
      Alcotest.(check int) "list length" 5 (List.length l);
      Alcotest.(check (option string)) "escape" (Some "x\n")
        (Minijson.to_string (List.nth l 4)));
  check_bool "trailing junk rejected" true
    (Result.is_error (Minijson.parse "{} extra"));
  check_bool "bad syntax rejected" true (Result.is_error (Minijson.parse "{"))

let () =
  Alcotest.run "graft_stats"
    [
      ( "robust",
        [
          Alcotest.test_case "median/mad" `Quick test_median_mad;
          Alcotest.test_case "outlier rejection" `Quick test_outlier_rejection;
          Alcotest.test_case "constant series" `Quick test_constant_series;
          Alcotest.test_case "bootstrap deterministic" `Quick
            test_bootstrap_deterministic;
        ] );
      ( "harness",
        [
          Alcotest.test_case "measure" `Quick test_harness_measure;
          Alcotest.test_case "paired delta" `Quick test_paired_delta;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ci_contains_median; prop_rejection_idempotent;
            prop_constant_cv_zero; prop_estimate_ordered;
          ] );
      ( "gate",
        [
          Alcotest.test_case "verdict rule" `Quick test_gate_verdicts;
          Alcotest.test_case "parsed baseline" `Quick
            test_gate_on_parsed_baseline;
          Alcotest.test_case "v4 rejected" `Quick test_v4_baseline_rejected;
          Alcotest.test_case "json roundtrip" `Quick test_roundtrip_json;
          Alcotest.test_case "minijson" `Quick test_minijson;
        ] );
    ]
