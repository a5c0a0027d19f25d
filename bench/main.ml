(* The benchmark harness.

   Two layers:

   1. Bechamel micro-benchmarks — one Test.make group per paper table,
      measuring that table's core graft operation under every
      technology with OLS over monotonic-clock samples.

   2. The experiment driver (Graft_report.Experiments) — regenerates
      the paper's Tables 1-6, Figure 1, and the DESIGN.md ablations in
      the paper's own row/column format, with break-even analysis.

   Usage:
     dune exec bench/main.exe                  micro + all tables (quick)
     dune exec bench/main.exe -- full          micro + all tables (full)
     dune exec bench/main.exe -- micro         bechamel micro-suite only
     dune exec bench/main.exe -- table2 ...    specific tables (quick)
     dune exec bench/main.exe -- full table5   specific tables (full)
     dune exec bench/main.exe -- stackvm-json  interpreter-vs-JIT tier
                                               comparison to
                                               BENCH_stackvm.json
*)

open Bechamel
open Graft_core

(* ------------------------------------------------------------------ *)
(* Bechamel micro-suite.                                               *)
(* ------------------------------------------------------------------ *)

(* Technologies in the micro suite; the source interpreter is measured
   by the experiment driver instead (a single operation takes long
   enough that OLS sampling over it wastes minutes). *)
let micro_techs =
  [
    Technology.Unsafe_c; Technology.Safe_lang; Technology.Safe_lang_nil;
    Technology.Sfi_write_jump; Technology.Sfi_full; Technology.Bytecode_vm;
    Technology.Jit; Technology.Ast_interp;
  ]

let hot_pages = Array.init 64 (fun i -> 3 * i)

(* Table 2 core op: search the 64-entry hot list for an absent page. *)
let evict_tests =
  let tests =
    List.map
      (fun tech ->
        let runner =
          Runners.evict
            ~rng:(Graft_util.Prng.create 0xBE9CL)
            tech ~capacity_nodes:128 ()
        in
        runner.Runners.refresh ~hot:hot_pages ~lru:[||];
        Test.make
          ~name:(Technology.name tech)
          (Staged.stage (fun () -> ignore (runner.Runners.contains 99_999))))
      micro_techs
  in
  Test.make_grouped ~name:"table2/hotlist-search-64" tests

(* Table 5 core op: MD5 one 4KB buffer. *)
let md5_tests =
  let size = 4096 in
  let data = Graft_util.Prng.bytes (Graft_util.Prng.create 0x3D5L) size in
  let tests =
    List.map
      (fun tech ->
        let runner = Runners.md5 tech ~capacity:size in
        runner.Runners.load data;
        Test.make
          ~name:(Technology.name tech)
          (Staged.stage (fun () -> runner.Runners.compute size)))
      micro_techs
  in
  Test.make_grouped ~name:"table5/md5-4KB" tests

(* Table 6 core op: one logical-disk mapped write. *)
let logdisk_tests =
  let nblocks = 4096 in
  let tests =
    List.map
      (fun tech ->
        let policy = Runners.logdisk_policy tech ~nblocks in
        let next = ref 0 in
        Test.make
          ~name:(Technology.name tech)
          (Staged.stage (fun () ->
               next := (!next + 1677) land (nblocks - 1);
               ignore (policy.Graft_kernel.Logdisk.map_write !next))))
      micro_techs
  in
  Test.make_grouped ~name:"table6/logdisk-map-write" tests

(* Table 1 / Figure 1 core op: the upcall cost model itself. *)
let upcall_tests =
  let clock = Graft_kernel.Simclock.create () in
  let domain =
    Graft_kernel.Upcall.create ~name:"bench" ~clock ~switch_s:10e-6 ()
  in
  Test.make_grouped ~name:"table1/upcall-model"
    [
      Test.make ~name:"upcall-dispatch"
        (Staged.stage (fun () ->
             ignore (Graft_kernel.Upcall.upcall domain (fun a -> a.(0)) [| 1 |])));
    ]

let run_micro () =
  let tests =
    Test.make_grouped ~name:"graftkit"
      [ evict_tests; md5_tests; logdisk_tests; upcall_tests ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  print_endline "== Bechamel micro-benchmarks (per operation, OLS) ==";
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  let t = Graft_util.Tablefmt.create [| "Benchmark"; "ns/op" |] in
  List.iter
    (fun (name, ns) ->
      Graft_util.Tablefmt.add_row t [| name; Printf.sprintf "%.1f" ns |])
    rows;
  Graft_util.Tablefmt.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bytecode tier comparison (machine-readable).                        *)
(* ------------------------------------------------------------------ *)

(* Interpreter vs JIT bytecode tiers over each graft's core op, written
   as v5 JSON (medians with bootstrap CIs) so CI and plots can track
   the speedup. The suite, the harness, and the schema live in
   Graft_report.Benchgate — the same code `graftkit bench` runs. *)
let stackvm_json ?(path = "BENCH_stackvm.json") () =
  let rows = Graft_report.Benchgate.run_suite () in
  List.iter
    (fun (r : Graft_report.Benchgate.row) ->
      let open Graft_stats.Robust in
      Printf.printf "%-20s interp %10.1f ns/op   jit %10.1f ns/op   jit %.2fx\n%!"
        r.Graft_report.Benchgate.graft r.Graft_report.Benchgate.interp.median
        r.Graft_report.Benchgate.jit.median
        (r.Graft_report.Benchgate.interp.median
        /. r.Graft_report.Benchgate.jit.median))
    rows;
  Graft_report.Benchgate.save ~path rows;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Experiment tables.                                                  *)
(* ------------------------------------------------------------------ *)

let known_tables scale =
  let open Graft_report.Experiments in
  [
    ("table1", fun () -> table1 ());
    ("table2", fun () -> table2 scale);
    ("table3", fun () -> table3 ());
    ("table4", fun () -> table4 ());
    ("table5", fun () -> table5 scale);
    ("table6", fun () -> table6 scale);
    ("figure1", fun () -> figure1 scale);
    ("a1", fun () -> ablation_nil scale);
    ("a2", fun () -> ablation_sfi scale);
    ("a3", fun () -> ablation_interp scale);
    ("a4", fun () -> ablation_regvm ());
    ("a5", fun () -> ablation_upcall ());
    ("a6", fun () -> ablation_pfvm scale);
    ("a7", fun () -> ablation_hipec scale);
    ("a8", fun () -> ablation_trace scale);
    ("a9", fun () -> ablation_supervision scale);
    ("a10", fun () -> ablation_metrics scale);
    ("a11", fun () -> ablation_gate scale);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let scale =
    if List.mem "full" args then Graft_report.Experiments.Full
    else Graft_report.Experiments.Quick
  in
  let args = List.filter (fun a -> a <> "full" && a <> "quick") args in
  let tables = known_tables scale in
  match args with
  | [ "micro" ] -> run_micro ()
  | [ "stackvm-json" ] -> stackvm_json ()
  | [] ->
      run_micro ();
      List.iter
        (fun (_, f) -> print_string (Graft_report.Experiments.render (f ())))
        tables
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt (String.lowercase_ascii name) tables with
          | Some f -> print_string (Graft_report.Experiments.render (f ()))
          | None ->
              prerr_endline ("unknown table: " ^ name);
              exit 2)
        names
