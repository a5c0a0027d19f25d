(* Tests of the benchmark itself: a tiny-size run passes every output
   check, every check fails on a corrupted output, the seed reaches
   every workload, and BENCHMARK.json and METRICS.md agree with the
   metric table. *)

open Graftbench
module Serve = Graft_slo.Serve
module Technology = Graft_core.Technology
module Json = Graft_util.Minijson

let tiny seed = { Serve.smoke with seed; tenants = 6; duration_s = 2.0 }

(* One round over every pair of [grafts], load-time checks included. *)
let one_round grafts =
  let pairs = Pairs.load grafts in
  let o = Pairs.run ~budget_ns:0 ~min_rounds:1 pairs in
  { o with Pairs.mismatches = o.Pairs.mismatches + Pairs.load_mismatches pairs }

let graft name grafts = List.find (fun g -> g.Pairs.g_name = name) grafts

(* [g] with the output of call 0 (or the finish output) corrupted on
   [tech] only. *)
let corrupt ?(finish = false) ~tech g =
  {
    g with
    Pairs.load =
      (fun t ->
        let i = g.Pairs.load t in
        if Technology.name t <> tech then i
        else if finish then
          {
            i with
            Pairs.finish =
              (fun () ->
                let s = Bytes.of_string (i.Pairs.finish ()) in
                Bytes.set s 0 (if Bytes.get s 0 = '0' then '1' else '0');
                Bytes.to_string s);
          }
        else { i with Pairs.call = (fun k -> if k = 0 then i.Pairs.call k + 1 else i.Pairs.call k) });
  }

(* ------------------------------------------------------------------ *)
(* A tiny-size run passes every check.                                 *)
(* ------------------------------------------------------------------ *)

let test_tiers_clean () =
  let o = one_round (Pairs.tiers_grafts ~seed:7) in
  Alcotest.(check int) "no tier output differs" 0 o.Pairs.mismatches;
  Alcotest.(check bool) "every pair ran" true (o.Pairs.attempted > 0)

let test_serve_clean () =
  let cfg = tiny 7 in
  let r = Serve.run cfg in
  Alcotest.(check (list string)) "report checks" [] (Servecheck.report r);
  Alcotest.(check bool) "replayed twice identically" true
    (Serve.to_json (Serve.run cfg) = Serve.to_json r);
  let r2 = Serve.run { cfg with domains = 2 } in
  Alcotest.(check bool) "2-domain report equals 1-domain" true
    (Servecheck.same_up_to_partition ~one:(Serve.to_json r) ~many:(Serve.to_json r2));
  List.iter
    (fun domains ->
      let replay = Replay.run { cfg with domains } in
      Alcotest.(check (list string))
        (Printf.sprintf "replay on %d domain(s) matches Serve.run" domains)
        [] (Replay.mismatches replay r))
    [ 1; 2 ]

(* Every image the phase timer is given loads through every phase: the
   image of each tiers pair, and of each serve class on each tier. *)
let test_phases_accept () =
  let accepts what img t =
    match Phases.measure img t with
    | _ -> ()
    | exception Phases.Rejected msg ->
        Alcotest.failf "%s on %s rejected: %s" what (Technology.name t) msg
  in
  List.iter
    (fun p -> accepts p.Pairs.graft.Pairs.g_name p.Pairs.inst.Pairs.image p.Pairs.tech)
    (Pairs.load (Pairs.tiers_grafts ~seed:1));
  let replay = Replay.run (tiny 1) in
  Array.iter
    (fun (_, so) ->
      Array.iter
        (fun t ->
          List.iter
            (fun c -> accepts c (Phases.serve_image t c) t.Serve.t_tech)
            Spec.serve_classes)
        so.Serve.so_tenants)
    replay.Replay.shards

(* ------------------------------------------------------------------ *)
(* Each check reports a corrupted output.                              *)
(* ------------------------------------------------------------------ *)

let test_tier_corruption () =
  let grafts = Pairs.tiers_grafts ~seed:7 in
  List.iter
    (fun (name, tech, finish) ->
      let o = one_round [ corrupt ~finish ~tech (graft name grafts) ] in
      Alcotest.(check bool)
        (Printf.sprintf "%s on %s corrupted is caught" name tech)
        true (o.Pairs.mismatches > 0))
    [
      ("md5", "jit", true);
      ("md5", "unsafe-c", true);
      ("evict", "bytecode-vm", false);
      ("pf", "sfi-full", false);
      ("demux", "jit", false);
      ("hotset", "safe-lang-static", false);
      ("logdisk", "unsafe-c", false);
    ]

let test_serve_corruption () =
  let r = Serve.run (tiny 7) in
  let moved = { r with Serve.r_good = r.Serve.r_good - 1; r_errors = r.r_errors + 1 } in
  Alcotest.(check bool) "one op moved from good to errors" true
    (Servecheck.report moved <> []);
  let dropped = { r with Serve.r_ops = r.Serve.r_ops + 1 } in
  Alcotest.(check bool) "ops without an outcome" true (Servecheck.report dropped <> []);
  let replay = Replay.run (tiny 7) in
  Alcotest.(check bool) "replay against a different fired list" true
    (Replay.mismatches replay { r with Serve.r_fired = [] } <> []);
  let json = Serve.to_json r in
  let swap a b s =
    let n = String.length a in
    let rec find i = if String.sub s i n = a then i else find (i + 1) in
    let i = find 0 in
    String.sub s 0 i ^ b ^ String.sub s (i + String.length a) (String.length s - i - String.length a)
  in
  let ops = Printf.sprintf "\"ops\":%d" r.Serve.r_ops in
  Alcotest.(check bool) "2-domain report with a different op count" false
    (Servecheck.same_up_to_partition ~one:json
       ~many:(swap ops (Printf.sprintf "\"ops\":%d" (r.Serve.r_ops + 1)) json));
  Alcotest.(check bool) "only the domain count differs" true
    (Servecheck.same_up_to_partition ~one:json
       ~many:(swap "\"domains\":1" "\"domains\":2" json))

(* ------------------------------------------------------------------ *)
(* The seed reaches every workload.                                    *)
(* ------------------------------------------------------------------ *)

let test_seed () =
  List.iter
    (fun w ->
      Alcotest.(check int) (w ^ " config carries the seed") 1234
        (Bench.serve_config w 1234).Serve.seed)
    [ "serve"; "serve-2d" ];
  Alcotest.(check int) "serve-2d runs on 2 domains" 2
    (Bench.serve_config "serve-2d" 1).Serve.domains;
  Alcotest.(check bool) "serve reports differ across seeds" true
    (Serve.to_json (Serve.run (tiny 1)) <> Serve.to_json (Serve.run (tiny 2)));
  let digest seed =
    match (graft "md5" (Pairs.tiers_grafts ~seed)).Pairs.reference with
    | Pairs.Oracle (_, fin) -> fin 0
    | Pairs.Tier _ -> Alcotest.fail "md5 has an oracle"
  in
  Alcotest.(check bool) "tiers inputs differ across seeds" true (digest 1 <> digest 2);
  Alcotest.(check string) "tiers inputs repeat for a seed" (digest 3) (digest 3)

let test_usage () =
  List.iter
    (fun args ->
      match Bench.main (Array.of_list ("graftbench" :: args)) with
      | () -> Alcotest.failf "accepted %s" (String.concat " " args)
      | exception Bench.Usage _ -> ())
    [
      [];
      [ "--workload"; "nope" ];
      [ "--workload"; "tiers"; "--seed"; "x" ];
      [ "--workload"; "tiers"; "--trace"; "2" ];
      [ "--workload"; "tiers"; "--seconds"; "0" ];
      [ "stray" ];
    ]

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json and METRICS.md agree with the table.                 *)
(* ------------------------------------------------------------------ *)

let read path = In_channel.with_open_bin path In_channel.input_all

let test_benchmark_json () =
  let parse s = match Json.parse s with Ok v -> v | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "BENCHMARK.json is the table's rendering" true
    (parse (read "../../BENCHMARK.json")
    = parse (Spec.benchmark_json ~run_seconds:Bench.run_seconds));
  Alcotest.(check string) "METRICS.md is current" (Spec.render ()) (read "../METRICS.md");
  let names = List.map (fun m -> m.Spec.name) (Spec.end_to_end @ Spec.per_layer) in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "at most 128 per-layer metrics" true
    (List.length Spec.per_layer <= 128);
  List.iter
    (fun (_, why) ->
      Alcotest.(check bool) "why fits one line" true
        (String.length why <= 200 && not (String.contains why '\n')))
    Spec.workloads

(* Every (graft, tier) pair the runners accept is one the table names,
   so no measured pair is silently dropped from the report. *)
let test_pairs_in_table () =
  let pairs = Pairs.load (Pairs.tiers_grafts ~seed:1) in
  List.iter
    (fun p ->
      let g = p.Pairs.graft.Pairs.g_name and t = Pairs.tech_name p in
      Alcotest.(check bool)
        (Printf.sprintf "%s on %s is in the table" g t)
        true
        (List.mem t (List.assoc g Spec.tier_pairs)))
    pairs

let () =
  Alcotest.run "graftbench"
    [
      ( "clean",
        [
          Alcotest.test_case "tiers" `Quick test_tiers_clean;
          Alcotest.test_case "serve" `Quick test_serve_clean;
          Alcotest.test_case "phases" `Quick test_phases_accept;
        ] );
      ( "corrupted",
        [
          Alcotest.test_case "tiers" `Quick test_tier_corruption;
          Alcotest.test_case "serve" `Quick test_serve_corruption;
        ] );
      ( "args",
        [
          Alcotest.test_case "seed" `Quick test_seed;
          Alcotest.test_case "usage" `Quick test_usage;
        ] );
      ( "table",
        [
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
          Alcotest.test_case "pairs" `Quick test_pairs_in_table;
        ] );
    ]
