(** Every metric the benchmark prints: its unit and direction, the
    layer it is measured at, and the end-to-end metric it should move
    on which workload. BENCHMARK.json carries the names, units,
    directions and bounds (a test checks that it agrees with this
    table); [render] writes the whole table as METRICS.md. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** end-to-end only: allowed worsening, share of median *)
  layer : string;  (** module(s) measured *)
  moves : string;  (** the end-to-end metric it should move, and where *)
  doc : string;
}

let workloads =
  [
    ( "serve",
      "Serve.run Serve.default on 1 domain: 224 supervised grafts from 24 \
       distinct images, the only mix crossing faults, Manager, 6 tiers, maps \
       and SLO recording" );
    ( "serve-2d",
      "the same serve config on 2 domains: the only workload where two \
       domains load and serve at once, so scale-out and GC contention in \
       setup show" );
    ( "tiers",
      "the paper's graft operations, each loaded once per technology and \
       invoked in a closed loop with no Manager or SLO code: isolates \
       per-tier invocation cost" );
  ]

let workload_names = List.map fst workloads

(** The six tiers whose invocation cost is an end-to-end metric;
    [unsafe-c] is the base of every protection-cost ratio. *)
let e2e_techs =
  [ "unsafe-c"; "sfi-full"; "safe-lang-static"; "jit"; "bytecode-vm"; "ast-interp" ]

(* Every technology a general graft runner accepts, and the VM tiers
   that load the map-based grafts. *)
let general_techs =
  [
    "unsafe-c"; "safe-lang"; "safe-lang-nil"; "sfi-wj"; "sfi-full";
    "bytecode-vm"; "bytecode-opt"; "safe-lang-static"; "jit"; "ast-interp";
    "source-interp";
  ]

let map_techs =
  [ "sfi-wj"; "sfi-full"; "bytecode-vm"; "bytecode-opt"; "safe-lang-static"; "jit"; "ast-interp" ]

(** The (graft, technology) pairs the [tiers] workload reports. *)
let tier_pairs =
  [
    ("evict", general_techs);
    ("md5", general_techs);
    ("logdisk", general_techs);
    ("pf", general_techs @ [ "pf-vm" ]);
    ("demux", map_techs @ [ "pf-vm" ]);
    ("hotset", map_techs);
  ]

let load_techs = general_techs @ [ "pf-vm" ]

(** Serve's graft classes and its technology rotation. *)
let serve_classes = [ "demux"; "hotset"; "stream"; "evict" ]

let rotation_techs =
  [ "bytecode-opt"; "jit"; "safe-lang-static"; "bytecode-vm"; "sfi-full"; "ast-interp" ]

let m ?(bound = 0.0) name unit_ better ~layer ~moves doc =
  { name; unit_; better; bound; layer; moves; doc }

let end_to_end =
  [
    m "setup_s" "s" Lower ~bound:0.25 ~layer:"Serve.run, Runners"
      ~moves:"itself"
      "Median over cold processes (no earlier call warmed any cache) of: \
       serve, serve-2d: wall time of Serve.run with no traffic (duration_s = \
       0), loading and attaching the fleet; tiers: loading every (graft, \
       tier) pair once.";
    m "ops_per_s" "ops/s" Higher ~bound:0.25 ~layer:"Serve.run, Runners"
      ~moves:"itself"
      "serve, serve-2d: r_ops over the wall time of the whole Serve.run \
       call, median over repeated calls each started from a collected \
       heap. tiers: 1e9 over the geometric mean, across every (graft, tier) \
       pair, of the median ns per invocation.";
    m "ok_frac" "fraction" Higher ~bound:0.0002 ~layer:"Serve.run, Runners"
      ~moves:"itself"
      "1 - error_frac: the share of attempted ops neither lost to a fault \
       nor answered with an output that differs from the reference. Never 0, \
       unlike error_frac, which is 0 on tiers.";
    m "rss_peak_mb" "MB" Lower ~bound:0.1 ~layer:"process" ~moves:"itself"
      "Peak resident memory (VmHWM) of the workload's own process: \
       serve, serve-2d: after the first full Serve.run of a fresh process; \
       tiers: after the closed loop.";
  ]
  @ List.map
      (fun t ->
        m ("ns_per_op." ^ t) "ns" Lower ~bound:0.25 ~layer:"Runners closures"
          ~moves:"itself"
          (Printf.sprintf
             "Geometric mean, over the paper's grafts that %s runs, of the \
              median ns per invocation in the closed loop. Serve runs \
              measure the same loop, for the six reported tiers only, in \
              slices between their timed Serve.run calls."
             t))
      e2e_techs

let setup_moves = "setup_s and rss_peak_mb on serve/serve-2d"

let per_layer =
  let loader = "lib/core Runners; lib/gel, lib/analysis, lib/stackvm, lib/regvm, lib/jit loaders" in
  [
    m "setup.load_ms" "ms" Lower ~layer:loader ~moves:setup_moves
      "serve: wall time of the Serve.make_tenant calls (runner loading \
       plus per-tenant inputs); tiers: sum of load.<tech>.ms.";
    m "setup.loads" "count" Lower ~layer:loader ~moves:setup_moves
      "Runner constructions: 224 on serve, one per pair on tiers.";
    m "setup.distinct_images" "count" Lower ~layer:loader ~moves:setup_moves
      "Distinct (graft source, tier) images among the loads: 24 on serve.";
    m "setup.reload_frac" "fraction" Lower ~layer:loader ~moves:setup_moves
      "1 - distinct_images / loads: the share of loads an image cache \
       could skip (0.89 on serve, 0 on tiers).";
    m "setup.frontend_ms" "ms" Lower ~layer:"lib/gel, Runners.gel_env, bytecode compilers"
      ~moves:setup_moves
      "Once per distinct image: parse, typecheck, link, and compile to the \
       tier's bytecode.";
    m "setup.analysis_ms" "ms" Lower ~layer:"lib/analysis" ~moves:setup_moves
      "Once per distinct image: helper-table check, interval analysis \
       (static and JIT tiers), loop-bound derivation (bounded loads).";
    m "setup.verify_ms" "ms" Lower ~layer:"lib/stackvm, lib/regvm, Pfvm verifiers"
      ~moves:setup_moves "Once per distinct image: the load-time verifier.";
    m "setup.jit_ms" "ms" Lower ~layer:"lib/jit" ~moves:setup_moves
      "Once per distinct JIT image: block planning and closure compilation.";
    m "setup.minor_words" "words" Lower ~layer:loader ~moves:setup_moves
      "Minor-heap words allocated during the make_tenant calls (serve) or \
       the pair loads (tiers).";
    m "setup.major_collections" "count" Lower ~layer:"OCaml GC"
      ~moves:setup_moves "Major collections during the same span.";
  ]
  @ List.map
      (fun t ->
        m ("load." ^ t ^ ".ms") "ms" Lower ~layer:"lib/core Runners"
          ~moves:"setup_s on tiers"
          (Printf.sprintf "tiers: time to construct every %s runner once." t))
      load_techs
  @ [
      m "setup.events_ms" "ms" Lower ~layer:"lib/workload Arrival, Serve.tenant_events"
        ~moves:"ops_per_s on serve/serve-2d"
        "Op-stream generation and sort: inside the full Serve.run, outside \
         the no-traffic one.";
      m "fault.check_ns_per_op" "ns" Lower ~layer:"lib/faultinject"
        ~moves:"ops_per_s on serve/serve-2d" "Faultinject.check time per op.";
      m "fault.fired" "count" Lower ~layer:"lib/faultinject"
        ~moves:"nothing: must leave ok_frac unchanged"
        "Fault arms that fired.";
      m "manager.self_ns_per_op" "ns" Lower ~layer:"lib/core Manager"
        ~moves:"ops_per_s on serve/serve-2d"
        "Manager.invoke span minus the fault check and graft call inside \
         it, per op.";
      m "manager.faults" "count" Lower ~layer:"lib/core Manager"
        ~moves:"ok_frac on serve/serve-2d" "Faults the Manager contained.";
      m "manager.fallbacks" "count" Lower ~layer:"lib/core Manager"
        ~moves:"ok_frac on serve/serve-2d"
        "Invocations answered by the kernel default path.";
      m "manager.quarantined" "count" Lower ~layer:"lib/core Manager"
        ~moves:"ok_frac on serve/serve-2d" "Grafts quarantined at run end.";
    ]
  @ List.concat_map
      (fun c ->
        let layer = "tier modules via Runners" and moves = "ops_per_s on serve/serve-2d" in
        [
          m (Printf.sprintf "op.%s.ns_per_op" c) "ns" Lower ~layer ~moves
            (Printf.sprintf "Mean graft-call ns of serve's %s ops." c);
          m (Printf.sprintf "op.%s.p50_us" c) "us" Lower ~layer ~moves
            (Printf.sprintf "Median graft-call time of serve's %s ops." c);
          m (Printf.sprintf "op.%s.p99_us" c) "us" Lower ~layer ~moves
            (Printf.sprintf "99th-percentile graft-call time of serve's %s ops." c);
          m (Printf.sprintf "op.%s.samples" c) "count" Higher ~layer ~moves
            (Printf.sprintf "Graft calls of serve's %s ops behind the figures." c);
        ])
      serve_classes
  @ List.map
      (fun t ->
        m (Printf.sprintf "op.%s.ns_per_op" t) "ns" Lower ~layer:"tier modules via Runners"
          ~moves:"ops_per_s on serve/serve-2d"
          (Printf.sprintf "Mean graft-call ns of serve's ops on %s tenants." t))
      rotation_techs
  @ List.concat_map
      (fun (g, techs) ->
        List.map
          (fun t ->
            m (Printf.sprintf "graft.%s.%s.ns_per_op" g t) "ns" Lower
              ~layer:"tier modules via Runners"
              ~moves:(Printf.sprintf "ns_per_op.%s on tiers" t)
              (Printf.sprintf "Median ns per %s invocation on %s." g t))
          techs)
      tier_pairs
  @ List.map
      (fun t ->
        m (Printf.sprintf "alloc.%s.words_per_op" t) "words" Lower
          ~layer:"tier modules via Runners"
          ~moves:(Printf.sprintf "ns_per_op.%s on tiers" t)
          (Printf.sprintf
             "Minor words per invocation on %s, mean over its grafts." t))
      e2e_techs
  @ [
      m "map.lookups" "count" Lower ~layer:"lib/kernel Graftmap (Graftmeter counters)"
        ~moves:"ns_per_op.<tech> on tiers via the demux/hotset pairs"
        "Graft-map lookups during the op loop (serve), or during the first \
         4 rounds of the closed loop, one pass over every input (tiers).";
      m "map.updates" "count" Lower ~layer:"lib/kernel Graftmap (Graftmeter counters)"
        ~moves:"ns_per_op.<tech> on tiers via the demux/hotset pairs"
        "Graft-map updates in the same span.";
      m "map.evictions" "count" Lower ~layer:"lib/kernel Graftmap (Graftmeter counters)"
        ~moves:"ns_per_op.<tech> on tiers via the hotset pairs"
        "LRU evictions in the same span.";
      m "slo.record_ns_per_op" "ns" Lower ~layer:"lib/slo Window, lib/trace Histo"
        ~moves:"ops_per_s on serve/serve-2d"
        "Window and histogram recording time per op.";
      m "clock.charge_ns_per_op" "ns" Lower ~layer:"lib/kernel Simclock"
        ~moves:"ops_per_s on serve/serve-2d"
        "Simclock.advance_to plus charge time per op.";
      m "merge_ms" "ms" Lower ~layer:"Serve.merge_windows, merge_snapshots, Mttr"
        ~moves:"ops_per_s on serve/serve-2d"
        "Window, snapshot and MTTR merge after the op loop.";
      m "loop.minor_words_per_op" "words" Lower ~layer:"op loop (all layers)"
        ~moves:"ops_per_s on serve/serve-2d, most on serve-2d"
        "Minor words allocated per op in the traced op loop.";
      m "loop.minor_collections" "count" Lower ~layer:"OCaml GC"
        ~moves:"ops_per_s on serve/serve-2d, most on serve-2d"
        "Minor collections during the op loop.";
      m "loop.major_collections" "count" Lower ~layer:"OCaml GC"
        ~moves:"ops_per_s on serve/serve-2d, most on serve-2d"
        "Major collections during the op loop.";
      m "trace.overhead_frac" "fraction" Lower ~layer:"this benchmark's spans"
        ~moves:"nothing: the cost of measuring"
        "Traced replay wall time over the untraced Serve.run, minus 1.";
      m "error_frac" "fraction" Lower ~layer:"Serve.run, Runners"
        ~moves:"ok_frac (its complement)"
        "Ops lost to faults plus outputs that differ from the reference, over \
         ops attempted: 11/58925 on serve at seed 42, 0 on tiers.";
    ]

(** [render] is METRICS.md. *)
let render () =
  let b = Buffer.create 16384 in
  let pr fmt = Printf.bprintf b fmt in
  pr "# Graftbench metrics\n\n";
  pr
    "Generated by `graftbench/run.sh --describe`; the test suite checks it is \
     current.\nEvery run prints every metric of its kind; a per-layer metric \
     a workload does not exercise reads 0.\nTimes are CLOCK_MONOTONIC \
     nanoseconds; a span around a single call includes one clock read (about \
     40 ns on a 2-vCPU Intel Xeon VM).\n\n";
  pr "## Workloads\n\n";
  List.iter (fun (n, why) -> pr "- `%s`: %s.\n" n why) workloads;
  pr "\n## End-to-end metrics (`--trace 0`)\n\n";
  pr "| name | unit | better | bound | definition |\n|---|---|---|---|---|\n";
  List.iter
    (fun x ->
      pr "| `%s` | %s | %s | %g | %s |\n" x.name x.unit_ (better_name x.better)
        x.bound x.doc)
    end_to_end;
  pr "\n## Per-layer metrics (`--trace 1`)\n\n";
  pr "| name | unit | better | layer | should move | definition |\n|---|---|---|---|---|---|\n";
  List.iter
    (fun x ->
      pr "| `%s` | %s | %s | %s | %s | %s |\n" x.name x.unit_
        (better_name x.better) x.layer x.moves x.doc)
    per_layer;
  Buffer.contents b

(** BENCHMARK.json, from the same table. *)
let benchmark_json ~run_seconds =
  let b = Buffer.create 16384 in
  let pr fmt = Printf.bprintf b fmt in
  let list f xs = String.concat ",\n" (List.map f xs) in
  pr "{\n  \"command\": [\"bash\", \"graftbench/run.sh\"],\n";
  pr "  \"paths\": [\"graftbench\"],\n";
  pr "  \"run_seconds\": %d,\n" run_seconds;
  pr "  \"workloads\": [\n%s\n  ],\n"
    (list (fun (n, w) -> Printf.sprintf "    {\"name\": %S, \"why\": %S}" n w) workloads);
  pr "  \"end_to_end\": [\n%s\n  ],\n"
    (list
       (fun x ->
         Printf.sprintf
           "    {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %g}"
           x.name x.unit_ (better_name x.better) x.bound)
       end_to_end);
  pr "  \"per_layer\": [\n%s\n  ]\n}\n"
    (list
       (fun x ->
         Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S}" x.name
           x.unit_ (better_name x.better))
       per_layer);
  Buffer.contents b
