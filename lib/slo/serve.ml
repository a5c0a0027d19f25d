(** Graftwatch: the sustained-load serving harness — sharded across
    OCaml 5 domains by Graftswarm.

    [graftkit serve] replays a skewed multi-tenant workload — TPC-B
    page lookups, packet storms through the stateful demux graft,
    stream fingerprinting, and eviction pressure — across hundreds of
    concurrently supervised grafts for minutes of {e simulated} time,
    and reports time-series SLO telemetry: per-tenant windowed latency
    percentiles, fairness indices, error-budget burn, and MTTR under
    an injected fault plan.

    The model is an open-loop FIFO queue {e per tenant} over
    {!Graft_kernel.Simclock}: arrivals are per-tenant Poisson
    processes (rates Zipf-skewed across tenants), each operation
    {e really executes} its graft through {!Graft_core.Manager.invoke}
    (so supervision, metrics, and injected faults are genuine), and a
    synthetic service time — calibrated per class and technology tier,
    with log-normal jitter — is charged to the tenant's simulated
    clock. Latency is completion minus arrival, so queueing delay
    during packet storms produces real tails.

    {b Sharding and the merge laws.} With [domains = N], tenants are
    partitioned round-robin by Zipf rank (shard [k] owns ranks [k],
    [k+N], ... — every shard gets a slice of the skew) and each shard
    runs on its own domain with fully private state: its own manager,
    fault plan, metrics registry, and Graftscope ring. Every random
    stream is derived from [(seed, tenant index)] — never from a
    shared generator — and every tenant owns its clock, so a tenant's
    entire history is a pure function of (seed, config) {e independent
    of the partition}. Merge-on-read (windows group by aligned start
    and merge bucketwise; snapshot partials, fault totals, and fired
    arms combine order-invariantly) therefore reproduces the
    single-domain report exactly: the JSON differs across [N] only in
    the ["domains"] field itself and the per-domain trace-ring drop
    counts (rings of fixed capacity see different event subsets). The
    differential tests in test_swarm pin both claims down.

    Every number derives from [Prng(seed)] and the simulated clocks:
    the same (seed, config) reproduces the same report bit-for-bit
    (wall-clock cost is reported separately and never compared). *)

open Graft_core

type config = {
  seed : int;
  tenants : int;
  duration_s : float;  (** simulated seconds of traffic *)
  base_rate : float;  (** mean per-tenant arrival rate before skew *)
  window_s : float;  (** SLO window width *)
  snapshot_every_s : float;  (** OpenMetrics snapshot period *)
  narms : int;  (** seeded fault arms (plus 2 deterministic strikes) *)
  subbits : int;  (** latency histogram resolution *)
  latency_slo_us : int;
  slo_target : float;
  domains : int;  (** worker domains; 1 = run inline on this domain *)
  lens : bool;  (** Graftlens causal tracing (off by default) *)
  lens_threshold_us : int;  (** tail-retention latency bar; 0 = the SLO *)
}

(** 56 tenants x 4 graft classes = 224 supervised grafts, 30 simulated
    seconds. *)
let default =
  {
    seed = 42;
    tenants = 56;
    duration_s = 30.0;
    base_rate = 35.0;
    window_s = 5.0;
    snapshot_every_s = 10.0;
    narms = 10;
    subbits = 3;
    latency_slo_us = 5000;
    slo_target = 0.99;
    domains = 1;
    lens = false;
    lens_threshold_us = 0;
  }

(** The tail-retention bar: ops slower than this (or faulted) keep
    their full span set. Defaults to the latency SLO itself. *)
let lens_threshold cfg =
  if cfg.lens_threshold_us > 0 then cfg.lens_threshold_us
  else cfg.latency_slo_us

(** A seconds-scale run for CI. *)
let smoke =
  {
    default with
    tenants = 8;
    duration_s = 8.0;
    base_rate = 40.0;
    window_s = 2.0;
    snapshot_every_s = 3.0;
    narms = 4;
  }

(* ------------------------------------------------------------------ *)
(* Workload shape.                                                     *)
(* ------------------------------------------------------------------ *)

type op_class = Demux | Hotset | Stream | Evict

let class_name = function
  | Demux -> "demux"
  | Hotset -> "hotset"
  | Stream -> "stream"
  | Evict -> "evict"

(* Class mix: packet handling dominates, as in the paper's motivating
   workloads. *)
let class_of_draw r =
  if r < 45 then Demux else if r < 70 then Hotset else if r < 85 then Stream
  else Evict

(* Technology rotation across tenants: every protected tier the
   stateful-graft runners support, fast tiers first by measured
   per-op cost in this mix (graftbench's op.<tier>.ns_per_op), so the
   Zipf-heavy tenants land on realistic production choices. *)
let tech_rotation =
  [|
    Technology.Sfi_full; Technology.Jit; Technology.Safe_lang_static;
    Technology.Bytecode_vm; Technology.Ast_interp;
  |]

(* Synthetic service-time multiplier per tier, anchored on the
   measured interp/JIT ratios in BENCH_stackvm.json. *)
let tech_mult = function
  | Technology.Jit -> 1.0
  | Technology.Safe_lang_static -> 0.9
  | Technology.Sfi_full -> 1.2
  | Technology.Bytecode_vm -> 3.0
  | Technology.Ast_interp -> 6.0
  | t -> invalid_arg ("Serve.tech_mult: " ^ Technology.name t)

(* Base service cost in simulated µs: the whole kernel request, not
   just the graft entry. *)
let base_us cls ~size =
  match cls with
  | Demux -> 60.0 +. (0.05 *. float_of_int size)
  | Hotset -> 50.0
  | Stream -> 120.0 +. (0.5 *. float_of_int size)
  | Evict -> 80.0

let fallback_us = 30.0 (* the kernel's native default path *)
let fault_penalty_us = 400.0 (* trap + supervision bookkeeping *)
let storm_batch = 6 (* packets per demux op inside a storm *)
let stream_chunk = 160 (* bytes fingerprinted per stream op *)
let md5_capacity = 256
let hot_pages_per_refresh = 32
let evict_refresh_every = 64

(* Supervision policy for serve grafts: strict budget so injected
   faults produce visible disable/re-enable/quarantine transitions
   within a run. *)
let serve_policy =
  Manager.
    { max_faults = 1; backoff_base = 32; backoff_factor = 4; max_strikes = 2 }

(* ------------------------------------------------------------------ *)
(* Seed derivation.                                                    *)
(*                                                                     *)
(* Every random stream is keyed by (config seed, tenant index) via a   *)
(* golden-ratio stride — never split sequentially from one master      *)
(* generator, which would make a tenant's stream depend on how many    *)
(* tenants were built before it on the same domain (i.e. on the        *)
(* partition). This is what makes the merged report independent of     *)
(* [domains].                                                          *)
(* ------------------------------------------------------------------ *)

let golden = 0x9E3779B97F4A7C15L
let sub_seed cfg tag = Int64.(add (of_int cfg.seed) (mul golden (of_int tag)))
let storm_seed cfg = sub_seed cfg 1
let tenant_seed cfg i = sub_seed cfg (i + 2)

(* ------------------------------------------------------------------ *)
(* Per-tenant state.                                                   *)
(* ------------------------------------------------------------------ *)

type tenant = {
  t_idx : int;
  t_name : string;
  t_tech : Technology.t;
  t_rate : float;
  demux_g : Manager.graft;
  demux_r : Runners.demux;
  hotset_g : Manager.graft;
  hotset_r : Runners.hotset;
  stream_g : Manager.graft;
  stream_r : Runners.md5;
  evict_g : Manager.graft;
  evict_r : Runners.evict;
  packets : Graft_kernel.Netpkt.t array;
  chunks : bytes array;
  btree : Graft_workload.Tpcb.t;
  refresh_rng : Graft_util.Prng.t;
  t_arrival : Graft_util.Prng.t;  (** arrival times and op specs *)
  t_svc : Graft_util.Prng.t;  (** service-time jitter *)
  t_clock : Graft_kernel.Simclock.t;  (** this tenant's FIFO server *)
  recorder : Window.recorder;
  mutable demand : int;  (** ops issued *)
  mutable good : int;  (** ops completed (graft or fallback) *)
  mutable errors : int;  (** ops lost to faults *)
  mutable evict_ops : int;
}

type op_spec =
  | Op_demux of int  (** packet pool index *)
  | Op_hotset of int * int  (** (l3 index, child index) *)
  | Op_stream of int  (** chunk pool index *)
  | Op_evict of int  (** page to test *)

type event = { ev_t : float; ev_seq : int; ev_tenant : int; ev_spec : op_spec }

(* Zipf-style tenant weights (s = 0.8), normalized to mean 1 so
   [base_rate] stays the mean per-tenant rate. *)
let tenant_weights n =
  let raw = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** 0.8)) in
  let total = Array.fold_left ( +. ) 0.0 raw in
  Array.map (fun w -> w *. float_of_int n /. total) raw

let graft_port i = 4000 + i
let graft_name i cls = Printf.sprintf "t%02d_%s" i (class_name cls)

let make_tenant mgr cfg i =
  let tech = tech_rotation.(i mod Array.length tech_rotation) in
  let name = Printf.sprintf "t%02d" i in
  let master = Graft_util.Prng.create (tenant_seed cfg i) in
  (* Fixed split order: each stream is a deterministic function of the
     tenant seed alone. *)
  let chunks_rng = Graft_util.Prng.split master in
  let evict_rng = Graft_util.Prng.split master in
  let packets_rng = Graft_util.Prng.split master in
  let refresh_rng = Graft_util.Prng.split master in
  let arrival_rng = Graft_util.Prng.split master in
  let svc_rng = Graft_util.Prng.split master in
  let register cls =
    let g =
      Manager.register mgr ~name:(graft_name i cls) ~tech
        ~structure:Taxonomy.Stream ~motivation:Taxonomy.Performance
        ~policy:serve_policy ()
    in
    g.Manager.state <- Manager.Attached;
    g
  in
  let weights = tenant_weights cfg.tenants in
  {
    t_idx = i;
    t_name = name;
    t_tech = tech;
    t_rate = cfg.base_rate *. weights.(i);
    demux_g = register Demux;
    demux_r =
      Runners.demux tech ~protocol:Graft_kernel.Netpkt.proto_udp ~marker:0x7F;
    hotset_g = register Hotset;
    hotset_r = Runners.hotset tech ~capacity:64;
    stream_g = register Stream;
    stream_r = Runners.md5 tech ~capacity:md5_capacity;
    evict_g = register Evict;
    evict_r = Runners.evict ~rng:evict_rng tech ~capacity_nodes:128 ();
    packets =
      Graft_kernel.Netpkt.random_sized_traffic packets_rng ~count:256
        ~protocol:Graft_kernel.Netpkt.proto_udp ~port:(graft_port i);
    chunks = Array.init 8 (fun _ -> Graft_util.Prng.bytes chunks_rng stream_chunk);
    btree = Graft_workload.Tpcb.create ~l3_pages:64 ~children_per_l3:32 ();
    refresh_rng;
    t_arrival = arrival_rng;
    t_svc = svc_rng;
    t_clock = Graft_kernel.Simclock.create ();
    recorder = Window.recorder ~subbits:cfg.subbits ~width_s:cfg.window_s ();
    demand = 0;
    good = 0;
    errors = 0;
    evict_ops = 0;
  }

(* One tenant's arrival stream and op specs, in time order. [ev_seq]
   is tenant-local, so the (time, tenant, seq) sort key is a total
   order that no partition can disturb. *)
let tenant_events cfg t =
  let rng = t.t_arrival in
  let times =
    Graft_workload.Arrival.poisson_times rng ~rate:t.t_rate
      ~until:cfg.duration_s
  in
  let seq = ref 0 in
  List.map
    (fun time ->
      let spec =
        match class_of_draw (Graft_util.Prng.int rng 100) with
        | Demux -> Op_demux (Graft_util.Prng.int rng 256)
        | Hotset ->
            Op_hotset
              (Graft_util.Prng.int rng 64, Graft_util.Prng.int rng 32)
        | Stream -> Op_stream (Graft_util.Prng.int rng 8)
        | Evict ->
            Op_evict
              (Graft_util.Prng.int rng t.btree.Graft_workload.Tpcb.npages)
      in
      incr seq;
      { ev_t = time; ev_seq = !seq; ev_tenant = t.t_idx; ev_spec = spec })
    times

let sort_events arr =
  Array.sort
    (fun a b ->
      match compare a.ev_t b.ev_t with
      | 0 -> (
          match compare a.ev_tenant b.ev_tenant with
          | 0 -> compare a.ev_seq b.ev_seq
          | c -> c)
      | c -> c)
    arr;
  arr

(* ------------------------------------------------------------------ *)
(* The fault plan, as partition-independent arm specs.                 *)
(*                                                                     *)
(* Arms are derived once from (seed, config) — the site list and the   *)
(* forced-strike triggers need only graft names and Zipf rates, both   *)
(* pure functions of the config — and each shard instantiates the      *)
(* subset whose sites it owns. Triggers are per-site tick counts, so   *)
(* the restriction fires identically to the global plan.               *)
(* ------------------------------------------------------------------ *)

let fault_arm_specs cfg =
  (* Seeded arms over the busiest third of the fleet (so triggers
     actually fire), plus two deterministic strikes against tenant 0's
     demux graft — the second exhausts [max_strikes], so every run
     demonstrates the quarantine-then-fallback recovery. *)
  let busy = max 1 (cfg.tenants / 3) in
  let sites =
    List.concat_map
      (fun i -> List.map (graft_name i) [ Demux; Hotset; Stream; Evict ])
      (List.init busy (fun i -> i))
  in
  let seeded =
    Graft_faultinject.Faultinject.of_seed ~narms:cfg.narms ~max_trigger:30
      ~classes:Graft_faultinject.Faultinject.runtime_classes ~sites
      (Int64.of_int (cfg.seed + 0x5109))
  in
  let strikes_site = graft_name 0 Demux in
  (* Triggers scale with the expected tick count (rate x duration x
     demux share) so the second strike lands — and leaves room for
     the 32-invocation backoff plus a post-quarantine fallback —
     at every config size. Deterministic: the rate is. *)
  let expect =
    let weights = tenant_weights cfg.tenants in
    cfg.base_rate *. weights.(0) *. cfg.duration_s *. 0.45 |> int_of_float
  in
  let t1 = max 5 (expect / 8) in
  let t2 = max (t1 + 5) (expect / 4) in
  Graft_faultinject.Faultinject.arms seeded
  @ [
      (strikes_site, Graft_faultinject.Faultinject.Div_zero, t1);
      (strikes_site, Graft_faultinject.Faultinject.Io_error, t2);
    ]

(* ------------------------------------------------------------------ *)
(* Results.                                                            *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  s_t : float;  (** simulated time *)
  s_ops : int;
  s_errors : int;
  s_p99_us : int;  (** run-so-far global p99 *)
  s_quarantined : int;
  s_disabled : int;
  s_trace_dropped : int;
}

type tenant_stat = {
  ts_name : string;
  ts_tech : string;
  ts_demand : int;
  ts_good : int;
  ts_errors : int;
  ts_p50_us : int;
  ts_p95_us : int;
  ts_p99_us : int;
  ts_p999_us : int;
}

type window_stat = {
  ws_start_s : float;
  ws_stop_s : float;
  ws_total : int;
  ws_errors : int;
  ws_p99_us : int;
  ws_burn : float;
  ws_alert : string;  (** "page", "ticket", or "" (multi-window rule) *)
}

(** What a Graftlens run carries beyond the SLO report: the retained
    rings (one per domain, for the flight recorder's Chrome trace) and
    a strike-ledger snapshot taken at run end. *)
type lens_out = {
  lo_threshold_us : int;
  lo_retained : int;  (** ops whose full span set was kept *)
  lo_spilled : int;  (** events lost to pending-buffer overflow *)
  lo_shards : (int * Graft_trace.Trace.event array * int) list;
      (** (domain id, ring events, dropped count), domain order *)
  lo_strikes : (string * string * int * int * int) list;
      (** (graft, state, strikes, faults, fallbacks), sorted by name *)
}

type result = {
  r_config : config;
  r_ops : int;
  r_good : int;
  r_errors : int;
  r_throughput : float;  (** completed ops per simulated second *)
  r_p50_us : int;
  r_p95_us : int;
  r_p99_us : int;
  r_p999_us : int;
  r_jain : float;
  r_max_min : float;
  r_bad_frac : float;
  r_burn : float;
  r_budget_left : float;
  r_alerts_page : int;
  r_alerts_ticket : int;
  r_mttr : Mttr.summary;
  r_faults : int;
  r_quarantined : int;
  r_fired : (string * string * int) list;  (** fired arms: site, class, tick *)
  r_tenants : tenant_stat list;
  r_windows : window_stat list;
  r_snapshots : snapshot list;
  r_lens : lens_out option;  (** [Some] iff the config enabled the lens *)
  r_wall_s : float;  (** real cost; excluded from JSON and gating *)
  r_par_wall_s : float;
      (** wall-clock of the sharded section alone (spawn to join) —
          what the throughput harness measures; excluded from JSON *)
}

let objective cfg =
  Slo.objective ~name:"serve" ~latency_us:cfg.latency_slo_us
    ~target:cfg.slo_target

(* ------------------------------------------------------------------ *)
(* The per-shard run.                                                  *)
(* ------------------------------------------------------------------ *)

let count_states tenants =
  let q = ref 0 and d = ref 0 in
  Array.iter
    (fun t ->
      List.iter
        (fun g ->
          match g.Manager.state with
          | Manager.Quarantined _ -> incr q
          | Manager.Disabled _ -> incr d
          | _ -> ())
        [ t.demux_g; t.hotset_g; t.stream_g; t.evict_g ])
    tenants;
  (!q, !d)

let class_name_of_spec = function
  | Op_demux _ -> "serve:demux"
  | Op_hotset _ -> "serve:hotset"
  | Op_stream _ -> "serve:stream"
  | Op_evict _ -> "serve:evict"

(* Retention-marker names ({!Lens.markers} recovers retained ops by
   this prefix). Preallocated: the tracer stores the pointer. *)
let op_marker_of_spec = function
  | Op_demux _ -> "op:demux"
  | Op_hotset _ -> "op:hotset"
  | Op_stream _ -> "op:stream"
  | Op_evict _ -> "op:evict"

(* A shard's contribution to one snapshot: plain sums plus a frozen
   copy of the run-so-far latency histogram (merged bucketwise on
   assembly, so the merged p99 equals the single-domain value). *)
type snap_part = {
  sp_t : float;
  sp_ops : int;
  sp_errors : int;
  sp_quar : int;
  sp_dis : int;
  sp_dropped : int;
  sp_histo : Graft_trace.Histo.t;
}

type shard_out = {
  so_tenants : tenant array;
  so_ops : int;
  so_good : int;
  so_errors : int;
  so_recorder : Window.recorder;  (** shard-global windows *)
  so_snaps : snap_part list;  (** oldest first; same times in every shard *)
  so_trackers : (string * Mttr.t) list;  (** per-graft MTTR, by name *)
  so_fired :
    (string * Graft_faultinject.Faultinject.fault_class * int) list;
  so_events : Graft_trace.Trace.event array;
      (** the shard's ring at run end (Graftlens only, else [||]) —
          captured before the worker domain is joined *)
  so_trace_dropped : int;
  so_retained : int;
  so_spilled : int;
}

(* Run shard [k]'s slice of the workload. Called on a worker domain
   when [cfg.domains > 1] (its metrics registry and trace ring are
   domain-local), or inline on the calling domain when [domains = 1] —
   which reproduces the pre-Graftswarm single-domain behaviour
   exactly. *)
let run_shard cfg ~specs ~storms k =
  (* Graftlens runs need a deeper ring (retained ops commit whole span
     sets) and the logical clock, so ring contents — and the flight
     bundle rendered from them — are a pure function of (seed,
     config). The lens-off ring is untouched: byte-identity. *)
  if cfg.lens then Graft_trace.Trace.enable ~capacity:8192 ~logical:true ()
  else Graft_trace.Trace.enable ~capacity:4096 ();
  let mgr = Manager.create () in
  let tenants =
    Array.of_list
      (List.filter_map
         (fun i ->
           if i mod cfg.domains = k then Some (make_tenant mgr cfg i) else None)
         (List.init cfg.tenants (fun i -> i)))
  in
  let events =
    sort_events
      (Array.of_list
         (List.concat_map (tenant_events cfg) (Array.to_list tenants)))
  in
  let my_sites = Hashtbl.create 32 in
  Array.iter
    (fun t ->
      List.iter
        (fun g -> Hashtbl.replace my_sites g.Manager.g_name ())
        [ t.demux_g; t.hotset_g; t.stream_g; t.evict_g ])
    tenants;
  let plan =
    Graft_faultinject.Faultinject.make
      (List.filter (fun (site, _, _) -> Hashtbl.mem my_sites site) specs)
  in
  let by_idx = Hashtbl.create 16 in
  Array.iter (fun t -> Hashtbl.replace by_idx t.t_idx t) tenants;
  let global = Window.recorder ~subbits:cfg.subbits ~width_s:cfg.window_s () in
  (* Run-so-far latencies, for snapshot percentiles: a plain histogram
     is cheaper to copy at snapshot time than re-merging windows. *)
  let all_lat = Graft_trace.Histo.create ~subbits:cfg.subbits () in
  let trackers : (string, Mttr.t) Hashtbl.t = Hashtbl.create 64 in
  let tracker g =
    match Hashtbl.find_opt trackers g.Manager.g_name with
    | Some m -> m
    | None ->
        let m = Mttr.create () in
        Hashtbl.add trackers g.Manager.g_name m;
        m
  in
  let dlabel =
    if cfg.domains = 1 then [] else [ ("domain", string_of_int k) ]
  in
  let snaps = ref [] in
  let ops = ref 0 and good = ref 0 and errors = ref 0 in
  let take_snapshot t_now =
    Manager.publish_state_gauges mgr;
    Graft_metrics.publish_trace_gauges ~labels:dlabel ();
    let q, d = count_states tenants in
    snaps :=
      {
        sp_t = t_now;
        sp_ops = !ops;
        sp_errors = !errors;
        sp_quar = q;
        sp_dis = d;
        sp_dropped = Graft_trace.Trace.dropped ();
        sp_histo = Graft_trace.Histo.copy all_lat;
      }
      :: !snaps
  in
  let next_snapshot = ref cfg.snapshot_every_s in
  Array.iter
    (fun ev ->
      while ev.ev_t >= !next_snapshot do
        take_snapshot !next_snapshot;
        next_snapshot := !next_snapshot +. cfg.snapshot_every_s
      done;
      let t = Hashtbl.find by_idx ev.ev_tenant in
      (* Causal scope: everything the op touches from here to op_end —
         Manager invocation, VM session, map helpers, kernel fallback,
         strike transitions — records under its trace id. *)
      if cfg.lens then
        Graft_trace.Trace.op_begin
          (Lens.tid_of ~tenant:ev.ev_tenant ~seq:ev.ev_seq);
      let in_storm = Graft_workload.Arrival.in_intervals ev.ev_t storms in
      let g, thunk, svc =
        match ev.ev_spec with
        | Op_demux k ->
            let pkt = t.packets.(k) in
            let batch = if in_storm then storm_batch else 1 in
            let per = base_us Demux ~size:(Graft_kernel.Netpkt.length pkt) in
            ( t.demux_g,
              (fun () ->
                for _ = 2 to batch do
                  ignore (t.demux_r.Runners.demux pkt)
                done;
                t.demux_r.Runners.demux pkt),
              float_of_int batch *. per )
        | Op_hotset (l3, child) ->
            let path =
              Graft_workload.Tpcb.lookup_path t.btree ~l3_index:l3
                ~child_index:child
            in
            ( t.hotset_g,
              (fun () ->
                Array.fold_left
                  (fun _ page -> t.hotset_r.Runners.touch page)
                  0 path),
              base_us Hotset ~size:0 )
        | Op_stream k ->
            let chunk = t.chunks.(k) in
            ( t.stream_g,
              (fun () ->
                t.stream_r.Runners.load chunk;
                t.stream_r.Runners.compute (Bytes.length chunk);
                0),
              base_us Stream ~size:stream_chunk )
        | Op_evict page ->
            t.evict_ops <- t.evict_ops + 1;
            if t.evict_ops mod evict_refresh_every = 1 then begin
              let hot =
                Array.init hot_pages_per_refresh (fun _ ->
                    Graft_util.Prng.int t.refresh_rng
                      t.btree.Graft_workload.Tpcb.npages)
              in
              t.evict_r.Runners.refresh ~hot ~lru:[||]
            end;
            ( t.evict_g,
              (fun () -> if t.evict_r.Runners.contains page then 1 else 0),
              base_us Evict ~size:0 )
      in
      Graft_kernel.Simclock.advance_to t.t_clock ev.ev_t;
      let tf_before = g.Manager.total_faults in
      let result =
        Manager.invoke g (fun () ->
            Graft_faultinject.Faultinject.check plan g.Manager.g_name;
            thunk ())
      in
      let faulted = g.Manager.total_faults > tf_before in
      let quarantined =
        match g.Manager.state with Manager.Quarantined _ -> true | _ -> false
      in
      let outcome =
        if faulted then Mttr.Faulted
        else
          match result with Some _ -> Mttr.Graft_ok | None -> Mttr.Fallback_ok
      in
      Mttr.observe (tracker g) ~now:ev.ev_t ~quarantined outcome;
      let jitter = Graft_workload.Arrival.lognormal t.t_svc ~sigma:0.3 in
      let svc_us =
        (match outcome with
        | Mttr.Graft_ok -> svc *. tech_mult t.t_tech
        | Mttr.Fallback_ok -> fallback_us
        | Mttr.Faulted -> (svc *. tech_mult t.t_tech /. 2.0) +. fault_penalty_us)
        *. jitter
      in
      Graft_kernel.Simclock.charge t.t_clock (class_name_of_spec ev.ev_spec)
        (svc_us *. 1e-6);
      let latency_us =
        int_of_float
          (Float.round ((Graft_kernel.Simclock.now t.t_clock -. ev.ev_t) *. 1e6))
      in
      incr ops;
      t.demand <- t.demand + 1;
      if outcome = Mttr.Faulted then begin
        incr errors;
        t.errors <- t.errors + 1;
        Window.record_error t.recorder ~t:ev.ev_t;
        Window.record_error global ~t:ev.ev_t
      end
      else begin
        incr good;
        t.good <- t.good + 1;
        Graft_trace.Histo.add all_lat latency_us;
        Window.record t.recorder ~t:ev.ev_t ~latency_us;
        Window.record global ~t:ev.ev_t ~latency_us
      end;
      (* Tail-based retention: faulted or over-threshold ops keep
         every span they touched (and stamp a retention marker); the
         rest fall back to 1-in-N sampling. *)
      if cfg.lens then
        Graft_trace.Trace.op_end ~arg:latency_us
          ~retain:(outcome = Mttr.Faulted || latency_us > lens_threshold cfg)
          (op_marker_of_spec ev.ev_spec))
    events;
  (* Drain the snapshot schedule: every shard snapshots at the same
     times — multiples of the period below [duration_s], plus the
     final one — whether or not it had late events, so partials zip
     index-for-index at assembly. *)
  while !next_snapshot < cfg.duration_s do
    take_snapshot !next_snapshot;
    next_snapshot := !next_snapshot +. cfg.snapshot_every_s
  done;
  take_snapshot cfg.duration_s;
  {
    so_tenants = tenants;
    so_ops = !ops;
    so_good = !good;
    so_errors = !errors;
    so_recorder = global;
    so_snaps = List.rev !snaps;
    so_trackers = Hashtbl.fold (fun n m acc -> (n, m) :: acc) trackers [];
    so_fired = Graft_faultinject.Faultinject.fired plan;
    (* The ring is domain-local: snapshot it now, before this worker
       domain is joined and its DLS becomes unreachable. *)
    so_events = (if cfg.lens then Graft_trace.Trace.events () else [||]);
    so_trace_dropped = Graft_trace.Trace.dropped ();
    so_retained = Graft_trace.Trace.retained_ops ();
    so_spilled = Graft_trace.Trace.op_spilled ();
  }

(* ------------------------------------------------------------------ *)
(* The run: fan out, join, merge.                                      *)
(* ------------------------------------------------------------------ *)

(* Group every shard's aligned windows by start time and merge each
   group bucketwise. Recorder windows are aligned to multiples of the
   width, so same-start groups cover the same span; a shard with no
   traffic in a slot simply contributes nothing to that group. *)
let merge_windows shards =
  let tbl : (float, Window.t list) Hashtbl.t = Hashtbl.create 32 in
  Array.iter
    (fun so ->
      List.iter
        (fun w ->
          let key = w.Window.start_s in
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
          Hashtbl.replace tbl key (w :: prev))
        (Window.windows so.so_recorder))
    shards;
  Hashtbl.fold (fun _ ws acc -> Window.merge_all ws :: acc) tbl []
  |> List.sort (fun a b -> compare a.Window.start_s b.Window.start_s)

(* Zip the shards' snapshot partials index-by-index (every shard
   snapshots at the same times): sums for counts, bucketwise histogram
   merge for the run-so-far percentile. *)
let merge_snapshots cfg shards =
  let parts = Array.map (fun so -> Array.of_list so.so_snaps) shards in
  let n = Array.length parts.(0) in
  Array.iter
    (fun p -> assert (Array.length p = n))
    parts;
  List.init n (fun j ->
      let at = Array.map (fun p -> p.(j)) parts in
      let histo = Graft_trace.Histo.create ~subbits:cfg.subbits () in
      Array.iter
        (fun sp -> Graft_trace.Histo.merge_into ~dst:histo sp.sp_histo)
        at;
      let sum f = Array.fold_left (fun acc sp -> acc + f sp) 0 at in
      {
        s_t = at.(0).sp_t;
        s_ops = sum (fun sp -> sp.sp_ops);
        s_errors = sum (fun sp -> sp.sp_errors);
        s_p99_us = Graft_trace.Histo.percentile histo 0.99;
        s_quarantined = sum (fun sp -> sp.sp_quar);
        s_disabled = sum (fun sp -> sp.sp_dis);
        s_trace_dropped = sum (fun sp -> sp.sp_dropped);
      })

let run cfg =
  if cfg.tenants < 1 then invalid_arg "Serve.run: tenants < 1";
  if cfg.domains < 1 then invalid_arg "Serve.run: domains < 1";
  if cfg.domains > cfg.tenants then
    invalid_arg "Serve.run: more domains than tenants";
  let wall0 = Unix.gettimeofday () in
  Graft_metrics.enable ();
  (* Joined worker domains from a previous run must not leak counts
     into this run's exports. *)
  Graft_metrics.reset_shards ();
  let specs = fault_arm_specs cfg in
  (* Packet storms: global on/off intervals; demux ops inside a storm
     deliver a batch, overloading the server and building real queues.
     Derived from its own sub-seed so every shard computes the same
     intervals without sharing a generator. *)
  let storms =
    Graft_workload.Arrival.bursts
      (Graft_util.Prng.create (storm_seed cfg))
      ~until:cfg.duration_s ~on_mean:0.6 ~off_mean:9.0
  in
  let par0 = Unix.gettimeofday () in
  let shards =
    if cfg.domains = 1 then [| run_shard cfg ~specs ~storms 0 |]
    else
      Array.init cfg.domains (fun k ->
          Domain.spawn (fun () -> run_shard cfg ~specs ~storms k))
      |> Array.map Domain.join
  in
  let par_wall = Unix.gettimeofday () -. par0 in
  (* Assemble the merged report. *)
  let tenants =
    let all =
      Array.concat (Array.to_list (Array.map (fun so -> so.so_tenants) shards))
    in
    Array.sort (fun a b -> compare a.t_idx b.t_idx) all;
    all
  in
  let ops = Array.fold_left (fun acc so -> acc + so.so_ops) 0 shards in
  let good = Array.fold_left (fun acc so -> acc + so.so_good) 0 shards in
  let errors = Array.fold_left (fun acc so -> acc + so.so_errors) 0 shards in
  let merged_windows = merge_windows shards in
  let overall =
    match merged_windows with
    | [] -> Window.make ~subbits:cfg.subbits ~start_s:0.0 ~stop_s:0.0 ()
    | ws -> Window.merge_all ws
  in
  let o = objective cfg in
  let a = Slo.assess o overall in
  let alerts = Slo.burn_alerts o merged_windows in
  let pages =
    List.length (List.filter (fun al -> al.Slo.al_severity = Slo.Page) alerts)
  in
  let tickets = List.length alerts - pages in
  let demand = Array.map (fun t -> t.demand) tenants in
  let goodput = Array.map (fun t -> t.good) tenants in
  let shares = Fairness.shares ~demand ~goodput in
  let q, _ = count_states tenants in
  let faults =
    Array.fold_left
      (fun acc t ->
        List.fold_left
          (fun acc g -> acc + g.Manager.total_faults)
          acc
          [ t.demux_g; t.hotset_g; t.stream_g; t.evict_g ])
      0 tenants
  in
  let tenant_stats =
    Array.to_list
      (Array.map
         (fun t ->
           let w = Window.overall t.recorder in
           {
             ts_name = t.t_name;
             ts_tech = Technology.name t.t_tech;
             ts_demand = t.demand;
             ts_good = t.good;
             ts_errors = t.errors;
             ts_p50_us = Window.percentile w 0.50;
             ts_p95_us = Window.percentile w 0.95;
             ts_p99_us = Window.percentile w 0.99;
             ts_p999_us = Window.percentile w 0.999;
           })
         tenants)
  in
  let window_stats =
    List.map
      (fun w ->
        let alert =
          List.find_opt (fun al -> al.Slo.al_window == w) alerts
          |> Option.map (fun al -> Slo.severity_name al.Slo.al_severity)
          |> Option.value ~default:""
        in
        {
          ws_start_s = w.Window.start_s;
          ws_stop_s = w.Window.stop_s;
          ws_total = Window.total w;
          ws_errors = w.Window.errors;
          ws_p99_us = Window.percentile w 0.99;
          ws_burn = (Slo.assess o w).Slo.a_burn;
          ws_alert = alert;
        })
      merged_windows
  in
  (* MTTR trackers and fired arms are combined in a canonical order
     (graft name; site/tick) so float folds and report lists cannot
     depend on shard count or hash-table iteration. *)
  let trackers =
    Array.to_list shards
    |> List.concat_map (fun so -> so.so_trackers)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let fired =
    Array.to_list shards
    |> List.concat_map (fun so -> so.so_fired)
    |> List.map (fun (site, cls, tick) ->
           (site, Graft_faultinject.Faultinject.class_name cls, tick))
    |> List.sort compare
  in
  let lens_out =
    if not cfg.lens then None
    else begin
      let lo_shards =
        Array.to_list (Array.mapi (fun k so -> (k, so.so_events, so.so_trace_dropped)) shards)
      in
      let strikes =
        Array.to_list tenants
        |> List.concat_map (fun t ->
               List.map
                 (fun g ->
                   ( g.Manager.g_name,
                     Manager.state_name g.Manager.state,
                     g.Manager.strikes,
                     g.Manager.total_faults,
                     g.Manager.fallbacks ))
                 [ t.demux_g; t.hotset_g; t.stream_g; t.evict_g ])
        |> List.sort (fun (a, _, _, _, _) (b, _, _, _, _) ->
               String.compare a b)
      in
      (* Exemplar feed: publish the overall latency histogram as an
         OpenMetrics series and link each hot bucket to the trace id
         of its worst retained op. Markers are elected from the rings
         as they stand now, so every emitted id resolves to retained
         spans still present at export time. *)
      let marks =
        List.concat_map (fun (_, evs, _) -> Lens.markers evs) lo_shards
      in
      let h =
        Graft_metrics.histogram "graftkit_serve_latency_us"
          ~subbits:cfg.subbits []
          ~help:"Serve op latency with Graftlens trace-id exemplars"
      in
      Graft_trace.Histo.reset h;
      Graft_trace.Histo.merge_into ~dst:h overall.Window.histo;
      Graft_metrics.set_exemplars "graftkit_serve_latency_us" []
        (List.map
           (fun (le, (m : Lens.op_mark)) ->
             Graft_metrics.
               {
                 ex_le = le;
                 ex_trace = Lens.tid_string m.Lens.om_tid;
                 ex_value = m.Lens.om_latency_us;
               })
           (Lens.exemplars ~subbits:cfg.subbits marks));
      Some
        {
          lo_threshold_us = lens_threshold cfg;
          lo_retained =
            Array.fold_left (fun acc so -> acc + so.so_retained) 0 shards;
          lo_spilled =
            Array.fold_left (fun acc so -> acc + so.so_spilled) 0 shards;
          lo_shards;
          lo_strikes = strikes;
        }
    end
  in
  {
    r_config = cfg;
    r_ops = ops;
    r_good = good;
    r_errors = errors;
    r_throughput = float_of_int good /. cfg.duration_s;
    r_p50_us = Window.percentile overall 0.50;
    r_p95_us = Window.percentile overall 0.95;
    r_p99_us = Window.percentile overall 0.99;
    r_p999_us = Window.percentile overall 0.999;
    r_jain = Fairness.jain shares;
    r_max_min = Fairness.max_min shares;
    r_bad_frac = a.Slo.a_bad_frac;
    r_burn = a.Slo.a_burn;
    r_budget_left = a.Slo.a_budget_left;
    r_alerts_page = pages;
    r_alerts_ticket = tickets;
    r_mttr = Mttr.summarize_all (List.map snd trackers);
    r_faults = faults;
    r_quarantined = q;
    r_fired = fired;
    r_tenants = tenant_stats;
    r_windows = window_stats;
    r_snapshots = merge_snapshots cfg shards;
    r_lens = lens_out;
    r_wall_s = Unix.gettimeofday () -. wall0;
    r_par_wall_s = par_wall;
  }

(* ------------------------------------------------------------------ *)
(* JSON and text reports.                                              *)
(* ------------------------------------------------------------------ *)

let schema_version = 2

let snapshot_json s =
  Printf.sprintf
    "{\"t_s\":%.2f,\"ops\":%d,\"errors\":%d,\"p99_us\":%d,\"quarantined\":%d,\
     \"disabled\":%d,\"trace_dropped\":%d}"
    s.s_t s.s_ops s.s_errors s.s_p99_us s.s_quarantined s.s_disabled
    s.s_trace_dropped

let tenant_json ts =
  Printf.sprintf
    "{\"tenant\":%S,\"tech\":%S,\"demand\":%d,\"good\":%d,\"errors\":%d,\
     \"p50_us\":%d,\"p95_us\":%d,\"p99_us\":%d,\"p999_us\":%d}"
    ts.ts_name ts.ts_tech ts.ts_demand ts.ts_good ts.ts_errors ts.ts_p50_us
    ts.ts_p95_us ts.ts_p99_us ts.ts_p999_us

let window_json ws =
  Printf.sprintf
    "{\"start_s\":%.2f,\"stop_s\":%.2f,\"total\":%d,\"errors\":%d,\
     \"p99_us\":%d,\"burn\":%.4f,\"alert\":%S}"
    ws.ws_start_s ws.ws_stop_s ws.ws_total ws.ws_errors ws.ws_p99_us ws.ws_burn
    ws.ws_alert

let fired_json (site, cls, tick) =
  Printf.sprintf "{\"site\":%S,\"class\":%S,\"tick\":%d}" site cls tick

(* Wall-clock cost is deliberately absent: everything in this document
   is a pure function of (seed, config), so two runs of the same build
   must produce byte-identical JSON — and, except for the "domains"
   field and per-domain trace-ring drop counts, runs at different
   domain counts must too. *)
let to_json r =
  let cfg = r.r_config in
  (* Only partition-invariant lens facts go in the report (retained-op
     counts are; pending-buffer spill depends on ring locality, so it
     stays out). Lens off appends nothing: byte-identity with the
     pre-Graftlens document. *)
  let lens_json =
    match r.r_lens with
    | None -> ""
    | Some lo ->
        Printf.sprintf ",\"lens\":{\"threshold_us\":%d,\"retained_ops\":%d}"
          lo.lo_threshold_us lo.lo_retained
  in
  Graft_report.Envelope.wrap ~schema_version
    (Printf.sprintf
       "\"suite\":\"serve\",\"seed\":%d,\"tenants\":%d,\"domains\":%d,\
        \"grafts\":%d,\
        \"duration_s\":%.2f,\"base_rate\":%.2f,\"window_s\":%.2f,\
        \"subbits\":%d,\"slo_latency_us\":%d,\"slo_target\":%.4f,\
        \"ops\":%d,\"good\":%d,\"errors\":%d,\"throughput_ops_per_s\":%.2f,\
        \"p50_us\":%d,\"p95_us\":%d,\"p99_us\":%d,\"p999_us\":%d,\
        \"jain\":%.4f,\"max_min\":%.4f,\"bad_frac\":%.6f,\"burn\":%.4f,\
        \"budget_left\":%.4f,\"alerts_page\":%d,\"alerts_ticket\":%d,\
        \"mttr_incidents\":%d,\"mttr_open\":%d,\"mttr_mean_s\":%.4f,\
        \"mttr_max_s\":%.4f,\"faults\":%d,\"quarantined\":%d,\
        \"fired\":[%s],\"windows\":[%s],\"tenants\":[%s],\"snapshots\":[%s]"
       cfg.seed cfg.tenants cfg.domains (4 * cfg.tenants) cfg.duration_s
       cfg.base_rate cfg.window_s cfg.subbits cfg.latency_slo_us cfg.slo_target
       r.r_ops r.r_good r.r_errors r.r_throughput r.r_p50_us r.r_p95_us
       r.r_p99_us r.r_p999_us r.r_jain r.r_max_min r.r_bad_frac r.r_burn
       r.r_budget_left r.r_alerts_page r.r_alerts_ticket
       r.r_mttr.Mttr.m_incidents r.r_mttr.Mttr.m_open r.r_mttr.Mttr.m_mean_s
       r.r_mttr.Mttr.m_max_s r.r_faults r.r_quarantined
       (String.concat "," (List.map fired_json r.r_fired))
       (String.concat "," (List.map window_json r.r_windows))
       (String.concat "," (List.map tenant_json r.r_tenants))
       (String.concat "," (List.map snapshot_json r.r_snapshots))
    ^ lens_json)

(** The periodic snapshot series as its own enveloped document, for
    [--snapshots FILE]. *)
let snapshots_json r =
  Graft_report.Envelope.wrap ~schema_version
    (Printf.sprintf "\"suite\":\"serve-snapshots\",\"seed\":%d,\"snapshots\":[%s]"
       r.r_config.seed
       (String.concat "," (List.map snapshot_json r.r_snapshots)))

let render r =
  let buf = Buffer.create 4096 in
  let cfg = r.r_config in
  Buffer.add_string buf
    (Printf.sprintf
       "graftwatch serve: %d tenants, %d grafts, %.0fs simulated, %d domain%s \
        (seed %d, wall %.2fs)\n\n"
       cfg.tenants (4 * cfg.tenants) cfg.duration_s cfg.domains
       (if cfg.domains = 1 then "" else "s")
       cfg.seed r.r_wall_s);
  Buffer.add_string buf
    (Printf.sprintf
       "  ops %d  good %d  errors %d  throughput %.1f ops/s\n\
       \  latency µs: p50 %d  p95 %d  p99 %d  p999 %d\n\
       \  fairness: jain %.4f  max/min %.4f\n\
       \  SLO (%dµs @ %.3f): bad %.4f%%  burn %.2f  budget left %.2f  \
        alerts: %d page, %d ticket\n\
       \  faults %d  quarantined %d  MTTR: %d incidents (%d open)  mean \
        %.3fs  max %.3fs\n\n"
       r.r_ops r.r_good r.r_errors r.r_throughput r.r_p50_us r.r_p95_us
       r.r_p99_us r.r_p999_us r.r_jain r.r_max_min cfg.latency_slo_us
       cfg.slo_target (100.0 *. r.r_bad_frac) r.r_burn r.r_budget_left
       r.r_alerts_page r.r_alerts_ticket r.r_faults r.r_quarantined
       r.r_mttr.Mttr.m_incidents r.r_mttr.Mttr.m_open r.r_mttr.Mttr.m_mean_s
       r.r_mttr.Mttr.m_max_s);
  (match r.r_lens with
  | None -> ()
  | Some lo ->
      Buffer.add_string buf
        (Printf.sprintf
           "  graftlens: %d retained op%s (tail threshold %dµs)%s\n\n"
           lo.lo_retained
           (if lo.lo_retained = 1 then "" else "s")
           lo.lo_threshold_us
           (if lo.lo_spilled = 0 then ""
            else Printf.sprintf ", %d spilled" lo.lo_spilled)));
  let wt =
    Graft_util.Tablefmt.create
      ~aligns:
        Graft_util.Tablefmt.[| Right; Right; Right; Right; Right; Right |]
      [| "window"; "total"; "errors"; "p99 µs"; "burn"; "" |]
  in
  List.iter
    (fun ws ->
      Graft_util.Tablefmt.add_row wt
        [|
          Printf.sprintf "%.0f-%.0fs" ws.ws_start_s ws.ws_stop_s;
          string_of_int ws.ws_total;
          string_of_int ws.ws_errors;
          string_of_int ws.ws_p99_us;
          Printf.sprintf "%.2f" ws.ws_burn;
          (match ws.ws_alert with "page" -> "PAGE" | s -> s);
        |])
    r.r_windows;
  Buffer.add_string buf (Graft_util.Tablefmt.render wt);
  Buffer.add_char buf '\n';
  let tt =
    Graft_util.Tablefmt.create
      ~aligns:
        Graft_util.Tablefmt.
          [| Left; Left; Right; Right; Right; Right; Right; Right; Right |]
      [|
        "tenant"; "tech"; "demand"; "good"; "err"; "p50"; "p95"; "p99";
        "p999";
      |]
  in
  let shown = min 12 (List.length r.r_tenants) in
  List.iteri
    (fun i ts ->
      if i < shown then
        Graft_util.Tablefmt.add_row tt
          [|
            ts.ts_name; ts.ts_tech; string_of_int ts.ts_demand;
            string_of_int ts.ts_good; string_of_int ts.ts_errors;
            string_of_int ts.ts_p50_us; string_of_int ts.ts_p95_us;
            string_of_int ts.ts_p99_us; string_of_int ts.ts_p999_us;
          |])
    r.r_tenants;
  Buffer.add_string buf (Graft_util.Tablefmt.render tt);
  if List.length r.r_tenants > shown then
    Buffer.add_string buf
      (Printf.sprintf "  ... %d more tenants (see --json)\n"
         (List.length r.r_tenants - shown));
  if r.r_fired <> [] then begin
    Buffer.add_string buf "\n  fired fault arms:\n";
    List.iter
      (fun (site, cls, tick) ->
        Buffer.add_string buf
          (Printf.sprintf "    %-16s %-14s tick %d\n" site cls tick))
      r.r_fired
  end;
  Buffer.contents buf
