(** The traced run of the serve workloads: {!Graft_slo.Serve.run}'s
    shard loop replayed through the public functions it calls —
    [make_tenant], [tenant_events]/[sort_events], [fault_arm_specs],
    {!Graft_faultinject.Faultinject.make}/[check], {!Graft_core.Manager.invoke}
    around the runner closure, {!Graft_slo.Window.record} and
    {!Graft_kernel.Simclock.charge} — with a monotonic-clock span and GC
    counters around each call. With [domains = 2] each shard runs on its
    own domain over serve's partition (tenant [i] on shard [i mod 2]).

    The replay must reproduce Serve.run's ops, good, errors, faults and
    fired arms exactly ({!mismatches}); otherwise its per-layer figures
    would describe a different program. Graftlens is off, as in
    [Serve.default]. *)

open Graft_core
open Graft_slo
module Fi = Graft_faultinject.Faultinject
module Histo = Graft_trace.Histo
module Prng = Graft_util.Prng

let now = Clock.now
let nclasses = 4

let class_index = function
  | Serve.Op_demux _ -> 0
  | Serve.Op_hotset _ -> 1
  | Serve.Op_stream _ -> 2
  | Serve.Op_evict _ -> 3

let rotation_index tech =
  let rot = Serve.tech_rotation in
  let rec go i = if rot.(i) = tech then i else go (i + 1) in
  go 0

(* Span sums and counters of one shard, all in ns / words / counts. *)
type acc = {
  mutable make_ns : int;
  mutable setup_words : float;
  mutable setup_major : int;
  mutable events_ns : int;
  mutable fault_ns : int;
  mutable invoke_ns : int;
  mutable graft_ns : int;
  mutable clock_ns : int;
  mutable slo_ns : int;
  mutable loop_words : float;
  mutable loop_minor : int;
  mutable loop_major : int;
  mutable map_lookups : int;
  mutable map_updates : int;
  mutable map_evictions : int;
  calls : int array array;  (** per class: graft-call ns of each entered op *)
  ncalls : int array;
  tech_ns : int array;  (** per rotation slot: graft-call ns, and count *)
  tech_n : int array;
  (* scratch for the span inside Manager.invoke *)
  mutable entered : bool;
  mutable call_t0 : int;
  mutable call_t1 : int;
}

let map_counter map op =
  Graft_metrics.counter_value
    (Graft_metrics.counter "graftkit_map_ops" [ ("map", map); ("op", op) ])

(** Graft-map operations of kind [op] ("lookup", "update" or "evict")
    counted so far in this domain's registry, over every map the
    benchmarked grafts create. *)
let map_ops op =
  List.fold_left (fun acc map -> acc + map_counter map op) 0 [ "conn"; "hotset"; "scratch" ]

let collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* The simulated service time charged per op. Serve's latency model
   (a per-tier constant table the roadmap plans to replace) feeds
   no checked output, and neither Simclock.charge nor Window.record
   costs more for a larger value, so the replay charges a nominal one. *)
let nominal_service_us = 100.0

(* One shard, as Serve.run_shard runs it with the lens off. *)
let run_shard (cfg : Serve.config) ~specs ~storms k =
  Graft_trace.Trace.enable ~capacity:4096 ();
  let mgr = Manager.create () in
  let _, major0 = collections () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let tenants =
    Array.of_list
      (List.filter_map
         (fun i ->
           if i mod cfg.domains = k then Some (Serve.make_tenant mgr cfg i)
           else None)
         (List.init cfg.tenants Fun.id))
  in
  let make_ns = now () - t0 in
  let setup_words = Gc.minor_words () -. w0 in
  let _, major1 = collections () in
  let t1 = now () in
  let events =
    Serve.sort_events
      (Array.of_list
         (List.concat_map (Serve.tenant_events cfg) (Array.to_list tenants)))
  in
  let events_ns = now () - t1 in
  let grafts t = Serve.[ t.demux_g; t.hotset_g; t.stream_g; t.evict_g ] in
  let my_sites = Hashtbl.create 32 in
  Array.iter
    (fun t ->
      List.iter (fun g -> Hashtbl.replace my_sites g.Manager.g_name ()) (grafts t))
    tenants;
  let plan =
    Fi.make (List.filter (fun (site, _, _) -> Hashtbl.mem my_sites site) specs)
  in
  let by_idx = Hashtbl.create 16 in
  Array.iter (fun t -> Hashtbl.replace by_idx t.Serve.t_idx t) tenants;
  let global = Window.recorder ~subbits:cfg.subbits ~width_s:cfg.window_s () in
  let all_lat = Histo.create ~subbits:cfg.subbits () in
  let trackers : (string, Mttr.t) Hashtbl.t = Hashtbl.create 64 in
  let tracker g =
    match Hashtbl.find_opt trackers g.Manager.g_name with
    | Some m -> m
    | None ->
        let m = Mttr.create () in
        Hashtbl.add trackers g.Manager.g_name m;
        m
  in
  let dlabel = if cfg.domains = 1 then [] else [ ("domain", string_of_int k) ] in
  let snaps = ref [] in
  let ops = ref 0 and good = ref 0 and errors = ref 0 in
  let take_snapshot t_now =
    Manager.publish_state_gauges mgr;
    Graft_metrics.publish_trace_gauges ~labels:dlabel ();
    let q, d = Serve.count_states tenants in
    snaps :=
      {
        Serve.sp_t = t_now;
        sp_ops = !ops;
        sp_errors = !errors;
        sp_quar = q;
        sp_dis = d;
        sp_dropped = Graft_trace.Trace.dropped ();
        sp_histo = Histo.copy all_lat;
      }
      :: !snaps
  in
  let per_class = Array.make nclasses 0 in
  Array.iter
    (fun ev ->
      let c = class_index ev.Serve.ev_spec in
      per_class.(c) <- per_class.(c) + 1)
    events;
  let a =
    {
      make_ns;
      setup_words;
      setup_major = major1 - major0;
      events_ns;
      fault_ns = 0;
      invoke_ns = 0;
      graft_ns = 0;
      clock_ns = 0;
      slo_ns = 0;
      loop_words = 0.0;
      loop_minor = 0;
      loop_major = 0;
      map_lookups = 0;
      map_updates = 0;
      map_evictions = 0;
      calls = Array.map (fun n -> Array.make n 0) per_class;
      ncalls = Array.make nclasses 0;
      tech_ns = Array.make (Array.length Serve.tech_rotation) 0;
      tech_n = Array.make (Array.length Serve.tech_rotation) 0;
      entered = false;
      call_t0 = 0;
      call_t1 = 0;
    }
  in
  let lookups0 = map_ops "lookup" and updates0 = map_ops "update"
  and evictions0 = map_ops "evict" in
  let minor2, major2 = collections () in
  let w2 = Gc.minor_words () in
  let next_snapshot = ref cfg.snapshot_every_s in
  Array.iter
    (fun ev ->
      while ev.Serve.ev_t >= !next_snapshot do
        take_snapshot !next_snapshot;
        next_snapshot := !next_snapshot +. cfg.snapshot_every_s
      done;
      let t = Hashtbl.find by_idx ev.Serve.ev_tenant in
      let in_storm = Graft_workload.Arrival.in_intervals ev.ev_t storms in
      let g, thunk =
        match ev.ev_spec with
        | Serve.Op_demux k ->
            let pkt = t.Serve.packets.(k) in
            let batch = if in_storm then Serve.storm_batch else 1 in
            ( t.demux_g,
              fun () ->
                for _ = 2 to batch do
                  ignore (t.demux_r.Runners.demux pkt)
                done;
                t.demux_r.Runners.demux pkt )
        | Serve.Op_hotset (l3, child) ->
            let path =
              Graft_workload.Tpcb.lookup_path t.btree ~l3_index:l3
                ~child_index:child
            in
            ( t.hotset_g,
              fun () ->
                Array.fold_left (fun _ page -> t.hotset_r.Runners.touch page) 0 path
            )
        | Serve.Op_stream k ->
            let chunk = t.chunks.(k) in
            ( t.stream_g,
              fun () ->
                t.stream_r.Runners.load chunk;
                t.stream_r.Runners.compute (Bytes.length chunk);
                0 )
        | Serve.Op_evict page ->
            t.evict_ops <- t.evict_ops + 1;
            if t.evict_ops mod Serve.evict_refresh_every = 1 then begin
              let hot =
                Array.init Serve.hot_pages_per_refresh (fun _ ->
                    Prng.int t.refresh_rng t.btree.Graft_workload.Tpcb.npages)
              in
              t.evict_r.Runners.refresh ~hot ~lru:[||]
            end;
            ( t.evict_g,
              fun () -> if t.evict_r.Runners.contains page then 1 else 0 )
      in
      let c0 = now () in
      Graft_kernel.Simclock.advance_to t.t_clock ev.ev_t;
      let c1 = now () in
      let tf_before = g.Manager.total_faults in
      a.entered <- false;
      let i0 = now () in
      let result =
        Manager.invoke g (fun () ->
            let f0 = now () in
            (try Fi.check plan g.Manager.g_name
             with e ->
               a.fault_ns <- a.fault_ns + (now () - f0);
               raise e);
            let x0 = now () in
            a.fault_ns <- a.fault_ns + (x0 - f0);
            a.entered <- true;
            a.call_t0 <- x0;
            match thunk () with
            | v ->
                a.call_t1 <- now ();
                v
            | exception e ->
                a.call_t1 <- now ();
                raise e)
      in
      a.invoke_ns <- a.invoke_ns + (now () - i0);
      if a.entered then begin
        let d = a.call_t1 - a.call_t0 in
        let c = class_index ev.ev_spec and r = rotation_index t.t_tech in
        a.graft_ns <- a.graft_ns + d;
        a.calls.(c).(a.ncalls.(c)) <- d;
        a.ncalls.(c) <- a.ncalls.(c) + 1;
        a.tech_ns.(r) <- a.tech_ns.(r) + d;
        a.tech_n.(r) <- a.tech_n.(r) + 1
      end;
      let faulted = g.Manager.total_faults > tf_before in
      let quarantined =
        match g.Manager.state with Manager.Quarantined _ -> true | _ -> false
      in
      let outcome =
        if faulted then Mttr.Faulted
        else match result with Some _ -> Mttr.Graft_ok | None -> Mttr.Fallback_ok
      in
      Mttr.observe (tracker g) ~now:ev.ev_t ~quarantined outcome;
      let svc_us =
        nominal_service_us *. Graft_workload.Arrival.lognormal t.t_svc ~sigma:0.3
      in
      let c2 = now () in
      Graft_kernel.Simclock.charge t.t_clock
        (Serve.class_name_of_spec ev.ev_spec)
        (svc_us *. 1e-6);
      let c3 = now () in
      a.clock_ns <- a.clock_ns + (c1 - c0) + (c3 - c2);
      let latency_us =
        int_of_float
          (Float.round ((Graft_kernel.Simclock.now t.t_clock -. ev.ev_t) *. 1e6))
      in
      incr ops;
      t.demand <- t.demand + 1;
      let s0 = now () in
      if outcome = Mttr.Faulted then begin
        incr errors;
        t.errors <- t.errors + 1;
        Window.record_error t.recorder ~t:ev.ev_t;
        Window.record_error global ~t:ev.ev_t
      end
      else begin
        incr good;
        t.good <- t.good + 1;
        Histo.add all_lat latency_us;
        Window.record t.recorder ~t:ev.ev_t ~latency_us;
        Window.record global ~t:ev.ev_t ~latency_us
      end;
      a.slo_ns <- a.slo_ns + (now () - s0))
    events;
  a.loop_words <- Gc.minor_words () -. w2;
  (let minor3, major3 = collections () in
   a.loop_minor <- minor3 - minor2;
   a.loop_major <- major3 - major2);
  a.map_lookups <- map_ops "lookup" - lookups0;
  a.map_updates <- map_ops "update" - updates0;
  a.map_evictions <- map_ops "evict" - evictions0;
  while !next_snapshot < cfg.duration_s do
    take_snapshot !next_snapshot;
    next_snapshot := !next_snapshot +. cfg.snapshot_every_s
  done;
  take_snapshot cfg.duration_s;
  let out =
    {
      Serve.so_tenants = tenants;
      so_ops = !ops;
      so_good = !good;
      so_errors = !errors;
      so_recorder = global;
      so_snaps = List.rev !snaps;
      so_trackers = Hashtbl.fold (fun n m acc -> (n, m) :: acc) trackers [];
      so_fired = Fi.fired plan;
      so_events = [||];
      so_trace_dropped = Graft_trace.Trace.dropped ();
      so_retained = Graft_trace.Trace.retained_ops ();
      so_spilled = Graft_trace.Trace.op_spilled ();
    }
  in
  (a, out)

type t = {
  cfg : Serve.config;
  shards : (acc * Serve.shard_out) array;
  ops : int;
  good : int;
  errors : int;
  faults : int;
  fallbacks : int;
  quarantined : int;
  fired : (string * string * int) list;
  merge_ns : int;
  wall_ns : int;
}

let run (cfg : Serve.config) =
  let w0 = now () in
  Graft_metrics.enable ();
  Graft_metrics.reset_shards ();
  let specs = Serve.fault_arm_specs cfg in
  let storms =
    Graft_workload.Arrival.bursts
      (Prng.create (Serve.storm_seed cfg))
      ~until:cfg.duration_s ~on_mean:0.6 ~off_mean:9.0
  in
  let shards =
    if cfg.domains = 1 then [| run_shard cfg ~specs ~storms 0 |]
    else
      Array.init cfg.domains (fun k ->
          Domain.spawn (fun () -> run_shard cfg ~specs ~storms k))
      |> Array.map Domain.join
  in
  let outs = Array.map snd shards in
  let m0 = now () in
  let windows = Serve.merge_windows outs in
  let snapshots = Serve.merge_snapshots cfg outs in
  let mttr =
    Array.to_list outs
    |> List.concat_map (fun so -> so.Serve.so_trackers)
    |> List.sort (fun (x, _) (y, _) -> String.compare x y)
    |> List.map snd |> Mttr.summarize_all
  in
  let fired =
    Array.to_list outs
    |> List.concat_map (fun so -> so.Serve.so_fired)
    |> List.map (fun (site, cls, tick) -> (site, Fi.class_name cls, tick))
    |> List.sort compare
  in
  let merge_ns = now () - m0 in
  ignore (Sys.opaque_identity (windows, snapshots, mttr));
  let wall_ns = now () - w0 in
  let grafts =
    Array.to_list outs
    |> List.concat_map (fun so -> Array.to_list so.Serve.so_tenants)
    |> List.concat_map (fun t -> Serve.[ t.demux_g; t.hotset_g; t.stream_g; t.evict_g ])
  in
  let sum f = List.fold_left (fun acc g -> acc + f g) 0 grafts in
  let total f = Array.fold_left (fun acc so -> acc + f so) 0 outs in
  {
    cfg;
    shards;
    ops = total (fun so -> so.Serve.so_ops);
    good = total (fun so -> so.Serve.so_good);
    errors = total (fun so -> so.Serve.so_errors);
    faults = sum (fun g -> g.Manager.total_faults);
    fallbacks = sum (fun g -> g.Manager.fallbacks);
    quarantined =
      sum (fun g ->
          match g.Manager.state with Manager.Quarantined _ -> 1 | _ -> 0);
    fired;
    merge_ns;
    wall_ns;
  }

(** The differences between the replay and a Serve.run of the same
    config, by name; empty when the replay reproduced it. *)
let mismatches t (r : Serve.result) =
  List.filter_map
    (fun (name, ok) -> if ok then None else Some ("replay " ^ name))
    [
      ("ops", t.ops = r.Serve.r_ops);
      ("good", t.good = r.r_good);
      ("errors", t.errors = r.r_errors);
      ("faults", t.faults = r.r_faults);
      ("fired", t.fired = r.r_fired);
    ]

(** Per-layer figures, named as in {!Spec.per_layer}. Collections are
    process-wide in OCaml 5, so shards report the largest count;
    everything else sums over shards. *)
let metrics t =
  let accs = Array.map fst t.shards in
  let sumi f = Array.fold_left (fun acc a -> acc + f a) 0 accs in
  let sumf f = Array.fold_left (fun acc a -> acc +. f a) 0.0 accs in
  let maxi f = Array.fold_left (fun acc a -> max acc (f a)) 0 accs in
  let ops = float_of_int t.ops in
  let per_op ns = float_of_int ns /. ops in
  let ms ns = float_of_int ns /. 1e6 in
  let classes =
    List.concat
      (List.mapi
         (fun c name ->
           let samples =
             Array.concat
               (Array.to_list
                  (Array.map (fun a -> Array.sub a.calls.(c) 0 a.ncalls.(c)) accs))
           in
           let n = Array.length samples in
           let us = Array.map (fun ns -> float_of_int ns /. 1e3) samples in
           let pct p = if n = 0 then 0.0 else Graft_util.Stats.percentile p us in
           [
             ( Printf.sprintf "op.%s.ns_per_op" name,
               if n = 0 then 0.0
               else float_of_int (Array.fold_left ( + ) 0 samples) /. float_of_int n );
             (Printf.sprintf "op.%s.p50_us" name, pct 50.0);
             (Printf.sprintf "op.%s.p99_us" name, pct 99.0);
             (Printf.sprintf "op.%s.samples" name, float_of_int n);
           ])
         Spec.serve_classes)
  in
  let techs =
    Array.to_list
      (Array.mapi
         (fun r tech ->
           let n = sumi (fun a -> a.tech_n.(r)) in
           ( Printf.sprintf "op.%s.ns_per_op" (Technology.name tech),
             if n = 0 then 0.0
             else float_of_int (sumi (fun a -> a.tech_ns.(r))) /. float_of_int n ))
         Serve.tech_rotation)
  in
  [
    ("setup.load_ms", ms (sumi (fun a -> a.make_ns)));
    ("setup.minor_words", sumf (fun a -> a.setup_words));
    ("setup.major_collections", float_of_int (maxi (fun a -> a.setup_major)));
    ("setup.events_ms", ms (sumi (fun a -> a.events_ns)));
    ("fault.check_ns_per_op", per_op (sumi (fun a -> a.fault_ns)));
    ("fault.fired", float_of_int (List.length t.fired));
    ( "manager.self_ns_per_op",
      per_op (sumi (fun a -> a.invoke_ns - a.fault_ns - a.graft_ns)) );
    ("manager.faults", float_of_int t.faults);
    ("manager.fallbacks", float_of_int t.fallbacks);
    ("manager.quarantined", float_of_int t.quarantined);
    ("map.lookups", float_of_int (sumi (fun a -> a.map_lookups)));
    ("map.updates", float_of_int (sumi (fun a -> a.map_updates)));
    ("map.evictions", float_of_int (sumi (fun a -> a.map_evictions)));
    ("slo.record_ns_per_op", per_op (sumi (fun a -> a.slo_ns)));
    ("clock.charge_ns_per_op", per_op (sumi (fun a -> a.clock_ns)));
    ("merge_ms", ms t.merge_ns);
    ("loop.minor_words_per_op", sumf (fun a -> a.loop_words) /. ops);
    ("loop.minor_collections", float_of_int (maxi (fun a -> a.loop_minor)));
    ("loop.major_collections", float_of_int (maxi (fun a -> a.loop_major)));
  ]
  @ classes @ techs
