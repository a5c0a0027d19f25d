(** The benchmark's workloads and its command line.

    One process runs one workload. [--trace 0] measures the end-to-end
    metrics on untraced runs of the real entry points
    ({!Graft_slo.Serve.run} and the {!Graft_core.Runners} closures);
    [--trace 1] is the separate traced run behind the per-layer
    metrics. Every run checks every output it measures and prints, as
    its last line, one JSON object: [correct], [attempted], [failed]
    and [metrics]. *)

open Graft_core
open Graft_slo

let now = Clock.now
let seconds_of_ns ns = float_of_int ns /. 1e9
let median xs = Graft_util.Stats.median (Array.of_list xs)

(* ------------------------------------------------------------------ *)
(* What a run reports.                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;  (** outputs that differ from their reference *)
  failures : string list;  (** what failed, for the log *)
  metrics : (string * float) list;
}

let serve_config workload seed =
  {
    Serve.default with
    seed;
    domains = (if workload = "serve-2d" then 2 else 1);
  }

(** Peak resident set of this process, from /proc (Linux). *)
let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Set-up time, in processes of its own.                               *)
(* ------------------------------------------------------------------ *)

(** One cold set-up in this (fresh) process, in seconds. *)
let cold_setup workload seed =
  match workload with
  | "tiers" ->
      let grafts = Pairs.tiers_grafts ~seed in
      let t0 = now () in
      ignore (Sys.opaque_identity (Pairs.load grafts));
      seconds_of_ns (now () - t0)
  | _ ->
      let cfg = { (serve_config workload seed) with duration_s = 0.0 } in
      let t0 = now () in
      ignore (Sys.opaque_identity (Serve.run cfg));
      seconds_of_ns (now () - t0)

let setup_runs = 7

(** [setup_s]: the median of [setup_runs] set-ups, each in a child
    process where no earlier call warmed a cache, as a host pays it
    once per start. *)
let setup_s workload seed =
  let exe = Sys.executable_name in
  median
    (List.init setup_runs (fun _ ->
         let ic =
           Unix.open_process_args_in exe
             [| exe; "--cold-setup"; workload; "--seed"; string_of_int seed |]
         in
         let line = try input_line ic with End_of_file -> "" in
         match Unix.close_process_in ic with
         | Unix.WEXITED 0 -> float_of_string line
         | _ -> failwith "cold set-up child failed"))

(* ------------------------------------------------------------------ *)
(* The closed loop over (graft, tier) pairs.                           *)
(* ------------------------------------------------------------------ *)

let tech_ns pairs t =
  match Pairs.geomean_ns ~keep:(fun p -> Pairs.tech_name p = t) pairs with
  | Some ns -> ns
  | None -> failwith ("no pair measured for " ^ t)

let ns_per_op_metrics pairs =
  List.map (fun t -> ("ns_per_op." ^ t, tech_ns pairs t)) Spec.e2e_techs

(* The reported tiers plus the references their stateful grafts are
   checked against. *)
let reported_techs () =
  List.filter_map Technology.of_name ("pf-vm" :: Spec.e2e_techs)

let loop_failures bad =
  if bad > 0 then [ Printf.sprintf "%d tier-loop outputs differ" bad ] else []

(* ------------------------------------------------------------------ *)
(* Untraced runs: the end-to-end metrics.                              *)
(* ------------------------------------------------------------------ *)

(* Each timed call starts from a collected heap, so it pays for its own
   garbage rather than for an earlier call's. *)
let timed_serve cfg =
  Gc.full_major ();
  let t0 = now () in
  let r = Serve.run cfg in
  (r, now () - t0)

(* Serve runs alternate timed Serve.run calls with slices of the tier
   loop, so both figures sample the whole run, not one stretch of it. *)
let slice_ns = 400_000_000

let serve_e2e workload seed ~seconds =
  let cfg = serve_config workload seed in
  let setup = setup_s workload seed in
  let checks = ref [] in
  let fail msg = checks := msg :: !checks in
  (* Memory is read after the first call in this fresh process: later
     calls run in a heap the earlier ones already grew. *)
  let first, _ = timed_serve cfg in
  let rss = rss_peak_mb () in
  List.iter fail (Servecheck.report first);
  let reference = Serve.to_json first in
  if cfg.domains > 1 then begin
    let one, _ = timed_serve { cfg with domains = 1 } in
    if not (Servecheck.same_up_to_partition ~one:(Serve.to_json one) ~many:reference)
    then fail "report differs from the 1-domain report"
  end;
  let pairs = Pairs.load ~techs:(reported_techs ()) (Pairs.tiers_grafts ~seed) in
  let t_end = now () + int_of_float (seconds *. 1e9) in
  let rec go rates calls bad =
    if List.length rates >= 3 && now () >= t_end then (rates, calls, bad)
    else begin
      let o = Pairs.run ~budget_ns:slice_ns ~min_rounds:1 pairs in
      let r, wall = timed_serve cfg in
      if Serve.to_json r <> reference then fail "report differs between runs";
      go
        ((float_of_int r.Serve.r_ops /. seconds_of_ns wall) :: rates)
        (calls + o.Pairs.attempted) (bad + o.Pairs.mismatches)
    end
  in
  let rates, pair_calls, pair_bad = go [] 0 (Pairs.load_mismatches pairs) in
  let runs = List.length rates + cfg.domains in
  let failed = pair_bad + List.length !checks in
  let lost = float_of_int (first.Serve.r_errors + failed) in
  {
    attempted = (runs * first.r_ops) + pair_calls;
    failed;
    failures = loop_failures pair_bad @ List.rev !checks;
    metrics =
      [
        ("setup_s", setup);
        ("ops_per_s", median rates);
        ("ok_frac", 1.0 -. (lost /. float_of_int first.r_ops));
        ("rss_peak_mb", rss);
      ]
      @ ns_per_op_metrics pairs;
  }

let tiers_e2e seed ~seconds =
  let setup = setup_s "tiers" seed in
  let pairs = Pairs.load (Pairs.tiers_grafts ~seed) in
  let o =
    Pairs.run ~budget_ns:(int_of_float (seconds *. 1e9)) ~min_rounds:5 pairs
  in
  let all =
    match Pairs.geomean_ns pairs with Some ns -> ns | None -> failwith "no pairs"
  in
  let bad = o.Pairs.mismatches + Pairs.load_mismatches pairs in
  {
    attempted = o.Pairs.attempted;
    failed = bad;
    failures = loop_failures bad;
    metrics =
      [
        ("setup_s", setup);
        ("ops_per_s", 1e9 /. all);
        ("ok_frac", 1.0 -. (float_of_int bad /. float_of_int o.Pairs.attempted));
        ("rss_peak_mb", rss_peak_mb ());
      ]
      @ ns_per_op_metrics pairs;
  }

(* ------------------------------------------------------------------ *)
(* Traced runs: the per-layer metrics.                                 *)
(* ------------------------------------------------------------------ *)

let ms_of_ns ns = float_of_int ns /. 1e6

let phase_metrics (t : Phases.times) =
  [
    ("setup.frontend_ms", ms_of_ns t.Phases.frontend);
    ("setup.analysis_ms", ms_of_ns t.analysis);
    ("setup.verify_ms", ms_of_ns t.verify);
    ("setup.jit_ms", ms_of_ns t.jit);
  ]

let image_metrics ~loads ~distinct =
  [
    ("setup.loads", float_of_int loads);
    ("setup.distinct_images", float_of_int distinct);
    ("setup.reload_frac", 1.0 -. (float_of_int distinct /. float_of_int loads));
  ]

let serve_traced workload seed =
  let cfg = serve_config workload seed in
  let base, wall0 = timed_serve cfg in
  let failures = ref (Servecheck.report base) in
  Gc.full_major ();
  let replay = Replay.run cfg in
  failures := !failures @ Replay.mismatches replay base;
  let again, wall1 = timed_serve cfg in
  if Serve.to_json again <> Serve.to_json base then
    failures := !failures @ [ "report differs between runs" ];
  let tenants =
    List.concat_map
      (fun (_, so) -> Array.to_list so.Serve.so_tenants)
      (Array.to_list replay.Replay.shards)
  in
  let images =
    List.sort_uniq compare
      (List.concat_map
         (fun t -> List.map (fun c -> (c, t.Serve.t_tech)) Spec.serve_classes)
         tenants)
  in
  (* Each distinct image is timed once, as the first tenant on its tier
     built it. *)
  let phases =
    List.fold_left
      (fun acc (c, tech) ->
        let t = List.find (fun t -> t.Serve.t_tech = tech) tenants in
        Phases.add acc (Phases.measure (Phases.serve_image t c) tech))
      Phases.zero images
  in
  let failed = List.length !failures in
  let base_wall = median [ float_of_int wall0; float_of_int wall1 ] in
  {
    attempted = 3 * base.Serve.r_ops;
    failed;
    failures = !failures;
    metrics =
      Replay.metrics replay
      @ phase_metrics phases
      @ image_metrics ~loads:(4 * cfg.tenants) ~distinct:(List.length images)
      @ [
          ("trace.overhead_frac", (float_of_int replay.Replay.wall_ns /. base_wall) -. 1.0);
          ( "error_frac",
            float_of_int (base.r_errors + failed) /. float_of_int base.r_ops );
        ];
  }

(* One pass over every input block of the tiers grafts. *)
let map_rounds = 4

let tiers_traced seed ~seconds =
  Graft_metrics.enable ();
  let grafts = Pairs.tiers_grafts ~seed in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = Gc.minor_words () in
  let pairs = Pairs.load grafts in
  let words = Gc.minor_words () -. w0 in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let phases =
    List.fold_left
      (fun acc p -> Phases.add acc (Phases.measure p.Pairs.inst.Pairs.image p.Pairs.tech))
      Phases.zero pairs
  in
  (* Map operations are counted over a fixed number of rounds, so the
     counts do not grow with the time budget or with the tiers' speed. *)
  let map_kinds = [ "lookup"; "update"; "evict" ] in
  let maps0 = List.map Replay.map_ops map_kinds in
  let counted = Pairs.run ~budget_ns:0 ~min_rounds:map_rounds pairs in
  let maps = List.map2 (fun op before -> Replay.map_ops op - before) map_kinds maps0 in
  let timed =
    Pairs.run ~budget_ns:(int_of_float (seconds *. 1e9)) ~min_rounds:5 pairs
  in
  let o =
    {
      timed with
      Pairs.attempted = counted.Pairs.attempted + timed.Pairs.attempted;
      mismatches = counted.mismatches + timed.mismatches;
    }
  in
  let in_spec p =
    match List.assoc_opt p.Pairs.graft.Pairs.g_name Spec.tier_pairs with
    | Some techs -> List.mem (Pairs.tech_name p) techs
    | None -> false
  in
  let load_of t =
    List.fold_left
      (fun acc p -> if Pairs.tech_name p = t then acc + p.Pairs.load_ns else acc)
      0 pairs
  in
  let alloc_of t =
    match List.filter (fun p -> Pairs.tech_name p = t) pairs with
    | [] -> 0.0
    | ps ->
        Graft_util.Stats.mean (Array.of_list (List.map Pairs.words_per_op ps))
  in
  let bad = o.Pairs.mismatches + Pairs.load_mismatches pairs in
  {
    attempted = o.Pairs.attempted;
    failed = bad;
    failures = loop_failures bad;
    metrics =
      [
        ( "setup.load_ms",
          ms_of_ns (List.fold_left (fun acc p -> acc + p.Pairs.load_ns) 0 pairs) );
        ("setup.minor_words", words);
        ("setup.major_collections", float_of_int major);
      ]
      @ phase_metrics phases
      @ image_metrics ~loads:(List.length pairs) ~distinct:(List.length pairs)
      @ List.map (fun t -> ("load." ^ t ^ ".ms", ms_of_ns (load_of t))) Spec.load_techs
      @ List.filter_map
          (fun p ->
            if in_spec p then
              Some
                ( Printf.sprintf "graft.%s.%s.ns_per_op" p.Pairs.graft.Pairs.g_name
                    (Pairs.tech_name p),
                  Pairs.median_ns p )
            else None)
          pairs
      @ List.map
          (fun t -> (Printf.sprintf "alloc.%s.words_per_op" t, alloc_of t))
          Spec.e2e_techs
      @ List.map2
          (fun n v -> (n, float_of_int v))
          [ "map.lookups"; "map.updates"; "map.evictions" ]
          maps
      @ [ ("error_frac", float_of_int bad /. float_of_int o.Pairs.attempted) ];
  }

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)
(* ------------------------------------------------------------------ *)

(* Every metric of the run's kind, in table order. An end-to-end metric
   the workload did not produce is a bug; a per-layer one the workload
   does not exercise reads 0. *)
let complete ~trace measured =
  let table = if trace then Spec.per_layer else Spec.end_to_end in
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun m -> m.Spec.name = n) table) then
        failwith ("metric outside the table: " ^ n))
    measured;
  List.map
    (fun m ->
      match List.assoc_opt m.Spec.name measured with
      | Some v when Float.is_finite v -> (m, v)
      | Some _ -> failwith ("non-finite value for " ^ m.Spec.name)
      | None when trace -> (m, 0.0)
      | None -> failwith ("missing end-to-end metric " ^ m.Spec.name))
    table

let result_json o ~correct metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (m, v) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.Spec.name v
              m.Spec.unit_)
          metrics))

let report ~workload ~seed ~trace o =
  let metrics = complete ~trace o.metrics in
  let correct = o.failed = 0 && o.failures = [] in
  Printf.printf "graftbench %s seed %d (%s): %d attempted, %d failed\n" workload seed
    (if trace then "traced" else "untraced")
    o.attempted o.failed;
  List.iter (Printf.printf "  check failed: %s\n") o.failures;
  List.iter
    (fun (m, v) -> Printf.printf "  %-40s %16.4f %s\n" m.Spec.name v m.Spec.unit_)
    metrics;
  print_endline (result_json o ~correct metrics)

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: graftbench --workload serve|serve-2d|tiers --seed N --seconds S \
   --trace 0|1\n\
  \       graftbench --describe | --benchmark-json"

let run_seconds = 30

exception Usage of string

let main argv =
  let args = Array.to_list argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((k, v) :: acc) rest
    | [] -> acc
    | a :: _ -> raise (Usage ("unexpected argument " ^ a))
  in
  let int_opt kvs k ~default =
    match List.assoc_opt k kvs with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> raise (Usage (Printf.sprintf "%s wants an integer, got %s" k v)))
  in
  let workload kvs =
    match List.assoc_opt "--workload" kvs with
    | Some w when List.mem w Spec.workload_names -> w
    | Some w -> raise (Usage ("unknown workload " ^ w))
    | None -> raise (Usage "--workload is required")
  in
  match args with
  | [ "--describe" ] -> print_string (Spec.render ())
  | [ "--benchmark-json" ] -> print_string (Spec.benchmark_json ~run_seconds)
  | "--cold-setup" :: w :: rest ->
      let kvs = opts [] rest in
      if not (List.mem w Spec.workload_names) then raise (Usage ("unknown workload " ^ w));
      Printf.printf "%.17g\n" (cold_setup w (int_opt kvs "--seed" ~default:42))
  | _ ->
      let kvs = opts [] args in
      let w = workload kvs in
      let seed = int_opt kvs "--seed" ~default:42 in
      let seconds = int_opt kvs "--seconds" ~default:run_seconds in
      if seconds < 1 then raise (Usage "--seconds must be at least 1");
      let trace =
        match int_opt kvs "--trace" ~default:0 with
        | 0 -> false
        | 1 -> true
        | _ -> raise (Usage "--trace is 0 or 1")
      in
      let seconds = float_of_int seconds in
      let o =
        match (w, trace) with
        | "tiers", false -> tiers_e2e seed ~seconds
        | "tiers", true -> tiers_traced seed ~seconds
        | _, false -> serve_e2e w seed ~seconds
        | _, true -> serve_traced w seed
      in
      report ~workload:w ~seed ~trace o
