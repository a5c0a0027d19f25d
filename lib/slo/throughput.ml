(** Graftswarm's scaling harness: ops/s of the sharded serve section
    versus worker-domain count, with {!Graft_stats.Robust} medians and
    bootstrap CIs over repeated runs.

    Unlike every other number serve emits, throughput is {e wall-clock}
    — it measures how fast this machine chews through the simulated
    workload, specifically the parallel section alone (domain spawn to
    join), so setup and merge cost do not dilute the scaling signal.
    The simulated results themselves are independent of the domain
    count (that is Graftswarm's merge-equivalence guarantee, pinned by
    test_swarm), so every row of this table recomputes the {e same}
    report; only the wall-clock differs.

    Scaling is bounded by the cores actually available: the [--json]
    report records [Domain.recommended_domain_count ()] so a reader can
    tell a scheduler problem from a one-core container.
    {!gate_snapshot} hands each domain count to
    {!Graft_report.Rowgate} as a higher-better [ops_per_s.d<N>] row
    with its CI. *)

type row = {
  tp_domains : int;
  tp_ops : int;  (** simulated ops per run (identical across rows) *)
  tp_est : Graft_stats.Robust.estimate;  (** ops per wall-second *)
}

type report = {
  tr_config : Serve.config;  (** the serve config each rep ran *)
  tr_reps : int;
  tr_cores : int;  (** [Domain.recommended_domain_count ()] here *)
  tr_rows : row list;  (** ascending domain count *)
}

(** The sweep's range rules: [Error] names the first value out of
    range, including any domain count {!Serve.validate} refuses. *)
let validate ~reps ~domain_counts cfg =
  if reps < 1 then Error (Printf.sprintf "reps must be at least 1, got %d" reps)
  else if domain_counts = [] then Error "no domain counts"
  else
    List.fold_left
      (fun acc d ->
        Result.bind acc (fun () ->
            Result.map_error
              (fun m -> Printf.sprintf "domain count %d: %s" d m)
              (Serve.validate { cfg with Serve.domains = d })))
      (Ok ()) domain_counts

(** Run the serve workload [reps] times at each domain count and
    estimate ops per wall-second of the parallel section. Raises
    [Invalid_argument] when {!validate} refuses the sweep. *)
let run ?(reps = 5) ~domain_counts cfg =
  (match validate ~reps ~domain_counts cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Throughput.run: " ^ msg));
  let counts = List.sort_uniq compare domain_counts in
  let rows =
    List.map
      (fun d ->
        let cfg = { cfg with Serve.domains = d } in
        let ops = ref 0 in
        let samples =
          Array.init reps (fun _ ->
              let r = Serve.run cfg in
              ops := r.Serve.r_ops;
              float_of_int r.Serve.r_ops /. r.Serve.r_par_wall_s)
        in
        { tp_domains = d; tp_ops = !ops;
          tp_est = Graft_stats.Robust.estimate samples })
      counts
  in
  {
    tr_config = cfg;
    tr_reps = reps;
    tr_cores = Domain.recommended_domain_count ();
    tr_rows = rows;
  }

let speedup report row =
  match report.tr_rows with
  | first :: _ when first.tp_est.Graft_stats.Robust.median > 0.0 ->
      row.tp_est.Graft_stats.Robust.median
      /. first.tp_est.Graft_stats.Robust.median
  | _ -> 1.0

(* ------------------------------------------------------------------ *)
(* The --json report and the gate rows.                                *)
(* ------------------------------------------------------------------ *)

let schema_version = 1

let row_json report r =
  let open Graft_stats.Robust in
  Printf.sprintf
    "{\"domains\":%d,\"ops\":%d,\"ops_per_s\":%.1f,\"ci95_lo\":%.1f,\
     \"ci95_hi\":%.1f,\"cv\":%.4f,\"speedup_vs_first\":%.3f}"
    r.tp_domains r.tp_ops r.tp_est.median r.tp_est.ci95_lo r.tp_est.ci95_hi
    r.tp_est.cv (speedup report r)

let to_json report =
  let cfg = report.tr_config in
  Graft_report.Envelope.wrap ~schema_version
    (Printf.sprintf
       "\"suite\":\"serve-throughput\",\"seed\":%d,\"tenants\":%d,\
        \"duration_s\":%.2f,\"base_rate\":%.2f,\"reps\":%d,\"cores\":%d,\
        \"rows\":[%s]"
       cfg.Serve.seed cfg.Serve.tenants cfg.Serve.duration_s
       cfg.Serve.base_rate report.tr_reps report.tr_cores
       (String.concat "," (List.map (row_json report) report.tr_rows)))

(** Wall-clock ops/s moves with the machine, so only a large drop with
    disjoint CIs counts. *)
let gate_threshold (_ : string) = 0.30

let gate_snapshot report =
  {
    Graft_report.Rowgate.suite = "serve-throughput";
    config = Serve.gate_config report.tr_config;
    rows =
      List.map
        (fun r ->
          let open Graft_stats.Robust in
          {
            Graft_report.Rowgate.metric =
              Printf.sprintf "ops_per_s.d%d" r.tp_domains;
            value = r.tp_est.median;
            ci95 = Some (r.tp_est.ci95_lo, r.tp_est.ci95_hi);
            higher_better = true;
          })
        report.tr_rows;
  }

let render report =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "graftswarm throughput: %d tenants, %.0fs simulated, %d reps \
        (seed %d, %d core%s available)\n\n"
       report.tr_config.Serve.tenants report.tr_config.Serve.duration_s
       report.tr_reps report.tr_config.Serve.seed report.tr_cores
       (if report.tr_cores = 1 then "" else "s"));
  let t =
    Graft_util.Tablefmt.create
      ~aligns:Graft_util.Tablefmt.[| Right; Right; Right; Right; Right |]
      [| "domains"; "ops"; "ops/s"; "ci95"; "speedup" |]
  in
  List.iter
    (fun r ->
      let open Graft_stats.Robust in
      Graft_util.Tablefmt.add_row t
        [|
          string_of_int r.tp_domains;
          string_of_int r.tp_ops;
          Printf.sprintf "%.0f" r.tp_est.median;
          Printf.sprintf "[%.0f, %.0f]" r.tp_est.ci95_lo r.tp_est.ci95_hi;
          Printf.sprintf "%.2fx" (speedup report r);
        |])
    report.tr_rows;
  Buffer.add_string buf (Graft_util.Tablefmt.render t);
  Buffer.contents buf
