(* The perf-regression gate.

   Three pieces:

   1. {!run_suite} — the interpreter-vs-JIT comparison over each
      graft's core operation, timed by the shared harness (interleaved
      rounds, GC fences, CI-driven repetition).

   2. {!to_json} / {!parse_baseline} — the BENCH_stackvm.json schema,
      v5: every number carries its bootstrap CI and CV, under the
      shared envelope. A baseline of any other schema version is
      refused with {!Schema}, naming the version found; regenerate it
      with [graftkit bench --save-baseline].

   3. {!gate} — the noise-aware comparison. A graft regresses only
      when the new CI and the baseline CI are disjoint (the difference
      is real, not noise) AND the median moved more than the
      per-graft threshold (the difference is big enough to care).
      Overlapping intervals never fail the gate, so a noisy CI runner
      does not cry wolf. *)

open Graft_util
open Graft_core

type row = {
  graft : string;
  interp : Graft_stats.Robust.estimate;  (** ns per op *)
  jit : Graft_stats.Robust.estimate;  (** ns per op *)
  rounds : int;
}

(* ------------------------------------------------------------------ *)
(* The suite: each graft's core op on the interpreter and the JIT.    *)
(* ------------------------------------------------------------------ *)

let hot_pages = Array.init 64 (fun i -> 3 * i)

let evict_op tech =
  let runner =
    Runners.evict ~rng:(Prng.create 0x5EEDL) tech ~capacity_nodes:128 ()
  in
  runner.Runners.refresh ~hot:hot_pages ~lru:[||];
  fun () -> ignore (runner.Runners.contains 99_999)

let md5_op tech =
  let size = 65536 in
  let data = Prng.bytes (Prng.create 0x3D5L) size in
  let runner = Runners.md5 tech ~capacity:size in
  runner.Runners.load data;
  fun () -> runner.Runners.compute size

let logdisk_op tech =
  let nblocks = 4096 in
  let policy = Runners.logdisk_policy tech ~nblocks in
  let next = ref 0 in
  fun () ->
    next := (!next + 1677) land (nblocks - 1);
    ignore (policy.Graft_kernel.Logdisk.map_write !next)

let pkt_op tech =
  let traffic =
    Graft_kernel.Netpkt.random_traffic (Prng.create 0xF17L) ~count:256
  in
  let accepts =
    Runners.packet_filter tech ~protocol:Graft_kernel.Netpkt.proto_udp ~port:53
  in
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land 255;
    ignore (accepts traffic.(!i))

let suite =
  [
    ("evict_contains", evict_op); ("md5_64k", md5_op);
    ("logdisk_map_write", logdisk_op); ("packet_filter", pkt_op);
  ]

(* Thresholds below which a statistically real median move is still
   tolerated: tight for the long-running MD5 op (stable), loose for
   the nanosecond-scale ops where codegen luck moves medians. *)
let default_threshold graft =
  match graft with "md5_64k" -> 0.15 | _ -> 0.30

let ns e =
  Graft_stats.Robust.
    { e with
      mean = e.mean *. 1e9;
      stddev = e.stddev *. 1e9;
      median = e.median *. 1e9;
      mad = e.mad *. 1e9;
      ci95_lo = e.ci95_lo *. 1e9;
      ci95_hi = e.ci95_hi *. 1e9;
    }

let run_suite ?(config = Graft_stats.Harness.quick) () =
  List.map
    (fun (name, mk) ->
      let thunks =
        [|
          Graft_stats.Harness.stage (mk Technology.Bytecode_vm);
          Graft_stats.Harness.stage (mk Technology.Jit);
        |]
      in
      let ms = Graft_stats.Harness.interleaved ~config thunks in
      let interp = ms.(0) and jit = ms.(1) in
      {
        graft = name;
        interp = ns interp.Graft_stats.Harness.est;
        jit = ns jit.Graft_stats.Harness.est;
        rounds = Array.length interp.Graft_stats.Harness.samples;
      })
    suite

(* ------------------------------------------------------------------ *)
(* Schema v5 JSON.                                                     *)
(* ------------------------------------------------------------------ *)

let schema_version = 5

let row_json r =
  let open Graft_stats.Robust in
  Printf.sprintf
    "  { \"graft\": %S, \"interp_ns_per_op\": %.1f, \"interp_ci95_lo\": %.1f, \
     \"interp_ci95_hi\": %.1f, \"interp_cv\": %.4f, \"jit_ns_per_op\": %.1f, \
     \"jit_ci95_lo\": %.1f, \"jit_ci95_hi\": %.1f, \"jit_cv\": %.4f, \
     \"rounds\": %d, \"jit_speedup\": %.2f }"
    r.graft r.interp.median r.interp.ci95_lo r.interp.ci95_hi r.interp.cv
    r.jit.median r.jit.ci95_lo r.jit.ci95_hi r.jit.cv r.rounds
    (r.interp.median /. r.jit.median)

let to_json rows =
  Envelope.wrap ~schema_version
    (Printf.sprintf "\n  \"results\": [\n%s\n  ]\n"
       (String.concat ",\n" (List.map row_json rows)))

let save ~path rows =
  let oc = open_out path in
  output_string oc (to_json rows);
  output_string oc "\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Baseline parsing (v5 only).                                        *)
(* ------------------------------------------------------------------ *)

type baseline_col = { b_ns : float; b_lo : float; b_hi : float }

type baseline_row = {
  b_graft : string;
  b_interp : baseline_col;
  b_jit : baseline_col;
}

type baseline_error =
  | Schema of int  (** a schema version other than {!schema_version} *)
  | Invalid of string  (** unreadable, not JSON, or missing a v5 field *)

let baseline_error_message = function
  | Schema v ->
      Printf.sprintf
        "baseline: schema v%d is not supported (expected v%d); regenerate \
         it with graftkit bench --save-baseline"
        v schema_version
  | Invalid msg -> "baseline: " ^ msg

let parse_col obj prefix =
  let open Minijson in
  let get key = Option.bind (member (prefix ^ key) obj) to_float in
  match (get "_ns_per_op", get "_ci95_lo", get "_ci95_hi") with
  | Some b_ns, Some b_lo, Some b_hi -> Ok { b_ns; b_lo; b_hi }
  | _ -> Error (Printf.sprintf "missing %s_ns_per_op or its CI" prefix)

let parse_row obj =
  match Option.bind (Minijson.member "graft" obj) Minijson.to_string with
  | None -> Error (Invalid "row without graft name")
  | Some name -> (
      match (parse_col obj "interp", parse_col obj "jit") with
      | Ok b_interp, Ok b_jit -> Ok { b_graft = name; b_interp; b_jit }
      | Error e, _ | _, Error e ->
          Error (Invalid (Printf.sprintf "row %s: %s" name e)))

let parse_baseline text =
  let open Minijson in
  match parse text with
  | Error msg -> Error (Invalid msg)
  | Ok doc -> (
      match Option.bind (member "schema_version" doc) to_float with
      | None -> Error (Invalid "no schema_version")
      | Some v when int_of_float v <> schema_version ->
          Error (Schema (int_of_float v))
      | Some _ -> (
          match Option.bind (member "results" doc) to_list with
          | None -> Error (Invalid "no results array")
          | Some rows ->
              List.fold_right
                (fun obj acc ->
                  Result.bind acc (fun rest ->
                      Result.map (fun r -> r :: rest) (parse_row obj)))
                rows (Ok [])))

let load_baseline path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse_baseline text
  | exception Sys_error msg -> Error (Invalid msg)

(* ------------------------------------------------------------------ *)
(* The gate.                                                           *)
(* ------------------------------------------------------------------ *)

type verdict = Pass | Regression | Improvement

(* The noise-aware rule, on bare numbers so tests can drive it with
   synthetic baselines: a move counts only when the intervals are
   disjoint AND the median moved beyond the threshold fraction. *)
let compare_ci ~threshold ~base ~cur_ns ~cur_lo ~cur_hi =
  if cur_lo > base.b_hi && cur_ns > base.b_ns *. (1.0 +. threshold) then
    Regression
  else if cur_hi < base.b_lo && cur_ns < base.b_ns *. (1.0 -. threshold) then
    Improvement
  else Pass

type check = {
  c_graft : string;
  c_tier : string;  (** "interp" or "jit" *)
  c_base_ns : float;
  c_cur_ns : float;
  c_verdict : verdict;
}

let verdict_name = function
  | Pass -> "pass"
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"

(** Compare [rows] against a parsed baseline. Grafts present only on
    one side are skipped (the suite changed; regenerate the baseline).
    [threshold] overrides the per-graft defaults. *)
let gate ?threshold ~baseline rows =
  List.concat_map
    (fun r ->
      match List.find_opt (fun b -> b.b_graft = r.graft) baseline with
      | None -> []
      | Some b ->
          let thr =
            match threshold with
            | Some t -> t
            | None -> default_threshold r.graft
          in
          let one tier base (e : Graft_stats.Robust.estimate) =
            {
              c_graft = r.graft;
              c_tier = tier;
              c_base_ns = base.b_ns;
              c_cur_ns = e.Graft_stats.Robust.median;
              c_verdict =
                compare_ci ~threshold:thr ~base
                  ~cur_ns:e.Graft_stats.Robust.median
                  ~cur_lo:e.Graft_stats.Robust.ci95_lo
                  ~cur_hi:e.Graft_stats.Robust.ci95_hi;
            }
          in
          [ one "interp" b.b_interp r.interp; one "jit" b.b_jit r.jit ])
    rows

let failed checks = List.exists (fun c -> c.c_verdict = Regression) checks

let pp_check c =
  Printf.sprintf "%-20s %-7s base %10.1f ns/op   now %10.1f ns/op   %+6.1f%%  %s"
    c.c_graft c.c_tier c.c_base_ns c.c_cur_ns
    (if c.c_base_ns = 0.0 then 0.0
     else (c.c_cur_ns -. c.c_base_ns) /. c.c_base_ns *. 100.0)
    (verdict_name c.c_verdict)
