(** Output checks on serve reports. Each holds for any correct change
    to the program: they state what the report must mean, not what it
    happened to contain at one commit. *)

open Graft_slo

(** The checks one {!Serve.run} result fails, by name. *)
let report (r : Serve.result) =
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 r.Serve.r_tenants in
  List.filter_map
    (fun (name, ok) -> if ok then None else Some name)
    [
      ("ops = good + errors", r.Serve.r_ops = r.r_good + r.r_errors);
      ("tenant demand sums to ops", sum (fun t -> t.Serve.ts_demand) = r.r_ops);
      ("tenant good sums to good", sum (fun t -> t.Serve.ts_good) = r.r_good);
      ("tenant errors sum to errors", sum (fun t -> t.Serve.ts_errors) = r.r_errors);
      ("faults = errors", r.r_faults = r.r_errors);
      ("errors = fired arms", r.r_errors = List.length r.r_fired);
    ]

let parse json =
  match Graft_util.Minijson.parse json with
  | Ok v -> v
  | Error msg -> failwith ("serve report is not JSON: " ^ msg)

(** The report minus the fields that differ across domain counts by
    design (see the serve.ml header): ["domains"] and every snapshot's
    ["trace_dropped"]. *)
let partition_invariant json =
  let doc = parse json in
  let open Graft_util.Minijson in
  let drop key = List.filter (fun (k, _) -> k <> key) in
  match doc with
  | Obj fields ->
      Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "snapshots", List snaps ->
                 ( k,
                   List
                     (List.map
                        (function Obj s -> Obj (drop "trace_dropped" s) | s -> s)
                        snaps) )
             | _ -> (k, v))
           (drop "domains" fields))
  | v -> v

(** Does a multi-domain report equal the single-domain one, up to the
    partition-dependent fields? *)
let same_up_to_partition ~one ~many =
  partition_invariant one = partition_invariant many
