(* The regression gate: one baseline schema, one reader, one verdict
   rule and one renderer for every suite that guards a number.

   A suite hands the gate a {!snapshot}: the suite's name, an identity
   [config] (the knobs that make two runs the same experiment), and
   rows of {metric, value, optional 95% CI, direction}. The producing
   suite also supplies each metric's threshold, the fractional move in
   the harmful direction it tolerates; thresholds live in code, not in
   baselines. Three suites produce rows:

   - [stackvm] ({!Benchgate}): [<graft>.interp] and [<graft>.jit],
     wall-clock ns per op with bootstrap CIs;
   - [serve] ([Graft_slo.Serve]): nine SLO metrics, each a pure
     function of (seed, config), so without CIs;
   - [serve-throughput] ([Graft_slo.Throughput]): [ops_per_s.d<N>],
     wall-clock ops per second at N domains, with CIs, higher-better.

   The verdict rule, one for all of them: a row regresses when it moved
   in its harmful direction by more than its threshold AND, when both
   sides carry intervals, the intervals are disjoint on that side.
   Overlapping intervals never fail the gate, so a noisy runner does not
   cry wolf; a deterministic row has no interval, so any move past the
   threshold counts. The mirror image reports an improvement. Moves are
   relative to the baseline, floored at 1e-9 so a zero baseline still
   compares: any nonzero current value is then a full move. Rows on one
   side only are skipped (the suite changed; regenerate the baseline). *)

type row = {
  metric : string;
  value : float;
  ci95 : (float * float) option;  (** (lo, hi) when the suite has CIs *)
  higher_better : bool;
}

type snapshot = {
  suite : string;
  config : (string * float) list;
      (** identity: a baseline gates only a run with the same config *)
  rows : row list;
}

(* The stack-VM baseline alone reached v5 before the gates were folded
   together, so the shared schema starts above every earlier one. *)
let schema_version = 6

type error =
  | Schema of int  (** a schema version other than {!schema_version} *)
  | Invalid of string  (** unreadable, not JSON, or missing a field *)
  | Mismatch of { field : string; baseline : string; run : string }
      (** the baseline is for another suite or config *)

let error_message = function
  | Schema v ->
      Printf.sprintf
        "baseline: schema v%d is not supported (expected v%d); regenerate \
         it with --save-baseline"
        v schema_version
  | Invalid msg -> "baseline: " ^ msg
  | Mismatch { field; baseline; run } ->
      Printf.sprintf
        "config mismatch on %s: baseline %s, run %s; regenerate the baseline \
         with --save-baseline"
        field baseline run

(* ------------------------------------------------------------------ *)
(* The schema.                                                         *)
(* ------------------------------------------------------------------ *)

(* The shortest of %.15g and %.17g that reads back as the same float, so
   a saved run gates against itself exactly. *)
let number x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let row_json r =
  let ci =
    match r.ci95 with
    | Some (lo, hi) ->
        Printf.sprintf ", \"ci95_lo\": %s, \"ci95_hi\": %s" (number lo)
          (number hi)
    | None -> ""
  in
  Printf.sprintf
    "  { \"metric\": %S, \"value\": %s%s, \"higher_better\": %b }" r.metric
    (number r.value) ci r.higher_better

let to_json s =
  Envelope.wrap ~schema_version
    (Printf.sprintf
       "\n  \"suite\": %S,\n  \"config\": {%s},\n  \"rows\": [\n%s\n  ]\n"
       s.suite
       (String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (number v))
             s.config))
       (String.concat ",\n" (List.map row_json s.rows)))

let save ~path s =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_json s);
      Out_channel.output_string oc "\n")

(* ------------------------------------------------------------------ *)
(* The reader: total over any input, errors typed.                     *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field where key conv obj =
  match Option.bind (Graft_util.Minijson.member key obj) conv with
  | Some v -> Ok v
  | None ->
      Error (Invalid (Printf.sprintf "%s: missing or mistyped %S" where key))

let to_bool = function Graft_util.Minijson.Bool b -> Some b | _ -> None
let to_obj = function Graft_util.Minijson.Obj kvs -> Some kvs | _ -> None

let all f xs =
  List.fold_right
    (fun x acc ->
      let* rest = acc in
      let* y = f x in
      Ok (y :: rest))
    xs (Ok [])

let parse_row obj =
  let open Graft_util.Minijson in
  let* metric = field "row" "metric" to_string obj in
  let where = "row " ^ metric in
  let* value = field where "value" to_float obj in
  let* higher_better = field where "higher_better" to_bool obj in
  let* ci95 =
    match (member "ci95_lo" obj, member "ci95_hi" obj) with
    | None, None -> Ok None
    | Some (Num lo), Some (Num hi) -> Ok (Some (lo, hi))
    | _ ->
        Error (Invalid (where ^ ": ci95_lo and ci95_hi must come as a pair"))
  in
  Ok { metric; value; ci95; higher_better }

let parse text =
  let open Graft_util.Minijson in
  let* doc = Result.map_error (fun m -> Invalid m) (parse text) in
  let* v = field "baseline" "schema_version" to_float doc in
  if v <> float_of_int schema_version then Error (Schema (Float.to_int v))
  else
    let* suite = field "baseline" "suite" to_string doc in
    let* config = field "baseline" "config" to_obj doc in
    let* config =
      all
        (fun (k, v) ->
          match v with
          | Num x -> Ok (k, x)
          | _ -> Error (Invalid (Printf.sprintf "config %S is not a number" k)))
        config
    in
    let* rows = field "baseline" "rows" to_list doc in
    let* rows = all parse_row rows in
    Ok { suite; config; rows }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error (Invalid msg)

(* ------------------------------------------------------------------ *)
(* The verdict.                                                        *)
(* ------------------------------------------------------------------ *)

type verdict = Pass | Regression | Improvement

let verdict_name = function
  | Pass -> "pass"
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"

(** Relative move of [cur] from [base], floored at 1e-9 in the
    denominator. *)
let move ~base ~cur = (cur -. base) /. Float.max (Float.abs base) 1e-9

(** The one rule. [cur]'s direction decides which way is harmful. *)
let verdict ~threshold ~(base : row) (cur : row) =
  let rel = move ~base:base.value ~cur:cur.value in
  let worse = if cur.higher_better then -.rel else rel in
  (* Disjoint on the side the value moved to; vacuous without CIs. *)
  let disjoint ~up =
    match (base.ci95, cur.ci95) with
    | Some (blo, bhi), Some (clo, chi) -> if up then clo > bhi else chi < blo
    | _ -> true
  in
  if worse > threshold && disjoint ~up:(not cur.higher_better) then Regression
  else if worse < -.threshold && disjoint ~up:cur.higher_better then
    Improvement
  else Pass

type check = { base : row; cur : row; verdict : verdict }

(** Gate [current] against [baseline]. [threshold metric] is the
    producing suite's tolerance for that row. A baseline for another
    suite or config is an error, not a regression. *)
let gate ~threshold ~baseline current =
  let mismatch field b r = Error (Mismatch { field; baseline = b; run = r }) in
  let value = function Some v -> number v | None -> "absent" in
  let keys =
    List.sort_uniq compare (List.map fst (baseline.config @ current.config))
  in
  let differs k =
    List.assoc_opt k baseline.config <> List.assoc_opt k current.config
  in
  if baseline.suite <> current.suite then
    mismatch "suite" baseline.suite current.suite
  else
    match List.find_opt differs keys with
    | Some k ->
        mismatch k
          (value (List.assoc_opt k baseline.config))
          (value (List.assoc_opt k current.config))
    | None ->
        Ok
          (List.filter_map
             (fun cur ->
               List.find_opt (fun b -> b.metric = cur.metric) baseline.rows
               |> Option.map (fun base ->
                      let threshold = threshold cur.metric in
                      { base; cur; verdict = verdict ~threshold ~base cur }))
             current.rows)

let failed checks = List.exists (fun c -> c.verdict = Regression) checks

(* ------------------------------------------------------------------ *)
(* The renderer.                                                       *)
(* ------------------------------------------------------------------ *)

let cell r =
  let num x =
    if Float.abs x >= 1e5 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.6g" x
  in
  match r.ci95 with
  | Some (lo, hi) -> Printf.sprintf "%s [%s, %s]" (num r.value) (num lo) (num hi)
  | None -> num r.value

let render checks =
  let t =
    Graft_util.Tablefmt.create
      ~aligns:Graft_util.Tablefmt.[| Left; Right; Right; Right; Left |]
      [| "metric"; "baseline"; "current"; "move"; "verdict" |]
  in
  List.iter
    (fun c ->
      Graft_util.Tablefmt.add_row t
        [|
          c.cur.metric; cell c.base; cell c.cur;
          Printf.sprintf "%+.1f%%"
            (100.0 *. move ~base:c.base.value ~cur:c.cur.value);
          verdict_name c.verdict;
        |])
    checks;
  Graft_util.Tablefmt.render t
