(** The closed loop over (graft, technology) pairs: the whole [tiers]
    workload, and the per-tier figures of the serve workloads.

    Each graft is loaded once per technology whose runner accepts it
    (a runner that raises [Invalid_argument] is a technology that
    cannot express the graft), then invoked in timed batches with no
    Manager and no SLO code in the way. A round runs every pair once;
    rounds repeat until the time budget is spent, and a pair's figure
    is its median ns per invocation over rounds.

    Every output is checked. Stateless grafts compare against an
    oracle that runs no tier at all (plain OCaml membership, the
    RFC 1321 digest, a header predicate). Stateful grafts (the logical
    disk, the demux counters, the hot-set LRU) compare against a
    reference tier that sees the identical call sequence in the same
    round: every tier of a graft makes the same calls on the same
    inputs, so their outputs must agree call for call. *)

open Graft_core
module Prng = Graft_util.Prng
module Netpkt = Graft_kernel.Netpkt

let now = Clock.now

type instance = {
  start : int -> unit;  (** untimed: stage round [r]'s inputs *)
  call : int -> int;  (** timed: invocation [i] of the batch, its output *)
  finish : unit -> string;  (** untimed: output left in graft memory *)
  load_mismatches : int;  (** outputs that failed a check made at load *)
  image : Phases.image;  (** the image loaded, from the same parameters *)
}

type reference =
  | Oracle of (int -> int -> int) * (int -> string)
      (** expected output of call [i] in round [r]; expected [finish] *)
  | Tier of string  (** this tier's outputs in the same round *)

type graft = {
  g_name : string;
  batch : int;  (** invocations per timed batch, the same on every tier *)
  reference : reference;
  load : Technology.t -> instance;
}

type pair = {
  graft : graft;
  tech : Technology.t;
  inst : instance;
  load_ns : int;
  mutable samples : float list;  (** ns per invocation, one per round *)
  mutable calls : int;
  mutable words : float;  (** minor words allocated by the timed batches *)
}

let tech_name p = Technology.name p.tech

(* ------------------------------------------------------------------ *)
(* Input blocks.                                                       *)
(* ------------------------------------------------------------------ *)

(* Round [r] of a graft reads block [r mod blocks] of its inputs, from
   index [block_base]. [staged] pairs a tier's cursor with the [start]
   that moves it. *)
let block_base batch ~blocks r = (r mod blocks) * batch

let staged blocks batch =
  let base = ref 0 in
  (base, fun r -> base := block_base batch ~blocks r)

let no_finish () = ""

(* ------------------------------------------------------------------ *)
(* The grafts.                                                         *)
(* ------------------------------------------------------------------ *)

(** Hot-list search (paper Table 2): [contains] over a hot list laid
    out in the graft's window. [inputs] are the probed pages; the
    oracle is membership in the hot array. At load every hot page is
    probed once too, so the present-page path is checked as well. *)
let evict ~hot ~inputs ~batch ~capacity_nodes ~layout_seed =
  let blocks = Array.length inputs / batch in
  let member p = if Array.mem p hot then 1 else 0 in
  {
    g_name = "evict";
    batch;
    reference =
      Oracle
        ( (fun r i -> member inputs.(block_base batch ~blocks r + i)),
          fun _ -> "" );
    load =
      (fun tech ->
        let e =
          Runners.evict ~rng:(Prng.create layout_seed) tech ~capacity_nodes ()
        in
        e.Runners.refresh ~hot ~lru:[||];
        let load_mismatches =
          Array.fold_left
            (fun acc p -> if e.Runners.contains p then acc else acc + 1)
            0 hot
        in
        let base, start = staged blocks batch in
        {
          start;
          call =
            (fun i -> if e.Runners.contains inputs.(!base + i) then 1 else 0);
          finish = no_finish;
          load_mismatches;
          image = Phases.evict ~capacity_nodes;
        });
  }

(** MD5 fingerprinting (paper Table 5): each round stages one of the
    seeded buffers, and each call fingerprints it; the digest left in
    graft memory must equal {!Graft_md5.Md5} of the same buffer. *)
let md5 ~bufs ~capacity ~batch =
  let expected =
    Array.map (fun b -> Graft_md5.Md5.(to_hex (digest_bytes b))) bufs
  in
  let k = Array.length bufs in
  {
    g_name = "md5";
    batch;
    reference = Oracle ((fun _ _ -> 0), fun r -> expected.(r mod k));
    load =
      (fun tech ->
        let m = Runners.md5 tech ~capacity in
        let n = ref 0 in
        {
          start =
            (fun r ->
              let b = bufs.(r mod k) in
              n := Bytes.length b;
              m.Runners.load b);
          call =
            (fun _ ->
              m.Runners.compute !n;
              0);
          finish = m.Runners.digest_hex;
          load_mismatches = 0;
          image = Phases.md5 ~capacity;
        });
  }

(** Logical-disk mapped writes (paper Table 6), against the GEL
    reference interpreter. *)
let logdisk ~nblocks ~inputs ~batch =
  let blocks = Array.length inputs / batch in
  {
    g_name = "logdisk";
    batch;
    reference = Tier "ast-interp";
    load =
      (fun tech ->
        let p = Runners.logdisk_policy tech ~nblocks in
        let base, start = staged blocks batch in
        {
          start;
          call =
            (fun i -> p.Graft_kernel.Logdisk.map_write inputs.(!base + i));
          finish = no_finish;
          load_mismatches = 0;
          image = Phases.logdisk ~nblocks;
        });
  }

(** The "ip and udp and dst port" filter, against a plain OCaml
    predicate over the parsed header. *)
let pf ~port ~pkts ~batch =
  let blocks = Array.length pkts / batch in
  let protocol = Netpkt.proto_udp in
  let accepts p =
    Netpkt.length p >= Netpkt.header_bytes
    && Netpkt.ethertype p = Netpkt.ethertype_ip
    && Netpkt.protocol p = protocol
    && Netpkt.dst_port p = port
  in
  {
    g_name = "pf";
    batch;
    reference =
      Oracle
        ( (fun r i ->
            if accepts pkts.(block_base batch ~blocks r + i) then 1 else 0),
          fun _ -> "" );
    load =
      (fun tech ->
        let f = Runners.packet_filter tech ~protocol ~port in
        let base, start = staged blocks batch in
        {
          start;
          call = (fun i -> if f pkts.(!base + i) then 1 else 0);
          finish = no_finish;
          load_mismatches = 0;
          image = Phases.pf ~protocol ~port;
        });
  }

(** Stateful connection demux over a graft map, against the filter VM
    fed the same packet sequence. *)
let demux ~pkts ~batch =
  let blocks = Array.length pkts / batch in
  {
    g_name = "demux";
    batch;
    reference = Tier "pf-vm";
    load =
      (fun tech ->
        let protocol = Netpkt.proto_udp and marker = 0x7F in
        let d = Runners.demux tech ~protocol ~marker in
        let base, start = staged blocks batch in
        {
          start;
          call = (fun i -> d.Runners.demux pkts.(!base + i));
          finish = no_finish;
          load_mismatches = 0;
          image = Phases.demux ~protocol ~marker ~conn:d.Runners.d_conn;
        });
  }

(** Hot-set touches through an LRU graft map, against the GEL
    reference interpreter. *)
let hotset ~capacity ~inputs ~batch =
  let blocks = Array.length inputs / batch in
  {
    g_name = "hotset";
    batch;
    reference = Tier "ast-interp";
    load =
      (fun tech ->
        let h = Runners.hotset tech ~capacity in
        let base, start = staged blocks batch in
        {
          start;
          call = (fun i -> h.Runners.touch inputs.(!base + i));
          finish = no_finish;
          load_mismatches = 0;
          image = Phases.hotset ~capacity;
        });
  }

(* ------------------------------------------------------------------ *)
(* The graft table.                                                    *)
(* ------------------------------------------------------------------ *)

let distinct_pages rng ~n ~bound =
  let seen = Hashtbl.create n in
  let rec draw () =
    let p = Prng.int rng bound in
    if Hashtbl.mem seen p then draw ()
    else (
      Hashtbl.add seen p ();
      p)
  in
  Array.init n (fun _ -> draw ())

let absent_pages rng ~n ~bound ~hot =
  let rec draw () =
    let p = Prng.int rng bound in
    if Array.mem p hot then draw () else p
  in
  Array.init n (fun _ -> draw ())

(* Every graft draws from its own generator, split in a fixed order, so
   a graft's inputs depend on the seed alone. *)
let streams seed n =
  let master = Prng.create (Int64.of_int seed) in
  Array.init n (fun _ -> Prng.split master)

(** The paper's graft operations at the paper's sizes. *)
let tiers_grafts ~seed =
  let s = streams seed 6 in
  let hot = distinct_pages s.(0) ~n:64 ~bound:1_000_000 in
  let demux_pkts =
    let a =
      Array.append
        (Netpkt.random_sized_traffic s.(4) ~count:192
           ~protocol:Netpkt.proto_udp ~port:4000)
        (Netpkt.random_traffic s.(4) ~count:64)
    in
    Prng.shuffle s.(4) a;
    a
  in
  [
    evict ~hot ~batch:64 ~capacity_nodes:128
      ~inputs:(absent_pages s.(0) ~n:256 ~bound:1_000_000 ~hot)
      ~layout_seed:(Prng.next s.(0));
    md5 ~capacity:4096 ~batch:1
      ~bufs:(Array.init 4 (fun _ -> Prng.bytes s.(1) 4096));
    logdisk ~nblocks:4096 ~batch:256
      ~inputs:(Array.init 1024 (fun _ -> Prng.int s.(2) 4096));
    pf ~port:53 ~batch:256
      ~pkts:(Netpkt.random_traffic s.(3) ~count:1024);
    demux ~batch:256 ~pkts:demux_pkts;
    hotset ~capacity:64 ~batch:256
      ~inputs:(Array.init 1024 (fun _ -> Prng.int s.(5) 256));
  ]

(* ------------------------------------------------------------------ *)
(* Loading and the timed loop.                                         *)
(* ------------------------------------------------------------------ *)

(** Load every graft on every technology in [techs] that accepts it,
    reference tier first within each graft. *)
let load ?(techs = Technology.all) grafts =
  List.concat_map
    (fun g ->
      let loaded =
        List.filter_map
          (fun tech ->
            let t0 = now () in
            match g.load tech with
            | inst ->
                Some
                  {
                    graft = g;
                    tech;
                    inst;
                    load_ns = now () - t0;
                    samples = [];
                    calls = 0;
                    words = 0.0;
                  }
            | exception Invalid_argument _ -> None)
          techs
      in
      match g.reference with
      | Oracle _ -> loaded
      | Tier name -> (
          match List.partition (fun p -> tech_name p = name) loaded with
          | [ r ], rest -> r :: rest
          | _ ->
              failwith
                (Printf.sprintf "graft %s: reference tier %s did not load"
                   g.g_name name)))
    grafts

type outcome = { rounds : int; attempted : int; mismatches : int }

(** Outputs that failed the checks made while loading [pairs]. *)
let load_mismatches pairs =
  List.fold_left (fun acc p -> acc + p.inst.load_mismatches) 0 pairs

(** Run rounds over [pairs] until [budget_ns] has elapsed and at least
    [min_rounds] are done. Each batch starts from a collected heap, so
    no pair pays for another's garbage (the script interpreter
    allocates megawords per MD5 call). *)
let run ~budget_ns ~min_rounds pairs =
  let maxb = List.fold_left (fun m p -> max m p.graft.batch) 1 pairs in
  let outs = Array.make maxb 0 in
  let refs : (string, int array * string ref) Hashtbl.t = Hashtbl.create 8 in
  let mismatches = ref 0 in
  let attempted = ref 0 in
  let t_start = now () in
  let rounds = ref 0 in
  while !rounds < min_rounds || now () - t_start < budget_ns do
    let r = !rounds in
    List.iter
      (fun p ->
        let g = p.graft and inst = p.inst in
        let b = g.batch in
        inst.start r;
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let t0 = now () in
        for i = 0 to b - 1 do
          Array.unsafe_set outs i (inst.call i)
        done;
        let dt = now () - t0 in
        p.words <- p.words +. (Gc.minor_words () -. w0);
        p.samples <- (float_of_int dt /. float_of_int b) :: p.samples;
        p.calls <- p.calls + b;
        attempted := !attempted + b;
        let fin = inst.finish () in
        let bad = ref 0 in
        (match g.reference with
        | Oracle (expect, expect_fin) ->
            for i = 0 to b - 1 do
              if outs.(i) <> expect r i then incr bad
            done;
            if fin <> expect_fin r then bad := b
        | Tier name when tech_name p = name ->
            Hashtbl.replace refs g.g_name (Array.sub outs 0 b, ref fin)
        | Tier _ ->
            let ro, rfin = Hashtbl.find refs g.g_name in
            for i = 0 to b - 1 do
              if outs.(i) <> ro.(i) then incr bad
            done;
            if fin <> !rfin then bad := b);
        mismatches := !mismatches + !bad)
      pairs;
    incr rounds
  done;
  { rounds = !rounds; attempted = !attempted; mismatches = !mismatches }

(* ------------------------------------------------------------------ *)
(* Figures.                                                            *)
(* ------------------------------------------------------------------ *)

let median_ns p = Graft_util.Stats.median (Array.of_list p.samples)

(** Geometric mean over the pairs satisfying [keep] of their median ns
    per invocation; [None] when no pair qualifies. *)
let geomean_ns ?(keep = fun _ -> true) pairs =
  match List.filter keep pairs with
  | [] -> None
  | ps -> Some (Graft_util.Stats.geomean (Array.of_list (List.map median_ns ps)))

let words_per_op p = if p.calls = 0 then 0.0 else p.words /. float_of_int p.calls
