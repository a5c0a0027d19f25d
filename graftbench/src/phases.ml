(** Load phases of one graft image, timed by calling each phase's
    public entry point in the order the tier's loader does: the
    frontend ({!Graft_core.Runners.gel_env} — parse, typecheck, link —
    plus the tier's bytecode compiler), the analysis
    ({!Graft_analysis}), the load-time verifier, and the JIT's block
    planning and closure compilation.

    Tiers whose pipeline is not named here (the optimizing bytecode
    tier) contribute their frontend only; their whole load still counts
    in [setup.load_ms]. Native regimes and the script interpreter load
    no image, and the filter VM runs its verifier only. *)

open Graft_core
module Graftmap = Graft_kernel.Graftmap

type image = {
  source : string;
  windows : (string * int * bool) list;
  maps : unit -> Graftmap.t array;  (** fresh maps, as each runner makes *)
  bounded : bool;
  on_regvm : bool;  (** the SFI tiers load this graft on the register VM *)
  filter : (unit -> (unit, string) result) option;
      (** the filter-VM form of the graft, verified *)
}

type times = { frontend : int; analysis : int; verify : int; jit : int }

let zero = { frontend = 0; analysis = 0; verify = 0; jit = 0 }

let add a b =
  {
    frontend = a.frontend + b.frontend;
    analysis = a.analysis + b.analysis;
    verify = a.verify + b.verify;
    jit = a.jit + b.jit;
  }

let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () - t0)

exception Rejected of string

let ok = function Ok x -> x | Error msg -> raise (Rejected msg)

let metas maps =
  Array.map
    (fun m ->
      {
        Graft_analysis.Helpers.mm_array = Graftmap.is_array m;
        mm_max = Graftmap.max_entries m;
      })
    maps

(* The stack tiers every graft loads on; the SFI tiers only when the
   graft runs on the register VM. *)
let loads_image img (tech : Technology.t) =
  match tech with
  | Ast_interp | Bytecode_vm | Safe_lang_static | Jit -> true
  | Sfi_write_jump | Sfi_full -> img.on_regvm
  | Unsafe_c | Upcall_server | Safe_lang | Safe_lang_nil | Source_interp
  | Specialized_vm ->
      false
  | _ -> true

(** Time the load phases of [img] on [tech]. Raises [Rejected] if a
    phase refuses the image. *)
let measure img (tech : Technology.t) =
  if tech = Technology.Specialized_vm then
    match img.filter with
    | None -> zero
    | Some verify ->
        let (), v = timed (fun () -> ok (verify ())) in
        { zero with verify = v }
  else if not (loads_image img tech) then zero
  else
    let maps = img.maps () in
    let hosts =
      List.map
        (fun (hname, hfn) -> { Graft_gel.Link.hname; hfn })
        (Graftmap.hosts maps)
    in
    let env, front = timed (fun () -> Runners.gel_env ~hosts img.source img.windows) in
    let image = env.Runners.image in
    let prog = image.Graft_gel.Link.prog in
    let (), externs =
      timed (fun () -> ok (Graft_analysis.Helpers.check_externs prog))
    in
    let bound () =
      timed (fun () ->
          if img.bounded then ok (Graft_analysis.Loopbound.check_image image))
    in
    let stack ?facts () =
      let p, c =
        timed (fun () ->
            Graft_stackvm.Compile.compile ?facts ~maps ~bounds:img.bounded image)
      in
      let (), v =
        timed (fun () -> ok (Graft_stackvm.Verify.verify ~bounded:img.bounded p))
      in
      (p, c, v)
    in
    match tech with
    | Ast_interp ->
        let (), b = bound () in
        { zero with frontend = front; analysis = externs + b }
    | Bytecode_vm ->
        let _, c, v = stack () in
        { zero with frontend = front + c; analysis = externs; verify = v }
    | Safe_lang_static | Jit ->
        let facts, a =
          timed (fun () ->
              Graft_analysis.Analyze.facts_for_image ~maps:(metas maps) prog
                ~arr_len:image.Graft_gel.Link.arr_len
                ~arr_writable:image.Graft_gel.Link.arr_writable)
        in
        let p, c, v = stack ~facts () in
        let j =
          if tech = Technology.Jit then
            snd
              (timed (fun () ->
                   let plan = Graft_jit.Jit.build_plan p in
                   ignore (Graft_jit.Jit.create_session { Graft_jit.Jit.plan })))
          else 0
        in
        { frontend = front + c; analysis = externs + a; verify = v; jit = j }
    | Sfi_write_jump | Sfi_full ->
        let (), b = bound () in
        let protection =
          if tech = Technology.Sfi_full then Graft_regvm.Program.Full
          else Graft_regvm.Program.Write_jump
        in
        let p, c =
          timed (fun () ->
              Graft_regvm.Sfi.instrument ~protection
                (Graft_regvm.Compile.compile image
                   ~segment:
                     (Graft_regvm.Sfi.segment_of_memory image.Graft_gel.Link.mem)))
        in
        let (), v =
          timed (fun () -> ok (Graft_regvm.Verify.verify ~bounded:img.bounded p))
        in
        { zero with frontend = front + c; analysis = externs + b; verify = v }
    | _ -> { zero with frontend = front }

(* ------------------------------------------------------------------ *)
(* The images behind the benchmark's runners.                          *)
(* ------------------------------------------------------------------ *)

module Src = Graft_grafts.Gel_sources
module Netpkt = Graft_kernel.Netpkt

let pkt_window = Runners.pkt_window_cells
let no_maps () = [||]

let plain source windows =
  { source; windows; maps = no_maps; bounded = false; on_regvm = false; filter = None }

let evict ~capacity_nodes =
  let cells = Runners.evict_cells capacity_nodes in
  plain (Src.evict ~heap_cells:cells) [ ("heap", cells, false) ]

let md5 ~capacity =
  let data_cells = capacity + 128 in
  plain (Src.md5 ~data_cells) [ ("data", data_cells, true); ("digest", 16, true) ]

let logdisk ~nblocks = plain (Src.logdisk ~nblocks) []

let pf ~protocol ~port =
  {
    (plain
       (Src.packet_filter ~window_cells:pkt_window ~protocol ~port)
       [ ("pkt", pkt_window, false) ])
    with
    filter =
      Some (fun () -> Graft_kernel.Pfvm.verify (Graft_kernel.Pfvm.proto_dst_port ~protocol ~port));
  }

(** [conn] is the runner's connection map; the image gets a fresh one
    of the same size. *)
let demux ~protocol ~marker ~conn =
  let entries = Graftmap.max_entries conn in
  {
    source = Src.demux ~window_cells:pkt_window ~protocol ~marker;
    windows = [ ("pkt", pkt_window, false) ];
    maps = (fun () -> [| Graftmap.create_array ~name:"conn" entries |]);
    bounded = true;
    on_regvm = true;
    filter =
      Some
        (fun () ->
          Graft_kernel.Pfvm.verify ~nmaps:2
            (Graft_kernel.Pfvm.demux_conn ~protocol ~marker));
  }

let hotset ~capacity =
  {
    source = Src.hotset;
    windows = [];
    maps = (fun () -> [| Graftmap.create_lru ~name:"hotset" capacity |]);
    bounded = true;
    on_regvm = true;
    filter = None;
  }

(** The images behind serve's graft classes, from one tenant's
    runners where they expose their parameters: the stream capacity is
    {!Graft_slo.Serve.md5_capacity} and the map sizes are read off the
    runners' own maps. The runners expose neither the evict size nor
    the demux protocol and marker, so those repeat Serve.make_tenant's
    constants (128 nodes, UDP, 0x7F). *)
let serve_image (t : Graft_slo.Serve.tenant) = function
  | "demux" ->
      demux ~protocol:Netpkt.proto_udp ~marker:0x7F ~conn:t.demux_r.Runners.d_conn
  | "hotset" -> hotset ~capacity:(Graftmap.max_entries t.hotset_r.Runners.h_map)
  | "stream" -> md5 ~capacity:Graft_slo.Serve.md5_capacity
  | "evict" -> evict ~capacity_nodes:128
  | c -> invalid_arg ("Phases.serve_image: " ^ c)
