(** Per-technology runners for the three paper grafts.

    A runner packages "the same graft, written for technology T" behind
    a uniform closure interface, so the benchmark harness and the graft
    manager treat all technologies identically:

    - native regimes (C / Modula-3 / SFI analogues) close over the
      functor instances from {!Graft_grafts};
    - VM technologies compile the GEL source from
      {!Graft_grafts.Gel_sources} once and enter it per call;
    - the source interpreter evaluates the Tcl source from
      {!Graft_grafts.Script_sources} once and invokes its procs per
      call.

    [Upcall_server] is not a wall-clock runner — its cost is a
    protection-boundary charge analysed by {!Breakeven} and simulated
    by {!Graft_kernel.Upcall}; asking for a runner raises
    [Invalid_argument]. *)

open Graft_mem
open Graft_gel
open Graft_grafts

let huge_fuel = max_int / 2

let rec next_pow2_from n acc = if acc >= n then acc else next_pow2_from n (acc * 2)
let next_pow2 n = next_pow2_from n 1024

let run_fail = function
  | Ok v -> v
  | Error (`Fault f) ->
      failwith (Printf.sprintf "graft faulted: %s" (Fault.to_string f))
  | Error (`Bad_entry m) -> failwith ("bad graft entry point: " ^ m)

let script_fail = function
  | Ok v -> v
  | Error f ->
      failwith (Printf.sprintf "script graft faulted: %s" (Fault.to_string f))

(* ------------------------------------------------------------------ *)
(* Shared GEL plumbing.                                                *)
(* ------------------------------------------------------------------ *)

type gel_env = { image : Link.image; windows : (string * Memory.region) list }

(** Compile [source] and link it into a fresh power-of-two memory with
    the given shared windows (name, length, writable). [hosts] resolves extern declarations (e.g. the graft-map helper
    dispatchers from {!Graft_kernel.Graftmap.hosts}). *)
let gel_env ?(hosts = []) source windows =
  let prog =
    match Gel.compile source with
    | Ok p -> p
    | Error e -> failwith ("GEL graft does not compile: " ^ Srcloc.to_string e)
  in
  let window_cells =
    List.fold_left (fun acc (_, len, _) -> acc + len) 0 windows
  in
  let size = next_pow2 (Link.footprint prog + window_cells + 64) in
  let mem = Memory.create size in
  let regions =
    List.map
      (fun (name, len, writable) ->
        let perm = if writable then Memory.perm_rw else Memory.perm_ro in
        (name, Memory.alloc mem ~name ~len ~perm))
      windows
  in
  match Link.link prog ~mem ~shared:regions ~hosts with
  | Ok image -> { image; windows = regions }
  | Error msg -> failwith ("GEL graft does not link: " ^ msg)

let window env name =
  match List.assoc_opt name env.windows with
  | Some r -> r
  | None -> invalid_arg ("no GEL window " ^ name)

type gel_entry = entry:string -> args:int array -> int

(** An entry-point invoker for the given VM technology over a linked
    image. Loading (compile + verify) happens once, here. [maps] lets
    the stack tiers lower typed-helper calls to map opcodes; [bounded]
    makes every tier's verifier demand a loop-bound certificate for
    each backward jump (the reference interpreter gates on the IR-level
    {!Graft_analysis.Loopbound} check at construction). *)
let gel_entry ?maps ?(bounded = false) (tech : Technology.t) (env : gel_env) :
    gel_entry =
  match tech with
  | Technology.Ast_interp ->
      (* No bytecode verifier on this tier: the gate is the same typed
         helper table plus the IR-level bound derivation the bytecode
         verifiers re-check at machine level. *)
      (match Graft_analysis.Helpers.check_externs env.image.Link.prog with
      | Ok () -> ()
      | Error msg -> failwith ("GEL graft rejected: " ^ msg));
      if bounded then (
        match Graft_analysis.Loopbound.check_image env.image with
        | Ok () -> ()
        | Error msg -> failwith ("GEL graft rejected: " ^ msg));
      fun ~entry ~args ->
        run_fail (Interp.run env.image ~entry ~args ~fuel:huge_fuel)
  | Technology.Bytecode_vm ->
      let p = Graft_stackvm.Stackvm.load_exn ?maps ~bounded env.image in
      let session = Graft_stackvm.Vm.create_session p in
      fun ~entry ~args ->
        run_fail
          (Graft_stackvm.Vm.run_session session ~entry ~args ~fuel:huge_fuel)
  | Technology.Safe_lang_static ->
      let p = Graft_stackvm.Stackvm.load_static_exn ?maps ~bounded env.image in
      let session = Graft_stackvm.Vm.create_session p in
      fun ~entry ~args ->
        run_fail
          (Graft_stackvm.Vm.run_session session ~entry ~args ~fuel:huge_fuel)
  | Technology.Jit ->
      (* Graftjit: static-tier elisions, then closure-threaded native
         compilation; the session compiles once, entries are cheap. *)
      let t = Graft_jit.Jit.load_exn ?maps ~bounded env.image in
      let session = Graft_jit.Jit.create_session t in
      fun ~entry ~args ->
        run_fail
          (Graft_jit.Jit.run_session session ~entry ~args ~fuel:huge_fuel)
  | Technology.Sfi_write_jump | Technology.Sfi_full ->
      (* The register-VM route, used for the A4 instruction-count
         ablation; headline SFI numbers come from the native masked
         regimes. Maps reach this tier as linked host calls, so [maps]
         is unused here; [bounded] arms the machine-level window check. *)
      let protection =
        if tech = Technology.Sfi_full then Graft_regvm.Program.Full
        else Graft_regvm.Program.Write_jump
      in
      let p = Graft_regvm.Regvm.load_exn ~protection ~bounded env.image in
      let session = Graft_regvm.Machine.create_session p in
      fun ~entry ~args ->
        (run_fail
           (Graft_regvm.Machine.run_session session ~entry ~args
              ~fuel:huge_fuel))
          .Graft_regvm.Machine.value
  | t ->
      invalid_arg
        ("Runners.gel_entry: not a VM technology: " ^ Technology.name t)

(* ------------------------------------------------------------------ *)
(* Page eviction.                                                      *)
(* ------------------------------------------------------------------ *)

type evict = {
  e_tech : Technology.t;
  refresh : hot:int array -> lru:int array -> unit;
      (** lay the application hot list and kernel LRU chain into the
          graft's shared window *)
  contains : int -> bool;  (** hot-list membership — the timed op *)
  choose : unit -> int;  (** full victim selection over the LRU chain *)
}

(** Cells needed for [capacity_nodes] list nodes. *)
let evict_cells capacity_nodes = 1 + (2 * capacity_nodes)

let check_capacity capacity_nodes ~hot ~lru =
  if Array.length hot + Array.length lru > capacity_nodes then
    invalid_arg "Runners.evict: refresh exceeds runner capacity"

(* Shared refresh logic: build a fresh layout and install it via
   [install] (a blit for window-backed runners). *)
let make_refresh ~capacity_nodes ~rng ~install ~set_heads ~hot ~lru =
  check_capacity capacity_nodes ~hot ~lru;
  let layout =
    Listlayout.build ?rng ~cells_len:(evict_cells capacity_nodes) ~hot ~lru ()
  in
  install layout.Listlayout.cells;
  set_heads layout.Listlayout.hot_head layout.Listlayout.lru_head

let native_evict (module A : Access.S) tech ~capacity_nodes ~rng =
  let module E = Evict.Make (A) in
  (* SFI regimes mask into the container, so its length must be a
     power of two. *)
  let cells = Array.make (next_pow2 (evict_cells capacity_nodes)) 0 in
  let hot_head = ref 0 and lru_head = ref 0 in
  {
    e_tech = tech;
    refresh =
      (fun ~hot ~lru ->
        make_refresh ~capacity_nodes ~rng
          ~install:(fun src -> Array.blit src 0 cells 0 (Array.length src))
          ~set_heads:(fun h l ->
            hot_head := h;
            lru_head := l)
          ~hot ~lru);
    contains = (fun page -> E.contains cells ~head:!hot_head ~page);
    choose =
      (fun () -> E.choose_victim cells ~lru_head:!lru_head ~hot_head:!hot_head);
  }

let gel_evict tech ~capacity_nodes ~rng =
  let cells_len = evict_cells capacity_nodes in
  let env =
    gel_env (Gel_sources.evict ~heap_cells:cells_len)
      [ ("heap", cells_len, false) ]
  in
  let w = window env "heap" in
  let mem_cells = Memory.cells env.image.Link.mem in
  let hot_head = ref 0 and lru_head = ref 0 in
  let entry = gel_entry tech env in
  {
    e_tech = tech;
    refresh =
      (fun ~hot ~lru ->
        make_refresh ~capacity_nodes ~rng
          ~install:(fun src ->
            Array.blit src 0 mem_cells w.Memory.base (Array.length src))
          ~set_heads:(fun h l ->
            hot_head := h;
            lru_head := l)
          ~hot ~lru);
    contains =
      (fun page -> entry ~entry:"contains" ~args:[| !hot_head; page |] <> 0);
    choose =
      (fun () -> entry ~entry:"choose" ~args:[| !lru_head; !hot_head |]);
  }

let script_evict ~capacity_nodes ~rng =
  let cells_len = evict_cells capacity_nodes in
  let mem = Memory.create (cells_len + 8) in
  let w = Memory.alloc mem ~name:"heap" ~len:cells_len ~perm:Memory.perm_ro in
  let t = Graft_script.Script.create ~fuel:huge_fuel mem in
  Graft_script.Script.bind_array t ~name:"heap" w ~writable:false;
  ignore (script_fail (Graft_script.Script.eval t Script_sources.evict));
  let mem_cells = Memory.cells mem in
  let hot_head = ref 0 and lru_head = ref 0 in
  let call name args =
    int_of_string (script_fail (Graft_script.Script.call t name args))
  in
  {
    e_tech = Technology.Source_interp;
    refresh =
      (fun ~hot ~lru ->
        make_refresh ~capacity_nodes ~rng
          ~install:(fun src ->
            Array.blit src 0 mem_cells w.Memory.base (Array.length src))
          ~set_heads:(fun h l ->
            hot_head := h;
            lru_head := l)
          ~hot ~lru);
    contains =
      (fun page ->
        call "contains" [ string_of_int !hot_head; string_of_int page ] <> 0);
    choose =
      (fun () ->
        call "choose" [ string_of_int !lru_head; string_of_int !hot_head ]);
  }

(** [evict tech ~capacity_nodes ()] builds a runner able to hold up to
    [capacity_nodes] list nodes; call [refresh] to install lists.
    [rng] shuffles node placement so traversal is a pointer chase. *)
let evict ?rng (tech : Technology.t) ~capacity_nodes () : evict =
  match tech with
  | Technology.Unsafe_c ->
      native_evict (module Access.Unsafe) tech ~capacity_nodes ~rng
  | Technology.Safe_lang ->
      native_evict (module Access.Checked) tech ~capacity_nodes ~rng
  | Technology.Safe_lang_nil ->
      native_evict (module Access.Checked_nil) tech ~capacity_nodes ~rng
  | Technology.Sfi_write_jump ->
      native_evict (module Access.Sfi_wj) tech ~capacity_nodes ~rng
  | Technology.Sfi_full ->
      native_evict (module Access.Sfi_full) tech ~capacity_nodes ~rng
  | Technology.Bytecode_vm | Technology.Safe_lang_static | Technology.Jit
  | Technology.Ast_interp ->
      gel_evict tech ~capacity_nodes ~rng
  | Technology.Source_interp -> script_evict ~capacity_nodes ~rng
  | Technology.Upcall_server ->
      invalid_arg "Runners.evict: upcall cost is analysed by Breakeven"
  | Technology.Specialized_vm ->
      invalid_arg
        "Runners.evict: a packet-filter VM cannot express list traversal \
         (the paper's specialized-language expressiveness limit)"

(** The register-VM variant of the eviction graft, for the A4 ablation
    (instruction counts with and without sandboxing; [~elide:true] adds
    the verified mask-elision rows). Returns a function from candidate
    page to (membership, instruction count). *)
let evict_regvm ?rng ?elide ~protection ~capacity_nodes () =
  let cells_len = evict_cells capacity_nodes in
  let env =
    gel_env (Gel_sources.evict ~heap_cells:cells_len)
      [ ("heap", cells_len, false) ]
  in
  let w = window env "heap" in
  let mem_cells = Memory.cells env.image.Link.mem in
  let hot_head = ref 0 and lru_head = ref 0 in
  ignore !lru_head;
  let p = Graft_regvm.Regvm.load_exn ~protection ?elide env.image in
  let session = Graft_regvm.Machine.create_session p in
  let refresh ~hot ~lru =
    make_refresh ~capacity_nodes ~rng
      ~install:(fun src ->
        Array.blit src 0 mem_cells w.Memory.base (Array.length src))
      ~set_heads:(fun h l ->
        hot_head := h;
        lru_head := l)
      ~hot ~lru
  in
  let contains page =
    let o =
      run_fail
        (Graft_regvm.Machine.run_session session ~entry:"contains"
           ~args:[| !hot_head; page |] ~fuel:huge_fuel)
    in
    (o.Graft_regvm.Machine.value <> 0, o.Graft_regvm.Machine.instructions)
  in
  (refresh, contains)

(** The hardware-protection path: the eviction graft lives in a
    user-level server. The handler itself is the native unsafe graft
    (user-level code needs no checks — that is the model's appeal); the
    kernel pays a simulated upcall per invocation, charged to the
    domain's clock, plus marshalling for the exported lists. Wall-clock
    measurements of this runner capture only the native handler; the
    boundary cost lives on the simulated clock, which is how Figure 1
    combines them. *)
let evict_upcall ?rng ~(domain : Graft_kernel.Upcall.domain) ~capacity_nodes ()
    : evict =
  let inner = native_evict (module Access.Unsafe) Technology.Upcall_server ~capacity_nodes ~rng in
  let last_words = ref 0 in
  {
    e_tech = Technology.Upcall_server;
    refresh =
      (fun ~hot ~lru ->
        (* The kernel must copy both lists into the server's space. *)
        last_words := 2 * (Array.length hot + Array.length lru);
        inner.refresh ~hot ~lru);
    contains =
      (fun page ->
        Graft_kernel.Upcall.upcall domain ~extra_words:!last_words
          (fun args -> if inner.contains args.(0) then 1 else 0)
          [| page |]
        <> 0);
    choose =
      (fun () ->
        Graft_kernel.Upcall.upcall domain ~extra_words:!last_words
          (fun _ -> inner.choose ())
          [||]);
  }

(* ------------------------------------------------------------------ *)
(* MD5 fingerprinting.                                                 *)
(* ------------------------------------------------------------------ *)

type md5 = {
  m_tech : Technology.t;
  load : bytes -> unit;  (** kernel-side copy into the graft's space *)
  compute : int -> unit;  (** fingerprint the first n bytes — timed *)
  digest_hex : unit -> string;
}

let native_md5 (module A : Access.S) tech ~capacity =
  let module M = Md5_graft.Make (A) in
  let buf = Bytes.create capacity in
  let last = ref "" in
  {
    m_tech = tech;
    load = (fun data -> Bytes.blit data 0 buf 0 (Bytes.length data));
    compute = (fun n -> last := M.digest ~len:n buf);
    digest_hex = (fun () -> Graft_md5.Md5.to_hex !last);
  }

let digest_hex_of_cells cells base =
  let buf = Buffer.create 32 in
  for i = 0 to 15 do
    Buffer.add_string buf (Printf.sprintf "%02x" (cells.(base + i) land 0xFF))
  done;
  Buffer.contents buf

let load_bytes_into_cells cells base data =
  for i = 0 to Bytes.length data - 1 do
    cells.(base + i) <- Char.code (Bytes.unsafe_get data i)
  done

let gel_md5 tech ~capacity =
  let data_cells = capacity + 128 in
  let env =
    gel_env (Gel_sources.md5 ~data_cells)
      [ ("data", data_cells, true); ("digest", 16, true) ]
  in
  let data_w = window env "data" in
  let digest_w = window env "digest" in
  let cells = Memory.cells env.image.Link.mem in
  let entry = gel_entry tech env in
  {
    m_tech = tech;
    load = (fun data -> load_bytes_into_cells cells data_w.Memory.base data);
    compute = (fun n -> ignore (entry ~entry:"run" ~args:[| n |]));
    digest_hex = (fun () -> digest_hex_of_cells cells digest_w.Memory.base);
  }

let script_md5 ~capacity =
  let data_cells = capacity + 128 in
  let mem = Memory.create (data_cells + 192) in
  let data_w =
    Memory.alloc mem ~name:"data" ~len:data_cells ~perm:Memory.perm_rw
  in
  let digest_w = Memory.alloc mem ~name:"digest" ~len:16 ~perm:Memory.perm_rw in
  let t_w = Memory.alloc mem ~name:"t" ~len:64 ~perm:Memory.perm_ro in
  let s_w = Memory.alloc mem ~name:"s" ~len:64 ~perm:Memory.perm_ro in
  let x_w = Memory.alloc mem ~name:"x" ~len:16 ~perm:Memory.perm_rw in
  Memory.blit_in mem t_w Md5_graft.t_table;
  Memory.blit_in mem s_w Md5_graft.s_table;
  let t = Graft_script.Script.create ~fuel:huge_fuel mem in
  Graft_script.Script.bind_array t ~name:"data" data_w ~writable:true;
  Graft_script.Script.bind_array t ~name:"digest" digest_w ~writable:true;
  Graft_script.Script.bind_array t ~name:"t" t_w ~writable:false;
  Graft_script.Script.bind_array t ~name:"s" s_w ~writable:false;
  Graft_script.Script.bind_array t ~name:"x" x_w ~writable:true;
  ignore (script_fail (Graft_script.Script.eval t Script_sources.md5));
  let cells = Memory.cells mem in
  {
    m_tech = Technology.Source_interp;
    load = (fun data -> load_bytes_into_cells cells data_w.Memory.base data);
    compute =
      (fun n ->
        ignore
          (script_fail
             (Graft_script.Script.call t "md5run" [ string_of_int n ])));
    digest_hex = (fun () -> digest_hex_of_cells cells digest_w.Memory.base);
  }

(** [md5 tech ~capacity] builds a fingerprinting runner over a buffer
    of [capacity] bytes (a power of two for the SFI regimes). *)
let md5 (tech : Technology.t) ~capacity : md5 =
  match tech with
  | Technology.Unsafe_c -> native_md5 (module Access.Unsafe) tech ~capacity
  | Technology.Safe_lang -> native_md5 (module Access.Checked) tech ~capacity
  | Technology.Safe_lang_nil ->
      native_md5 (module Access.Checked_nil) tech ~capacity
  | Technology.Sfi_write_jump ->
      native_md5 (module Access.Sfi_wj) tech ~capacity
  | Technology.Sfi_full -> native_md5 (module Access.Sfi_full) tech ~capacity
  | Technology.Bytecode_vm | Technology.Safe_lang_static | Technology.Jit
  | Technology.Ast_interp ->
      gel_md5 tech ~capacity
  | Technology.Source_interp -> script_md5 ~capacity
  | Technology.Upcall_server ->
      invalid_arg "Runners.md5: upcall cost is analysed by Breakeven"
  | Technology.Specialized_vm ->
      invalid_arg
        "Runners.md5: a packet-filter VM has no loops or stores and cannot \
         express MD5"

(* ------------------------------------------------------------------ *)
(* Logical disk.                                                       *)
(* ------------------------------------------------------------------ *)

let native_logdisk (module A : Access.S) ~nblocks =
  let module L = Logdisk_graft.Make (A) in
  L.make_policy ~nblocks ()

let gel_logdisk tech ~nblocks =
  let env = gel_env (Gel_sources.logdisk ~nblocks) [] in
  let entry = gel_entry tech env in
  {
    Graft_kernel.Logdisk.pname = Technology.name tech;
    map_write = (fun logical -> entry ~entry:"map_write" ~args:[| logical |]);
    lookup = (fun logical -> entry ~entry:"lookup" ~args:[| logical |]);
  }

(** Dynamic instruction count of [writes] logical-disk mapped writes
    on the register VM at the given protection level (ablation A4's
    store-heavy case). *)
let logdisk_regvm_instructions ?elide ~protection ~nblocks ~writes () =
  let env = gel_env (Gel_sources.logdisk ~nblocks) [] in
  let p = Graft_regvm.Regvm.load_exn ~protection ?elide env.image in
  let session = Graft_regvm.Machine.create_session p in
  let total = ref 0 in
  (* First call triggers the graft's lazy map initialization; exclude
     it so the counts reflect steady-state writes. *)
  ignore
    (run_fail
       (Graft_regvm.Machine.run_session session ~entry:"map_write"
          ~args:[| 0 |] ~fuel:huge_fuel));
  for i = 1 to writes do
    let o =
      run_fail
        (Graft_regvm.Machine.run_session session ~entry:"map_write"
           ~args:[| i mod nblocks |] ~fuel:huge_fuel)
    in
    total := !total + o.Graft_regvm.Machine.instructions
  done;
  !total

let script_logdisk ~nblocks =
  let mem = Memory.create (nblocks + 8) in
  let map_w = Memory.alloc mem ~name:"map" ~len:nblocks ~perm:Memory.perm_rw in
  Memory.fill mem map_w (-1);
  let t = Graft_script.Script.create ~fuel:huge_fuel mem in
  Graft_script.Script.bind_array t ~name:"map" map_w ~writable:true;
  Graft_script.Script.define_variable t "nblocks" (string_of_int nblocks);
  Graft_script.Script.define_variable t "next_free" "0";
  ignore (script_fail (Graft_script.Script.eval t Script_sources.logdisk));
  let call name args =
    int_of_string (script_fail (Graft_script.Script.call t name args))
  in
  {
    Graft_kernel.Logdisk.pname = Technology.name Technology.Source_interp;
    map_write = (fun logical -> call "map_write" [ string_of_int logical ]);
    lookup = (fun logical -> call "lookup" [ string_of_int logical ]);
  }

(** [logdisk_policy tech ~nblocks] builds a mapping-policy graft for
    {!Graft_kernel.Logdisk.run}. [nblocks] must be a power of two for
    the SFI regimes. *)
let logdisk_policy (tech : Technology.t) ~nblocks : Graft_kernel.Logdisk.policy
    =
  match tech with
  | Technology.Unsafe_c -> native_logdisk (module Access.Unsafe) ~nblocks
  | Technology.Safe_lang -> native_logdisk (module Access.Checked) ~nblocks
  | Technology.Safe_lang_nil ->
      native_logdisk (module Access.Checked_nil) ~nblocks
  | Technology.Sfi_write_jump -> native_logdisk (module Access.Sfi_wj) ~nblocks
  | Technology.Sfi_full -> native_logdisk (module Access.Sfi_full) ~nblocks
  | Technology.Bytecode_vm | Technology.Safe_lang_static | Technology.Jit
  | Technology.Ast_interp ->
      gel_logdisk tech ~nblocks
  | Technology.Source_interp -> script_logdisk ~nblocks
  | Technology.Upcall_server ->
      invalid_arg
        "Runners.logdisk_policy: upcall cost is analysed by Breakeven"
  | Technology.Specialized_vm ->
      invalid_arg
        "Runners.logdisk_policy: a packet-filter VM cannot maintain a \
         mapping (no stores)"

(* ------------------------------------------------------------------ *)
(* Packet filter.                                                      *)
(* ------------------------------------------------------------------ *)

let pkt_window_cells = 2048

(** [packet_filter tech ~protocol ~port] builds the canonical demux
    predicate ("ip and protocol and dst port") for the given
    technology. The native regimes and the specialized filter VM read
    the packet in place; the general-purpose VM technologies receive a
    copy in their packet window first, which is part of their cost
    model (a graft address space cannot alias kernel mbufs). *)
let packet_filter (tech : Technology.t) ~protocol ~port :
    Graft_kernel.Netpkt.t -> bool =
  let native (module A : Access.S) =
    let module F = Pkt_filter.Make (A) in
    fun (pkt : Graft_kernel.Netpkt.t) ->
      let data = pkt.Graft_kernel.Netpkt.data in
      F.proto_dst_port ~protocol ~port data ~len:(Bytes.length data)
  in
  (* The masking regimes need a power-of-two container: the kernel
     stages each packet into the graft's sandbox buffer, as real SFI
     modules cannot alias kernel mbufs either. *)
  let native_staged (module A : Access.S) =
    let module F = Pkt_filter.Make (A) in
    let staged = Bytes.make pkt_window_cells '\000' in
    fun (pkt : Graft_kernel.Netpkt.t) ->
      let data = pkt.Graft_kernel.Netpkt.data in
      let len = min (Bytes.length data) pkt_window_cells in
      Bytes.blit data 0 staged 0 len;
      F.proto_dst_port ~protocol ~port staged ~len
  in
  let gel_based () =
    let env =
      gel_env
        (Gel_sources.packet_filter ~window_cells:pkt_window_cells ~protocol ~port)
        [ ("pkt", pkt_window_cells, false) ]
    in
    let w = window env "pkt" in
    let cells = Memory.cells env.image.Link.mem in
    let entry = gel_entry tech env in
    fun (pkt : Graft_kernel.Netpkt.t) ->
      let data = pkt.Graft_kernel.Netpkt.data in
      let len = min (Bytes.length data) pkt_window_cells in
      load_bytes_into_cells cells w.Memory.base (Bytes.sub data 0 len);
      entry ~entry:"accept" ~args:[| len |] <> 0
  in
  match tech with
  | Technology.Unsafe_c -> native (module Access.Unsafe)
  | Technology.Safe_lang -> native (module Access.Checked)
  | Technology.Safe_lang_nil -> native (module Access.Checked_nil)
  | Technology.Sfi_write_jump -> native_staged (module Access.Sfi_wj)
  | Technology.Sfi_full -> native_staged (module Access.Sfi_full)
  | Technology.Specialized_vm ->
      let p = Graft_kernel.Pfvm.proto_dst_port ~protocol ~port in
      (match Graft_kernel.Pfvm.verify p with
      | Ok () -> ()
      | Error msg -> failwith ("packet filter failed verification: " ^ msg));
      fun pkt -> Graft_kernel.Pfvm.accepts p pkt
  | Technology.Bytecode_vm | Technology.Safe_lang_static | Technology.Jit
  | Technology.Ast_interp ->
      gel_based ()
  | Technology.Source_interp ->
      let mem = Memory.create (pkt_window_cells + 8) in
      let w =
        Memory.alloc mem ~name:"pkt" ~len:pkt_window_cells ~perm:Memory.perm_ro
      in
      let t = Graft_script.Script.create ~fuel:huge_fuel mem in
      Graft_script.Script.bind_array t ~name:"pkt" w ~writable:false;
      ignore
        (script_fail
           (Graft_script.Script.eval t
              (Script_sources.packet_filter ~protocol ~port)));
      let cells = Memory.cells mem in
      fun (pkt : Graft_kernel.Netpkt.t) ->
        let data = pkt.Graft_kernel.Netpkt.data in
        let len = min (Bytes.length data) pkt_window_cells in
        load_bytes_into_cells cells w.Memory.base (Bytes.sub data 0 len);
        int_of_string
          (script_fail
             (Graft_script.Script.call t "accept" [ string_of_int len ]))
        <> 0
  | Technology.Upcall_server ->
      invalid_arg "Runners.packet_filter: upcall cost is analysed by Breakeven"

(* ------------------------------------------------------------------ *)
(* Graftgate: stateful demux and hot-set grafts over graft maps.       *)
(* ------------------------------------------------------------------ *)

(** Adapt {!Graft_kernel.Graftmap.hosts} dispatchers to GEL hosts. *)
let map_hosts maps =
  List.map
    (fun (hname, hfn) -> { Link.hname; hfn })
    (Graft_kernel.Graftmap.hosts maps)

type demux = {
  d_tech : Technology.t;
  demux : Graft_kernel.Netpkt.t -> int;
      (** [scan * 1024 + count] for accepted packets, 0 otherwise *)
  d_conn : Graft_kernel.Graftmap.t;
      (** the runner's private 64-entry connection-counter map *)
}

(** [demux tech ~protocol ~marker] builds the stateful connection demux
    for the given technology: per-connection packet counters live in a
    fresh 64-entry array map, the payload marker scan is a certified
    bounded loop, and every tier loads with [~bounded:true] — the
    backward jump is accepted only because each verifier independently
    re-derives the scan loop's trip count. *)
let demux (tech : Technology.t) ~protocol ~marker : demux =
  let conn = Graft_kernel.Graftmap.create_array ~name:"conn" 64 in
  let gel_based () =
    let maps = [| conn |] in
    let env =
      gel_env ~hosts:(map_hosts maps)
        (Gel_sources.demux ~window_cells:pkt_window_cells ~protocol ~marker)
        [ ("pkt", pkt_window_cells, false) ]
    in
    let w = window env "pkt" in
    let cells = Memory.cells env.image.Link.mem in
    let entry = gel_entry ~maps ~bounded:true tech env in
    fun (pkt : Graft_kernel.Netpkt.t) ->
      let data = pkt.Graft_kernel.Netpkt.data in
      let len = min (Bytes.length data) pkt_window_cells in
      load_bytes_into_cells cells w.Memory.base (Bytes.sub data 0 len);
      entry ~entry:"demux" ~args:[| len |]
  in
  let fn =
    match tech with
    | Technology.Ast_interp | Technology.Bytecode_vm | Technology.Safe_lang_static
    | Technology.Jit | Technology.Sfi_write_jump | Technology.Sfi_full ->
        gel_based ()
    | Technology.Specialized_vm ->
        let scratch = Graft_kernel.Graftmap.create_array ~name:"scratch" 1 in
        let maps = [| conn; scratch |] in
        let p = Graft_kernel.Pfvm.demux_conn ~protocol ~marker in
        (match Graft_kernel.Pfvm.verify ~nmaps:(Array.length maps) p with
        | Ok () -> ()
        | Error msg -> failwith ("demux filter failed verification: " ^ msg));
        fun pkt -> Graft_kernel.Pfvm.run ~maps p pkt
    | t ->
        invalid_arg ("Runners.demux: not a demux technology: " ^ Technology.name t)
  in
  { d_tech = tech; demux = fn; d_conn = conn }

type hotset = {
  h_tech : Technology.t;
  touch : int -> int;  (** count an access; returns the page's count *)
  hot : int -> bool;  (** is the page still resident in the LRU map? *)
  h_map : Graft_kernel.Graftmap.t;  (** the runner's private LRU map *)
}

(** [hotset tech ~capacity] builds the hot-set tracking graft over a
    fresh LRU map of the given capacity. Eviction policy lives in the
    kernel's map object; the graft itself is loop-free and loads with
    [~bounded:true] on every tier. *)
let hotset (tech : Technology.t) ~capacity : hotset =
  let m = Graft_kernel.Graftmap.create_lru ~name:"hotset" capacity in
  let maps = [| m |] in
  let env = gel_env ~hosts:(map_hosts maps) Gel_sources.hotset [] in
  let entry = gel_entry ~maps ~bounded:true tech env in
  {
    h_tech = tech;
    touch = (fun page -> entry ~entry:"touch" ~args:[| page |]);
    hot = (fun page -> entry ~entry:"hot" ~args:[| page |] <> 0);
    h_map = m;
  }
