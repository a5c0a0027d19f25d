(** Per-technology runners for the paper's grafts.

    A runner packages "the same graft, written for technology T" behind
    a uniform closure interface, so the benchmark harness and the graft
    manager treat all technologies identically:

    - native regimes (C / Modula-3 / SFI analogues) close over the
      functor instances from {!Graft_grafts};
    - VM technologies compile the GEL source from
      {!Graft_grafts.Gel_sources} once (including verification) and
      enter it per call through a resident session;
    - the source interpreter evaluates the Tcl source from
      {!Graft_grafts.Script_sources} once and invokes its procs;
    - the specialized filter VM runs only packet filters (asking it for
      any other graft raises — the paper's expressiveness limit);
    - [Upcall_server] is not a wall-clock runner: its boundary cost is
      simulated ({!Graft_kernel.Upcall}) and analysed by {!Breakeven};
      the one exception is {!evict_upcall}, which runs the native graft
      behind a simulated upcall for end-to-end experiments. *)

val huge_fuel : int

(** Smallest power of two >= n (at least 1024). *)
val next_pow2 : int -> int

(* ------------------------------------------------------------------ *)
(** {1 Shared GEL plumbing}

    Exported for harnesses (the Graftjail saboteurs) that need a
    linked image but their own entry invokers — e.g. with a small fuel
    budget, or preserving the faulting [Fault.t] rather than the
    [Failure] wrapper the benchmark runners use. *)

type gel_env = {
  image : Graft_gel.Link.image;
  windows : (string * Graft_mem.Memory.region) list;
}

(** Compile [source] and link it into a fresh power-of-two memory with
    the given shared windows (name, length, writable). [hosts] resolves
    extern declarations (e.g. the graft-map helper dispatchers from
    {!Graft_kernel.Graftmap.hosts}). Raises [Failure] if the source
    does not compile or link. *)
val gel_env :
  ?hosts:Graft_gel.Link.host list ->
  string ->
  (string * int * bool) list ->
  gel_env

(** Look up a shared window by name. *)
val window : gel_env -> string -> Graft_mem.Memory.region

type gel_entry = entry:string -> args:int array -> int

(** An entry-point invoker for a VM technology over a linked image;
    loading (compile + verify) happens once, at construction. [maps]
    lets the stack tiers lower typed-helper calls to map opcodes;
    [bounded] makes every tier's verifier demand an independently
    re-derived loop-bound certificate for each backward jump. Raises
    [Failure] if the graft is rejected, [Invalid_argument] for non-VM
    technologies. *)
val gel_entry :
  ?maps:Graft_kernel.Graftmap.t array ->
  ?bounded:bool ->
  Technology.t ->
  gel_env ->
  gel_entry

(* ------------------------------------------------------------------ *)
(** {1 Page eviction (Prioritization)} *)

type evict = {
  e_tech : Technology.t;
  refresh : hot:int array -> lru:int array -> unit;
      (** lay the application hot list and kernel LRU chain into the
          graft's shared window (node placement shuffled when the
          runner was created with [rng]) *)
  contains : int -> bool;  (** hot-list membership — the timed op *)
  choose : unit -> int;  (** full victim selection over the LRU chain *)
}

(** Cells needed for [capacity_nodes] list nodes. *)
val evict_cells : int -> int

(** [evict tech ~capacity_nodes ()] builds a runner able to hold up to
    [capacity_nodes] nodes across both lists; call [refresh] to install
    them. Raises [Invalid_argument] for [Upcall_server] and
    [Specialized_vm]. *)
val evict :
  ?rng:Graft_util.Prng.t -> Technology.t -> capacity_nodes:int -> unit -> evict

(** The hardware-protection path: the native unsafe graft behind a
    simulated upcall per invocation (plus marshalling for the exported
    lists), charged to the domain's clock. *)
val evict_upcall :
  ?rng:Graft_util.Prng.t ->
  domain:Graft_kernel.Upcall.domain ->
  capacity_nodes:int ->
  unit ->
  evict

(** Register-VM variant for the A4 ablation: returns [refresh] and a
    [contains] reporting (membership, dynamic instruction count).
    [~elide:true] lets the SFI pass skip verified in-segment masks. *)
val evict_regvm :
  ?rng:Graft_util.Prng.t ->
  ?elide:bool ->
  protection:Graft_regvm.Program.protection ->
  capacity_nodes:int ->
  unit ->
  (hot:int array -> lru:int array -> unit) * (int -> bool * int)

(* ------------------------------------------------------------------ *)
(** {1 MD5 fingerprinting (Stream)} *)

type md5 = {
  m_tech : Technology.t;
  load : bytes -> unit;  (** kernel-side copy into the graft's space *)
  compute : int -> unit;  (** fingerprint the first n bytes — timed *)
  digest_hex : unit -> string;
}

(** [md5 tech ~capacity] builds a fingerprinting runner over a buffer
    of [capacity] bytes (a power of two for the SFI regimes). The
    digest is verified against RFC 1321 by callers before timing. *)
val md5 : Technology.t -> capacity:int -> md5

(* ------------------------------------------------------------------ *)
(** {1 Logical disk (Black Box)} *)

(** [logdisk_policy tech ~nblocks] builds a mapping-policy graft for
    {!Graft_kernel.Logdisk.run}. [nblocks] must be a power of two for
    the SFI regimes. *)
val logdisk_policy :
  Technology.t -> nblocks:int -> Graft_kernel.Logdisk.policy

(** Dynamic instruction count of [writes] mapped writes on the register
    VM at the given protection level (A4's store-heavy case).
    [~elide:true] lets the SFI pass skip verified in-segment masks. *)
val logdisk_regvm_instructions :
  ?elide:bool ->
  protection:Graft_regvm.Program.protection ->
  nblocks:int ->
  writes:int ->
  unit ->
  int

(* ------------------------------------------------------------------ *)
(** {1 Packet filter} *)

val pkt_window_cells : int

(** [packet_filter tech ~protocol ~port] builds the canonical demux
    predicate ("ip and protocol and dst port"). Native regimes and the
    specialized filter VM read packets in place; VM technologies pay a
    copy into their window (a graft address space cannot alias kernel
    mbufs). *)
val packet_filter :
  Technology.t -> protocol:int -> port:int -> Graft_kernel.Netpkt.t -> bool

(* ------------------------------------------------------------------ *)
(** {1 Graftgate: stateful grafts over graft maps} *)

type demux = {
  d_tech : Technology.t;
  demux : Graft_kernel.Netpkt.t -> int;
      (** [scan * 1024 + count] for accepted packets, 0 otherwise *)
  d_conn : Graft_kernel.Graftmap.t;
      (** the runner's private 64-entry connection-counter map *)
}

(** [demux tech ~protocol ~marker] builds the stateful connection
    demux: per-connection packet counters in a fresh 64-entry array
    map, plus a certified bounded scan for [marker] in payload bytes
    54..69. Every tier loads with [~bounded:true] — the backward jump
    is accepted only under a re-derived trip-count certificate. Raises
    [Invalid_argument] for non-VM technologies. *)
val demux : Technology.t -> protocol:int -> marker:int -> demux

type hotset = {
  h_tech : Technology.t;
  touch : int -> int;  (** count an access; returns the page's count *)
  hot : int -> bool;  (** is the page still resident in the LRU map? *)
  h_map : Graft_kernel.Graftmap.t;  (** the runner's private LRU map *)
}

(** [hotset tech ~capacity] builds the hot-set tracking graft over a
    fresh LRU map: eviction policy lives in the kernel's map object,
    persistence across calls in the map, and the graft is loop-free.
    Raises [Invalid_argument] for non-VM technologies. *)
val hotset : Technology.t -> capacity:int -> hotset
