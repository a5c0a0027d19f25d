(** Canned kernel scenarios for [graftkit trace]: each drives one of
    the paper's representative grafts through the real kernel
    substrate — manager registration and attachment, the kernel hook,
    the graft technology itself, and simulated-clock charges — so a
    single run populates every relevant Graftscope track. The caller
    enables the tracer; these functions only generate events. *)

open Graft_util
open Graft_core
module K = Graft_kernel

(* ------------------------------------------------------------------ *)
(* Stream: MD5 fingerprint + XOR cipher over an executable image.      *)
(* ------------------------------------------------------------------ *)

let file_bytes = 65536
let chunk_bytes = 16384

let md5_stream () =
  let rng = Prng.create 0x57E4L in
  let file = Graft_workload.Filedata.executable_like rng file_bytes in
  let expect = Graft_md5.Md5.to_hex (Graft_md5.Md5.digest_bytes file) in
  List.iter
    (fun tech ->
      let clock = K.Simclock.create () in
      let disk = K.Diskmodel.create (K.Diskmodel.paper_params "Solaris") in
      let manager = Manager.create () in
      ignore
        (Manager.register manager ~name:"fp" ~tech ~structure:Taxonomy.Stream
           ~motivation:Taxonomy.Functionality ());
      let runner = Runners.md5 tech ~capacity:file_bytes in
      let filter, get_digest =
        Manager.attach_md5_filter manager ~graft_name:"fp" runner
          ~capacity:file_bytes
      in
      let chain =
        K.Streams.build
          [ filter; K.Streams.xor_filter ~seed:99L ]
          ~sink:(fun _ -> ())
      in
      let pos = ref 0 in
      while !pos < file_bytes do
        let n = min chunk_bytes (file_bytes - !pos) in
        K.Simclock.charge clock "stream-read-io" (K.Diskmodel.stream_time disk n);
        K.Streams.push chain (Bytes.sub file !pos n);
        pos := !pos + n
      done;
      K.Streams.finish chain;
      if get_digest () <> Some expect then
        failwith
          ("trace scenario: md5 digest mismatch under " ^ Technology.name tech))
    [ Technology.Unsafe_c; Technology.Bytecode_vm ]

(* ------------------------------------------------------------------ *)
(* Prioritization: hot-list eviction under memory pressure.            *)
(* ------------------------------------------------------------------ *)

let nframes = 64
let npages = 4096
let hot = Array.init 64 (fun i -> 3 * i)

let drive_evict ~tech ~make_runner =
  let clock = K.Simclock.create () in
  let disk = K.Diskmodel.create (K.Diskmodel.paper_params "Solaris") in
  let vm =
    K.Vmsys.create ~clock ~disk { K.Vmsys.nframes; npages; pages_per_fault = 1 }
  in
  let manager = Manager.create () in
  ignore
    (Manager.register manager ~name:"hotlist" ~tech
       ~structure:Taxonomy.Prioritization ~motivation:Taxonomy.Policy ());
  Manager.attach_evict manager ~graft_name:"hotlist" vm (make_runner clock)
    ~hot_pages:(fun () -> hot);
  let touch p = ignore (K.Vmsys.access vm p) in
  (* Scan the hot set, thrash with unrelated pages, rescan: every
     eviction beyond the free frames consults the graft. *)
  Array.iter touch hot;
  let rng = Prng.create 0xDBL in
  for _ = 1 to 300 do
    touch (200 + Prng.int rng (npages - 200))
  done;
  Array.iter touch hot

let evict_db () =
  List.iter
    (fun tech ->
      drive_evict ~tech ~make_runner:(fun _clock ->
          Runners.evict tech ~capacity_nodes:256 ()))
    [ Technology.Safe_lang; Technology.Bytecode_vm ];
  (* Hardware protection: the same graft behind a per-invocation upcall,
     populating the upcall track. *)
  drive_evict ~tech:Technology.Upcall_server ~make_runner:(fun clock ->
      let domain =
        K.Upcall.create ~name:"evictd" ~clock ~switch_s:20e-6 ()
      in
      Runners.evict_upcall ~domain ~capacity_nodes:256 ())

(* ------------------------------------------------------------------ *)
(* Black box: logical-disk block mapping.                              *)
(* ------------------------------------------------------------------ *)

let logdisk_run () =
  let nblocks = 4096 in
  let config = { K.Logdisk.nblocks; segment_blocks = 16 } in
  let manager = Manager.create () in
  ignore
    (Manager.register manager ~name:"blockmap" ~tech:Technology.Safe_lang
       ~structure:Taxonomy.Black_box ~motivation:Taxonomy.Performance ());
  let policy =
    Manager.attach_logdisk manager ~graft_name:"blockmap"
      (Runners.logdisk_policy Technology.Safe_lang ~nblocks)
  in
  let rng = Prng.create 0x1DL in
  let workload = Array.init 2000 (fun _ -> Prng.int rng nblocks) in
  ignore (K.Logdisk.run config policy workload)

(* ------------------------------------------------------------------ *)
(* Graftgate stateful grafts (PR 7): connection demux and hot-set      *)
(* tracking, both backed by graft maps — these populate the graftmap   *)
(* track alongside manager and VM spans.                               *)
(* ------------------------------------------------------------------ *)

let demux_storm () =
  List.iter
    (fun tech ->
      let clock = K.Simclock.create () in
      let manager = Manager.create () in
      let g =
        Manager.register manager ~name:"demux" ~tech
          ~structure:Taxonomy.Stream ~motivation:Taxonomy.Performance ()
      in
      g.Manager.state <- Manager.Attached;
      let runner =
        Runners.demux tech ~protocol:K.Netpkt.proto_udp ~marker:0x7F
      in
      let rng = Prng.create 0xDE11L in
      let packets =
        K.Netpkt.random_sized_traffic rng ~count:128
          ~protocol:K.Netpkt.proto_udp ~port:4242
      in
      Array.iter
        (fun pkt ->
          K.Simclock.charge clock "demux-rx"
            (1e-7 *. float_of_int (K.Netpkt.length pkt));
          ignore (Manager.invoke g (fun () -> runner.Runners.demux pkt)))
        packets)
    [ Technology.Bytecode_vm; Technology.Jit ]

let hotset_run () =
  List.iter
    (fun tech ->
      let clock = K.Simclock.create () in
      let manager = Manager.create () in
      let g =
        Manager.register manager ~name:"hotset" ~tech
          ~structure:Taxonomy.Stream ~motivation:Taxonomy.Policy ()
      in
      g.Manager.state <- Manager.Attached;
      let runner = Runners.hotset tech ~capacity:64 in
      let btree =
        Graft_workload.Tpcb.create ~l3_pages:32 ~children_per_l3:16 ()
      in
      let rng = Prng.create 0x407L in
      for _ = 1 to 400 do
        let path =
          Graft_workload.Tpcb.lookup_path btree
            ~l3_index:(Prng.int rng 32) ~child_index:(Prng.int rng 16)
        in
        K.Simclock.charge clock "hotset-touch" 1e-6;
        ignore
          (Manager.invoke g (fun () ->
               Array.fold_left
                 (fun _ page -> runner.Runners.touch page)
                 0 path));
        ignore (runner.Runners.hot (Prng.int rng btree.Graft_workload.Tpcb.npages))
      done)
    [ Technology.Bytecode_vm; Technology.Jit ]

let all () =
  md5_stream ();
  evict_db ();
  logdisk_run ();
  demux_storm ();
  hotset_run ()

(** Scenario registry for the CLI: name -> generator. *)
let by_name =
  [
    ("md5", md5_stream); ("evict", evict_db); ("logdisk", logdisk_run);
    ("demux", demux_storm); ("hotset", hotset_run); ("all", all);
  ]
