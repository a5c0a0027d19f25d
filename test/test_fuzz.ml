(* Cross-engine differential fuzzing: generate random well-typed GEL
   programs and require the reference AST interpreter, the stack
   bytecode VM, and the register VM (both SFI protection levels) to
   agree on the result and on the final global/array/graft-map state.

   Programs are generated so they cannot fault (array indices and map
   keys masked, divisors forced nonzero, loops bounded), so any
   divergence is a compiler or interpreter bug. Since every generated
   loop is the canonical counted shape, the statically checked stack
   tier, the JIT and the non-elided register VMs all load with
   [~bounded:true]: the loop-bound gate must admit everything the
   generator emits, and certification must not change semantics. *)

open Graft_util
open Graft_gel
open Graft_mem

(* ------------------------------------------------------------------ *)
(* Program generator.                                                  *)
(* ------------------------------------------------------------------ *)

type genv = {
  rng : Prng.t;
  buf : Buffer.t;
  mutable locals : string list;  (** readable: includes loop counters *)
  mutable assignable : string list;  (** never loop counters (termination) *)
  mutable fresh : int;
}

let p g fmt = Printf.ksprintf (Buffer.add_string g.buf) fmt

let rec gen_expr g depth =
  let atom () =
    match Prng.int g.rng 5 with
    | 0 -> p g "%d" (Prng.int g.rng 201 - 100)
    | 1 -> p g "a"
    | 2 -> p g "b"
    | 3 -> p g "g"
    | _ -> (
        match g.locals with
        | [] -> p g "%d" (Prng.int g.rng 50)
        | ls -> p g "%s" (List.nth ls (Prng.int g.rng (List.length ls))))
  in
  if depth <= 0 then atom ()
  else
    match Prng.int g.rng 11 with
    | 0 | 1 | 2 -> atom ()
    | 7 ->
        (* graft-map read with masked key: in range by construction *)
        p g "map_lookup(0, (";
        gen_expr g (depth - 1);
        p g ") & 7)"
    | 3 ->
        (* array read with masked index *)
        p g "arr[(";
        gen_expr g (depth - 1);
        p g ") & 7]"
    | 4 ->
        p g "(-(";
        gen_expr g (depth - 1);
        p g "))"
    | 5 ->
        (* guarded division/modulo *)
        let op = if Prng.bool g.rng then "/" else "%" in
        p g "((";
        gen_expr g (depth - 1);
        p g ") %s (((" op;
        gen_expr g (depth - 1);
        p g ") & 15) | 1))"
    | 6 ->
        (* bounded shift *)
        let op = [| "<<"; ">>"; ">>>" |].(Prng.int g.rng 3) in
        p g "((";
        gen_expr g (depth - 1);
        p g ") %s ((" op;
        gen_expr g (depth - 1);
        p g ") & 15))"
    | _ ->
        let op = [| "+"; "-"; "*"; "&"; "|"; "^" |].(Prng.int g.rng 6) in
        p g "((";
        gen_expr g (depth - 1);
        p g ") %s (" op;
        gen_expr g (depth - 1);
        p g "))"

let gen_cond g depth =
  let op = [| "<"; "<="; ">"; ">="; "=="; "!=" |].(Prng.int g.rng 6) in
  p g "(";
  gen_expr g depth;
  p g ") %s (" op;
  gen_expr g depth;
  p g ")"

let rec gen_stmt g depth =
  match Prng.int g.rng 7 with
  | 0 ->
      p g "g = ";
      gen_expr g depth;
      p g ";\n"
  | 5 ->
      (* graft-map write with masked key; update returns 1 on array
         maps, so fold it into [g] to keep the value observable *)
      p g "g = g + map_update(0, (";
      gen_expr g (depth - 1);
      p g ") & 7, ";
      gen_expr g depth;
      p g ");\n"
  | 1 ->
      p g "arr[(";
      gen_expr g (depth - 1);
      p g ") & 7] = ";
      gen_expr g depth;
      p g ";\n"
  | 2 when g.assignable <> [] ->
      let x =
        List.nth g.assignable (Prng.int g.rng (List.length g.assignable))
      in
      p g "%s = " x;
      gen_expr g depth;
      p g ";\n"
  | 3 when depth > 0 ->
      p g "if (";
      gen_cond g (depth - 1);
      p g ") {\n";
      gen_block g (depth - 1);
      p g "} else {\n";
      gen_block g (depth - 1);
      p g "}\n"
  | 4 when depth > 0 ->
      (* bounded loop over a fresh counter *)
      let v = Printf.sprintf "l%d" g.fresh in
      g.fresh <- g.fresh + 1;
      let bound = 1 + Prng.int g.rng 6 in
      p g "for (var %s = 0; %s < %d; %s = %s + 1) {\n" v v bound v v;
      (* the counter is in scope inside the loop *)
      let saved = g.locals in
      g.locals <- v :: g.locals;
      gen_block g (depth - 1);
      g.locals <- saved;
      p g "}\n"
  | _ ->
      p g "g = g + ";
      gen_expr g (max 0 (depth - 1));
      p g ";\n"

and gen_block g depth =
  let n = 1 + Prng.int g.rng 3 in
  for _ = 1 to n do
    gen_stmt g depth
  done

let gen_program seed =
  let g =
    {
      rng = Prng.create seed;
      buf = Buffer.create 1024;
      locals = [];
      assignable = [];
      fresh = 0;
    }
  in
  p g "extern fn map_lookup(int, int) : int;\n";
  p g "extern fn map_update(int, int, int) : int;\n";
  p g "var g : int = %d;\narray arr[8];\n" (Prng.int g.rng 100);
  p g "fn main(a : int, b : int) : int {\n";
  let nlocals = 1 + Prng.int g.rng 3 in
  for i = 0 to nlocals - 1 do
    let x = Printf.sprintf "x%d" i in
    p g "var %s = " x;
    gen_expr g 1;
    p g ";\n";
    g.locals <- x :: g.locals;
    g.assignable <- x :: g.assignable
  done;
  let nstmts = 2 + Prng.int g.rng 6 in
  for _ = 1 to nstmts do
    gen_stmt g 2
  done;
  p g "return ((g + arr[0]) ^ (arr[3] + arr[7])) + ";
  gen_expr g 1;
  p g ";\n}\n";
  Buffer.contents g.buf

(* ------------------------------------------------------------------ *)
(* Engines.                                                            *)
(* ------------------------------------------------------------------ *)

type engine = {
  ename : string;
  run : string -> args:int array -> (int * int array, string) result;
      (** result value and final state (global g + arr contents) *)
}

let fuel = 50_000_000

(* Graftgate dimension: every generated program declares the map
   helpers and works over an 8-entry array map (map 0), keys masked
   & 7 so access never faults. Each engine run gets a fresh map, and
   the map's final contents join the global/array state in the
   differential comparison — so the helper-call door (AST interpreter,
   register VM) and the lowered map-opcode door (stack tiers, JIT)
   must leave byte-identical kernel state. *)
let fuzz_maps () = [| Graft_kernel.Graftmap.create_array ~name:"fuzz" 8 |]

let map_hosts maps =
  List.map
    (fun (hname, hfn) -> { Link.hname; hfn })
    (Graft_kernel.Graftmap.hosts maps)

let build_image ?(optimize = false) ?(hosts = []) src =
  let prog =
    match Gel.compile ~optimize src with
    | Ok p -> p
    | Error e -> failwith ("fuzz program does not compile: " ^ Srcloc.to_string e)
  in
  let mem = Memory.create 1024 in
  match Link.link prog ~mem ~shared:[] ~hosts with
  | Ok image -> image
  | Error m -> failwith ("fuzz program does not link: " ^ m)

let final_state maps (image : Link.image) =
  let cells = Memory.cells image.Link.mem in
  let g = cells.(image.Link.global_base) in
  let arr = Array.init 8 (fun i -> cells.(image.Link.arr_base.(0) + i)) in
  let map = Array.init 8 (fun k -> Graft_kernel.Graftmap.lookup maps.(0) k) in
  Array.concat [ [| g |]; arr; map ]

let interp_engine ?(optimize = false) name =
  {
    ename = name;
    run =
      (fun src ~args ->
        let maps = fuzz_maps () in
        let image = build_image ~optimize ~hosts:(map_hosts maps) src in
        match Interp.run image ~entry:"main" ~args ~fuel with
        | Ok v -> Ok (v, final_state maps image)
        | Error (`Fault f) -> Error (Fault.to_string f)
        | Error (`Bad_entry m) -> Error m);
  }

let stackvm_engine ?(optimize = false) name =
  {
    ename = name;
    run =
      (fun src ~args ->
        let maps = fuzz_maps () in
        let image = build_image ~optimize ~hosts:(map_hosts maps) src in
        let prog = Graft_stackvm.Stackvm.load_exn image in
        match Graft_stackvm.Vm.run prog ~entry:"main" ~args ~fuel with
        | Ok v -> Ok (v, final_state maps image)
        | Error (`Fault f) -> Error (Fault.to_string f)
        | Error (`Bad_entry m) -> Error m);
  }

(* The statically checked tier: abstract-interpretation facts elide
   bounds and divisor checks, and the load-time verifier re-derives
   every elision. Must be observably identical to the checked tier. *)
let stackvm_static_engine name =
  {
    ename = name;
    run =
      (fun src ~args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let prog = Graft_stackvm.Stackvm.load_static_exn ~maps ~bounded:true image in
        match Graft_stackvm.Vm.run prog ~entry:"main" ~args ~fuel with
        | Ok v -> Ok (v, final_state maps image)
        | Error (`Fault f) -> Error (Fault.to_string f)
        | Error (`Bad_entry m) -> Error m);
  }

(* The closure-threaded JIT tier: compiled from the same statically
   checked bytecode as bytecode-static, so it must agree with every
   other engine on result, state, fuel cut points and fault class. *)
let jit_engine name =
  {
    ename = name;
    run =
      (fun src ~args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let t = Graft_jit.Jit.load_exn ~maps ~bounded:true image in
        match Graft_jit.Jit.run t ~entry:"main" ~args ~fuel with
        | Ok v -> Ok (v, final_state maps image)
        | Error (`Fault f) -> Error (Fault.to_string f)
        | Error (`Bad_entry m) -> Error m);
  }

let regvm_engine ?elide ?bounded ~protection name =
  {
    ename = name;
    run =
      (fun src ~args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let prog = Graft_regvm.Regvm.load_exn ~protection ?elide ?bounded image in
        match Graft_regvm.Machine.run prog ~entry:"main" ~args ~fuel with
        | Ok o -> Ok (o.Graft_regvm.Machine.value, final_state maps image)
        | Error (`Fault f) -> Error (Fault.to_string f)
        | Error (`Bad_entry m) -> Error m);
  }

let engines =
  [
    interp_engine "ast-interp";
    interp_engine ~optimize:true "ast-interp+opt";
    stackvm_engine "bytecode-vm";
    stackvm_engine ~optimize:true "bytecode-vm+opt";
    stackvm_static_engine "bytecode-static";
    jit_engine "jit";
    regvm_engine ~bounded:true ~protection:Graft_regvm.Program.Write_jump
      "regvm-wj";
    regvm_engine ~bounded:true ~protection:Graft_regvm.Program.Full
      "regvm-full";
    regvm_engine ~elide:true ~protection:Graft_regvm.Program.Write_jump
      "regvm-wj-elided";
    regvm_engine ~elide:true ~protection:Graft_regvm.Program.Full
      "regvm-full-elided";
  ]

(* ------------------------------------------------------------------ *)
(* The fault-plan dimension (Graftjail).                               *)
(*                                                                     *)
(* Generated programs get two armed fault sites woven into a loop:     *)
(* each site counts its own visits and commits a seeded fault class    *)
(* when its trigger count is reached. Execution order is              *)
(* deterministic, so every engine must report the same first-firing    *)
(* fault class — and, for faults at a deterministic site (not fuel     *)
(* exhaustion, whose cut point depends on each engine's accounting),   *)
(* identical memory at the fault.                                      *)
(* ------------------------------------------------------------------ *)

let fault_fuel = 200_000

(* Fault statements built on [zz], a runtime zero computed from the
   arguments so neither the optimizer nor the static verifier can
   decide them at compile time. *)
let fault_stmt = function
  | "oob-write" -> "arr[zz + 99] = 1;\n"
  | "oob-read" -> "g = arr[zz - 3];\n"
  | "div-zero" -> "g = 17 / zz;\n"
  | "fuel" -> "while (zz == 0) { g = g + 1; }\n"
  | "map-oob-read" -> "g = map_lookup(0, zz + 99);\n"
  | "map-oob-write" -> "g = map_update(0, zz - 5, 1);\n"
  | c -> failwith ("unknown fault class " ^ c)

(* Map misuse surfaces as the kernel object's own out-of-bounds fault,
   whichever door (helper call or map opcode) committed it. *)
let fault_name_of_class = function
  | "map-oob-read" -> "oob-read"
  | "map-oob-write" -> "oob-write"
  | c -> c

(* Returns the program and the class of the fault that must fire
   first: site 1 runs before site 2 within an iteration, so on equal
   triggers site 1 wins. *)
let gen_faulty_program seed classes =
  let rng = Prng.create seed in
  let c1 = classes.(Prng.int rng (Array.length classes)) in
  let c2 = classes.(Prng.int rng (Array.length classes)) in
  let t1 = 1 + Prng.int rng 12 in
  let t2 = 1 + Prng.int rng 12 in
  let g =
    { rng; buf = Buffer.create 512; locals = []; assignable = []; fresh = 0 }
  in
  p g "extern fn map_lookup(int, int) : int;\n";
  p g "extern fn map_update(int, int, int) : int;\n";
  p g "var g : int = %d;\narray arr[8];\n" (Prng.int rng 100);
  p g "fn main(a : int, b : int) : int {\n";
  p g "var zz = a - a;\nvar inj1 = 0;\nvar inj2 = 0;\n";
  for i = 0 to 1 do
    let x = Printf.sprintf "x%d" i in
    p g "var %s = " x;
    gen_expr g 1;
    p g ";\n";
    g.locals <- x :: g.locals;
    g.assignable <- x :: g.assignable
  done;
  p g "for (var i = 0; i < 16; i = i + 1) {\n";
  p g "inj1 = inj1 + 1;\nif (inj1 == %d) {\n%s} else { g = g + 0; }\n" t1
    (fault_stmt c1);
  gen_stmt g 1;
  p g "inj2 = inj2 + 1;\nif (inj2 == %d) {\n%s} else { g = g + 0; }\n" t2
    (fault_stmt c2);
  p g "}\nreturn g;\n}\n";
  (Buffer.contents g.buf, if t1 <= t2 then c1 else c2)

let fault_result = function
  | Ok v -> Printf.sprintf "ok:%d" v
  | Error (`Fault f) -> Fault.class_name f
  | Error (`Bad_entry m) -> failwith m

(* Engines that trap every fault class with a checked fault: the AST
   interpreter and all three stack-bytecode tiers. *)
let checked_fault_engines =
  (* A mix of doors: the interpreter and the plain bytecode tier reach
     the map through helper host calls, the static tier and the JIT
     through lowered map opcodes — the injected misuse must class
     identically either way. *)
  let stack load run name =
    ( name,
      fun src args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let r = run (load maps image) ~entry:"main" ~args ~fuel:fault_fuel in
        (fault_result r, final_state maps image) )
  in
  [
    ( "ast-interp",
      fun src args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let r = Interp.run image ~entry:"main" ~args ~fuel:fault_fuel in
        (fault_result r, final_state maps image) );
    stack (fun _ image -> Graft_stackvm.Stackvm.load_exn image)
      Graft_stackvm.Vm.run "bytecode-vm";
    stack (fun maps image ->
        Graft_stackvm.Stackvm.load_static_exn ~maps image)
      Graft_stackvm.Vm.run "bytecode-static";
    stack (fun maps image -> Graft_jit.Jit.load_exn ~maps image)
      Graft_jit.Jit.run "jit";
  ]

(* The register VMs mask out-of-bounds accesses instead of trapping
   them (that is their protection model), so they join the comparison
   only for the classes every engine traps identically. *)
let all_fault_engines =
  let reg protection name =
    ( name,
      fun src args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let prog = Graft_regvm.Regvm.load_exn ~protection image in
        match Graft_regvm.Machine.run prog ~entry:"main" ~args ~fuel:fault_fuel with
        | Ok o ->
            (Printf.sprintf "ok:%d" o.Graft_regvm.Machine.value,
             final_state maps image)
        | Error (`Fault f) -> (Fault.class_name f, final_state maps image)
        | Error (`Bad_entry m) -> failwith m )
  in
  checked_fault_engines
  @ [
      reg Graft_regvm.Program.Write_jump "regvm-wj";
      reg Graft_regvm.Program.Full "regvm-full";
    ]

let run_fault_plan ~engines ~classes seed a =
  let src, expected = gen_faulty_program seed classes in
  let args = [| a; a + 1 |] in
  let expected = fault_name_of_class expected in
  let results = List.map (fun (n, run) -> (n, run src args)) engines in
  List.iter
    (fun (n, (cls, _)) ->
      if cls <> expected then
        Alcotest.failf
          "seed %Ld engine %s: expected first fault %s, got %s\n%s" seed n
          expected cls src)
    results;
  (* A fault at a deterministic site leaves identical memory; fuel
     exhaustion cuts each engine at its own accounting boundary. *)
  if expected <> "fuel" then
    match results with
    | (n0, (_, s0)) :: rest ->
        List.iter
          (fun (n, (_, s)) ->
            if s <> s0 then
              Alcotest.failf
                "seed %Ld: %s and %s fault on %s with different state\n\
                 %s=[%s]\n%s=[%s]\n%s"
                seed n0 n expected n0
                (String.concat ";"
                   (Array.to_list (Array.map string_of_int s0)))
                n
                (String.concat ";" (Array.to_list (Array.map string_of_int s)))
                src)
          rest
    | [] -> assert false

(* Every engine — including the masking register VMs — traps map
   misuse: the kernel's map object checks the key, so an SFI store
   mask never sees it. *)
let trapped_classes = [| "div-zero"; "fuel"; "map-oob-read"; "map-oob-write" |]

let checked_classes =
  [| "oob-write"; "oob-read"; "div-zero"; "map-oob-read"; "map-oob-write" |]

let test_fault_plan_corpus () =
  for i = 1 to 40 do
    let seed = Int64.of_int (i * 6581) in
    run_fault_plan ~engines:all_fault_engines ~classes:trapped_classes seed i;
    run_fault_plan ~engines:checked_fault_engines ~classes:checked_classes
      seed (-i)
  done

let prop_fault_plans_agree =
  QCheck.Test.make
    ~name:"all engines agree on the first-firing injected fault" ~count:100
    QCheck.(pair int64 (int_range (-1000) 1000))
    (fun (seed, a) ->
      run_fault_plan ~engines:all_fault_engines ~classes:trapped_classes seed
        a;
      true)

let prop_fault_plans_checked_agree =
  QCheck.Test.make
    ~name:"checked engines agree on injected memory faults" ~count:100
    QCheck.(pair int64 (int_range (-1000) 1000))
    (fun (seed, a) ->
      run_fault_plan ~engines:checked_fault_engines ~classes:checked_classes
        seed a;
      true)

(* ------------------------------------------------------------------ *)
(* The differential property.                                          *)
(* ------------------------------------------------------------------ *)

let run_all seed a b =
  let src = gen_program seed in
  let results =
    List.map (fun e -> (e.ename, e.run src ~args:[| a; b |])) engines
  in
  match results with
  | (_, reference) :: rest ->
      List.iter
        (fun (name, r) ->
          if r <> reference then
            Alcotest.failf
              "engine %s diverges on seed %Ld args (%d, %d)\n%s\nref=%s got=%s"
              name seed a b src
              (match reference with
              | Ok (v, _) -> string_of_int v
              | Error m -> "fault " ^ m)
              (match r with
              | Ok (v, _) -> string_of_int v
              | Error m -> "fault " ^ m))
        rest;
      (* Generated programs must never fault. *)
      (match reference with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "seed %Ld faulted: %s\n%s" seed m src)
  | [] -> assert false

let test_fixed_corpus () =
  (* A deterministic sweep: 60 programs x 2 argument pairs. *)
  for i = 1 to 60 do
    let seed = Int64.of_int (i * 7919) in
    run_all seed i (1000 - i);
    run_all seed (-i) (i * 13)
  done;
  (* Regression seeds caught by the random property in the past. *)
  run_all 1254803352612576772L 0 1

let prop_engines_agree =
  QCheck.Test.make ~name:"all engines agree on random programs" ~count:120
    QCheck.(triple int64 (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (seed, a, b) ->
      run_all seed a b;
      true)

let test_generator_compiles () =
  (* The generator itself must always produce valid GEL. *)
  for i = 1000 to 1100 do
    let src = gen_program (Int64.of_int i) in
    match Gel.compile src with
    | Ok _ -> ()
    | Error e ->
        Alcotest.failf "seed %d produced invalid GEL: %s\n%s" i
          (Srcloc.to_string e) src
  done

(* ------------------------------------------------------------------ *)
(* Entry point.                                                         *)
(* ------------------------------------------------------------------ *)

(* Failure messages above always print the offending seed; `--seed N`
   (or `--seed=N`) replays that one generated program through every
   engine in isolation, printing the source first so a divergence can
   be minimized by hand. *)
let parse_seed_arg () =
  let rec scan acc = function
    | [] -> (None, List.rev acc)
    | "--seed" :: n :: rest -> (Some n, List.rev_append acc rest)
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--seed=" ->
        (Some (String.sub a 7 (String.length a - 7)), List.rev_append acc rest)
    | a :: rest -> scan (a :: acc) rest
  in
  scan [] (Array.to_list Sys.argv)

let replay seed_str =
  let seed =
    match Int64.of_string_opt seed_str with
    | Some s -> s
    | None ->
        Printf.eprintf "bad --seed %S (want an int64)\n" seed_str;
        exit 2
  in
  print_string (gen_program seed);
  List.iter (fun (a, b) -> run_all seed a b) [ (0, 1); (17, 983); (-42, 546) ];
  Printf.printf "seed %Ld: all engines agree\n" seed

let () =
  match parse_seed_arg () with
  | Some n, _ -> replay n
  | None, argv ->
      let argv = Array.of_list argv in
      let qc = List.map QCheck_alcotest.to_alcotest in
      Alcotest.run ~argv "graft_fuzz"
        [
          ( "differential",
            [
              Alcotest.test_case "generator compiles" `Quick
                test_generator_compiles;
              Alcotest.test_case "fixed corpus" `Quick test_fixed_corpus;
            ]
            @ qc [ prop_engines_agree ] );
          ( "fault-plans",
            [
              Alcotest.test_case "fixed corpus" `Quick test_fault_plan_corpus;
            ]
            @ qc [ prop_fault_plans_agree; prop_fault_plans_checked_agree ] );
        ]
