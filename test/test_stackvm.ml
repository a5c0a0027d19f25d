(* Tests for graft_stackvm: compiler, verifier, and interpreter, with
   differential checks against the GEL reference interpreter. *)

open Graft_gel
open Graft_mem
open Graft_stackvm

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let compile_ok src =
  match Gel.compile src with
  | Ok prog -> prog
  | Error e -> Alcotest.failf "compile error: %s" (Srcloc.to_string e)

(* Build two independent images of the same program so the interpreter
   and the VM do not share mutable globals. *)
let fresh_image ?hosts src =
  match Link.link_fresh ?hosts (compile_ok src) with
  | Ok image -> image
  | Error msg -> Alcotest.failf "link error: %s" msg

let vm_run ?(entry = "main") ?(args = [||]) ?(fuel = 10_000_000) ?hosts src =
  let image = fresh_image ?hosts src in
  let p = Stackvm.load_exn image in
  match Vm.run p ~entry ~args ~fuel with
  | Ok v -> v
  | Error (`Fault f) -> Alcotest.failf "vm fault: %s" (Fault.to_string f)
  | Error (`Bad_entry m) -> Alcotest.failf "bad entry: %s" m

let vm_fault ?(entry = "main") ?(args = [||]) ?(fuel = 10_000_000) src =
  let image = fresh_image src in
  let p = Stackvm.load_exn image in
  match Vm.run p ~entry ~args ~fuel with
  | Ok v -> Alcotest.failf "expected fault, got %d" v
  | Error (`Fault f) -> f
  | Error (`Bad_entry m) -> Alcotest.failf "bad entry: %s" m

(* Differential: run [entry args] through both engines, expect equal. *)
let both ?(entry = "main") ?(args = [||]) ?(fuel = 50_000_000) src =
  let ref_image = fresh_image src in
  let ref_result = Interp.run ref_image ~entry ~args ~fuel in
  let vm_image = fresh_image src in
  let p = Stackvm.load_exn vm_image in
  let vm_result = Vm.run p ~entry ~args ~fuel in
  match (ref_result, vm_result) with
  | Ok a, Ok b ->
      if a <> b then Alcotest.failf "interp=%d vm=%d" a b;
      a
  | Error (`Fault fa), Error (`Fault fb) ->
      (* Same fault class is enough; addresses may differ. *)
      let tag f =
        match f with
        | Fault.Out_of_bounds _ -> "oob"
        | Fault.Protection _ -> "prot"
        | Fault.Division_by_zero -> "div"
        | Fault.Fuel_exhausted -> "fuel"
        | Fault.Stack_overflow -> "stack"
        | other -> Fault.to_string other
      in
      if tag fa <> tag fb then
        Alcotest.failf "interp fault %s, vm fault %s" (Fault.to_string fa)
          (Fault.to_string fb);
      min_int
  | Ok a, Error (`Fault f) ->
      Alcotest.failf "interp=%d but vm faulted: %s" a (Fault.to_string f)
  | Error (`Fault f), Ok b ->
      Alcotest.failf "interp faulted (%s) but vm=%d" (Fault.to_string f) b
  | _ -> Alcotest.fail "bad entry in one of the engines"

let check_int = Alcotest.(check int)

(* ---------- basic execution ---------- *)

let test_arith () = check_int "1+2*3" 7 (vm_run "fn main() : int { return 1 + 2 * 3; }")

let test_factorial () =
  check_int "10!" 3628800
    (vm_run ~entry:"fact" ~args:[| 10 |]
       "fn fact(n : int) : int { if (n <= 1) { return 1; } return n * fact(n - 1); }")

let test_fib () =
  check_int "fib 20" 6765
    (vm_run ~entry:"fib" ~args:[| 20 |]
       "fn fib(n : int) : int {\n\
        var a = 0; var b = 1;\n\
        for (var i = 0; i < n; i = i + 1) { var t = a + b; a = b; b = t; }\n\
        return a;\n\
        }")

let test_word_ops () =
  check_int "word wrap" 0
    (vm_run "fn main() : int { var w : word = 0xFFFFFFFF; return int(w + 1); }");
  check_int "word rot" 0x80000000
    (vm_run
       "fn main() : int { var x : word = 1; var n = 31;\n\
        return int((x << n) | (x >>> (32 - n))); }")

let test_arrays () =
  check_int "array sum" 60
    (vm_run
       "array a[3];\n\
        fn main() : int { a[0] = 10; a[1] = 20; a[2] = 30;\n\
        return a[0] + a[1] + a[2]; }")

let test_array_initializer () =
  check_int "init" 0xef
    (vm_run
       "array t[4] : word = { 0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476 };\n\
        fn main() : int { return int(t[1] >> 24); }")

let test_globals () =
  check_int "globals" 103
    (vm_run
       "var counter : int = 100;\n\
        fn bump() { counter = counter + 1; }\n\
        fn main() : int { bump(); bump(); bump(); return counter; }")

let test_break_continue () =
  check_int "break/continue" 25
    (vm_run
       "fn main() : int {\n\
        var sum = 0;\n\
        for (var i = 0; i < 100; i = i + 1) {\n\
        if (i % 2 == 0) { continue; }\n\
        if (i > 10) { break; }\n\
        sum = sum + i;\n\
        }\n\
        return sum;\n\
        }")

let test_short_circuit () =
  check_int "sc and" 2
    (vm_run
       "array a[4];\n\
        fn main() : int { if (false && a[9] == 1) { return 1; } return 2; }");
  check_int "sc or" 1
    (vm_run
       "array a[4];\n\
        fn main() : int { if (true || a[9] == 1) { return 1; } return 2; }")

let test_extern () =
  let hosts = [ { Link.hname = "twice"; hfn = (fun a -> 2 * a.(0)) } ] in
  check_int "extern" 14
    (vm_run ~hosts
       "extern fn twice(int) : int;\nfn main() : int { return twice(7); }")

let test_void_fn_call_stmt () =
  check_int "void call" 5
    (vm_run
       "var g : int = 0;\n\
        fn set5() { g = 5; }\n\
        fn main() : int { set5(); return g; }")

(* ---------- faults ---------- *)

let test_fault_div () =
  match vm_fault ~args:[| 0 |] "fn main(a : int) : int { return 1 / a; }" with
  | Fault.Division_by_zero -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

let test_fault_oob () =
  match
    vm_fault ~args:[| 7 |] "array a[4];\nfn main(i : int) : int { return a[i]; }"
  with
  | Fault.Out_of_bounds _ -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

let test_fault_fuel () =
  match vm_fault ~fuel:500 "fn main() : int { while (true) { } return 0; }" with
  | Fault.Fuel_exhausted -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

let test_fault_recursion () =
  match
    vm_fault ~entry:"f" ~args:[| 0 |]
      "fn f(n : int) : int { return f(n + 1); }"
  with
  | Fault.Stack_overflow -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

let test_readonly_store_faults () =
  let prog = compile_ok "shared array w[4];\nfn main() : int { w[0] = 1; return 0; }" in
  let mem = Memory.create 128 in
  let window = Memory.alloc mem ~name:"w" ~len:4 ~perm:Memory.perm_ro in
  let image =
    match Link.link prog ~mem ~shared:[ ("w", window) ] ~hosts:[] with
    | Ok i -> i
    | Error m -> Alcotest.failf "link: %s" m
  in
  let p = Stackvm.load_exn image in
  match Vm.run p ~entry:"main" ~args:[||] ~fuel:1000 with
  | Error (`Fault (Fault.Protection _)) -> ()
  | _ -> Alcotest.fail "expected protection fault"

(* ---------- verifier ---------- *)

let trivial_arrays = [||]

let mkprog ?(funcs = [||]) ?(arrays = trivial_arrays) ?(ext_arity = [||])
    ?(ncells = 16) ?(proofs = [||]) ?(maps = [||]) ?(loop_bounds = [||]) code =
  {
    Program.code;
    funcs;
    arrays;
    host = Array.map (fun _ -> fun _ -> 0) ext_arity;
    ext_arity;
    ext_names = Array.map (fun _ -> "") ext_arity;
    cells = Array.make ncells 0;
    maps;
    proofs;
    loop_bounds;
  }

let fdesc ?(nargs = 0) ?(nlocals = 1) ~entry ~code_end name =
  { Program.name; nargs; nlocals; entry; code_end }

let expect_reject p fragment =
  match Verify.verify p with
  | Ok () -> Alcotest.fail "verifier accepted bad code"
  | Error msg ->
      if not (contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let test_verify_accepts_compiled () =
  let image =
    fresh_image
      "array a[4];\n\
       fn helper(x : int) : int { return x * 2; }\n\
       fn main() : int {\n\
       var s = 0;\n\
       for (var i = 0; i < 4; i = i + 1) { a[i] = helper(i); s = s + a[i]; }\n\
       return s;\n\
       }"
  in
  match Stackvm.load image with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "verifier rejected good code: %s" msg

let test_verify_stack_underflow () =
  let code = [| Opcode.Add; Opcode.Const 0; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:3 "f" |] code in
  expect_reject p "underflow"

let test_verify_jump_outside_function () =
  let code =
    [| Opcode.Jmp 5; Opcode.Const 0; Opcode.Ret; (* fn2: *) Opcode.Const 1;
       Opcode.Ret; Opcode.Const 2; Opcode.Ret |]
  in
  let p =
    mkprog
      ~funcs:[| fdesc ~entry:0 ~code_end:3 "f"; fdesc ~entry:3 ~code_end:7 "g" |]
      code
  in
  expect_reject p "outside"

let test_verify_bad_local () =
  let code = [| Opcode.Load_local 3; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~nlocals:2 ~entry:0 ~code_end:2 "f" |] code in
  expect_reject p "local 3 out of range"

let test_verify_bad_array_id () =
  let code = [| Opcode.Const 0; Opcode.Aload 0; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:3 "f" |] code in
  expect_reject p "array id"

let test_verify_reachable_halt () =
  let code = [| Opcode.Halt; Opcode.Const 0; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:3 "f" |] code in
  expect_reject p "halt"

let test_verify_falls_off_end () =
  let code = [| Opcode.Const 1; Opcode.Pop |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:2 "f" |] code in
  expect_reject p "falls off"

let test_verify_inconsistent_heights () =
  (* Join point reached with heights 1 and 2. *)
  let code =
    [| Opcode.Const 0; Opcode.Jz 4; Opcode.Const 1; Opcode.Const 2;
       (* pc 4: from Jz path nothing pushed after the pop; from
          fallthrough two pushes *) Opcode.Const 9; Opcode.Ret |]
  in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:6 "f" |] code in
  expect_reject p "inconsistent"

let test_verify_bad_call_target () =
  let code = [| Opcode.Call 7; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:2 "f" |] code in
  expect_reject p "invalid function"

let test_verify_bad_global_address () =
  let code = [| Opcode.Load_global 999; Opcode.Ret |] in
  let p = mkprog ~ncells:16 ~funcs:[| fdesc ~entry:0 ~code_end:2 "f" |] code in
  expect_reject p "global address"

let test_verify_bad_array_descriptor () =
  let code = [| Opcode.Const 0; Opcode.Ret |] in
  let arrays = [| { Program.base = 10; len = 100; writable = true } |] in
  let p = mkprog ~arrays ~funcs:[| fdesc ~entry:0 ~code_end:2 "f" |] code in
  expect_reject p "address space"

let test_verify_stack_overflow () =
  let code = Array.append (Array.make (Verify.max_stack + 1) (Opcode.Const 0)) [| Opcode.Ret |] in
  let n = Array.length code in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:n "f" |] code in
  expect_reject p "stack overflow"

let test_verify_bad_extern_target () =
  let code = [| Opcode.Callext 0; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:2 "f" |] code in
  expect_reject p "invalid extern"

let test_verify_bad_code_extent () =
  let code = [| Opcode.Const 0; Opcode.Ret |] in
  expect_reject
    (mkprog ~funcs:[| fdesc ~entry:0 ~code_end:9 "f" |] code)
    "bad code extent";
  expect_reject
    (mkprog ~funcs:[| fdesc ~entry:2 ~code_end:1 "f" |] code)
    "bad code extent"

let test_verify_bad_frame_shape () =
  let code = [| Opcode.Const 0; Opcode.Ret |] in
  expect_reject
    (mkprog ~funcs:[| fdesc ~nargs:3 ~nlocals:2 ~entry:0 ~code_end:2 "f" |] code)
    "more args than locals";
  expect_reject
    (mkprog
       ~funcs:[| fdesc ~nlocals:(Verify.max_locals + 1) ~entry:0 ~code_end:2 "f" |]
       code)
    "too many locals"

(* The host, arity and name tables are parallel arrays indexed by the
   extern id; a program whose tables disagree is malformed. *)
let test_verify_extern_tables () =
  let code = [| Opcode.Const 0; Opcode.Ret |] in
  let p = mkprog ~ext_arity:[| 1 |] ~funcs:[| fdesc ~entry:0 ~code_end:2 "f" |] code in
  expect_reject { p with Program.ext_arity = [| 1; 2 |] } "arity table length";
  expect_reject { p with Program.ext_names = [||] } "name table length"

(* A helper-named extern must carry the typed helper table's arity, so
   a graft cannot call a map helper with a short argument list. *)
let test_verify_helper_arity () =
  let code = [| Opcode.Const 0; Opcode.Callext 0; Opcode.Ret |] in
  let p = mkprog ~ext_arity:[| 1 |] ~funcs:[| fdesc ~entry:0 ~code_end:3 "f" |] code in
  expect_reject { p with Program.ext_names = [| "map_lookup" |] } "helper signature"

let test_verify_bad_map_id () =
  let code = [| Opcode.Const 0; Opcode.Mlookup 2; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:3 "f" |] code in
  expect_reject p "map id 2 out of range"

(* The proof manifest is untrusted: a proof must name a pc inside the
   code, and at most one proof may cover an unchecked instruction. *)
let test_verify_bad_proof_manifest () =
  let module I = Graft_analysis.Interval in
  let arrays = [| { Program.base = 0; len = 8; writable = true } |] in
  let code = [| Opcode.Const 0; Opcode.Aload_u 0; Opcode.Ret |] in
  let funcs = [| fdesc ~entry:0 ~code_end:3 "f" |] in
  (match Verify.verify (mkprog ~arrays ~funcs ~proofs:[| (1, I.range 0 0) |] code) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "well-formed manifest rejected: %s" m);
  expect_reject
    (mkprog ~arrays ~funcs ~proofs:[| (1, I.range 0 0); (9, I.range 0 0) |] code)
    "proof at invalid pc";
  expect_reject
    (mkprog ~arrays ~funcs ~proofs:[| (1, I.range 0 0); (1, I.range 0 0) |] code)
    "duplicate proof"

(* The VM refuses unverified malicious code end-to-end via load. *)
let test_load_rejects () =
  let image = fresh_image "fn main() : int { return 0; }" in
  let p = Compile.compile image in
  let evil = { p with Program.code = [| Opcode.Add; Opcode.Ret |];
               funcs = [| fdesc ~entry:0 ~code_end:2 "main" |] } in
  match Verify.verify evil with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "evil code verified"

(* ---------- disasm ---------- *)

let test_disasm () =
  let image = fresh_image "fn main() : int { return 1 + 2; }" in
  let p = Stackvm.load_exn image in
  let s = Disasm.program p in
  Alcotest.(check bool) "has const" true (contains s "const 1");
  Alcotest.(check bool) "has ret" true (contains s "ret")

(* ---------- differential vs reference interpreter ---------- *)

let diff_programs =
  [
    ( "collatz steps",
      "fn main(n : int) : int {\n\
       var steps = 0;\n\
       while (n != 1 && steps < 1000) {\n\
       if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }\n\
       steps = steps + 1;\n\
       }\n\
       return steps;\n\
       }",
      fun r -> [| 1 + Graft_util.Prng.int r 100000 |] );
    ( "word mix",
      "fn main(a : int, b : int) : int {\n\
       var x : word = word(a);\n\
       var y : word = word(b);\n\
       var acc : word = 0;\n\
       for (var i = 0; i < 16; i = i + 1) {\n\
       acc = (acc + x * y) ^ (x << (i & 31)) | (y >>> 3);\n\
       x = x + 0x9E3779B9;\n\
       y = y - x;\n\
       }\n\
       return int(acc);\n\
       }",
      fun r ->
        [| Graft_util.Prng.int r 0x40000000; Graft_util.Prng.int r 0x40000000 |] );
    ( "array shuffle sum",
      "array a[32];\n\
       fn main(seed : int) : int {\n\
       for (var i = 0; i < 32; i = i + 1) { a[i] = seed * i + i * i; }\n\
       var s = 0;\n\
       for (var i = 0; i < 32; i = i + 1) {\n\
       var j = (i * 7 + 3) % 32;\n\
       var t = a[i]; a[i] = a[j]; a[j] = t;\n\
       s = s + a[i] * i;\n\
       }\n\
       return s;\n\
       }",
      fun r -> [| Graft_util.Prng.int r 10000 |] );
    ( "recursion ackermann-lite",
      "fn ack(m : int, n : int) : int {\n\
       if (m == 0) { return n + 1; }\n\
       if (n == 0) { return ack(m - 1, 1); }\n\
       return ack(m - 1, ack(m, n - 1));\n\
       }\n\
       fn main(m : int, n : int) : int { return ack(m, n); }",
      fun r -> [| Graft_util.Prng.int r 3; Graft_util.Prng.int r 4 |] );
    ( "division corners",
      "fn main(a : int, b : int) : int {\n\
       if (b == 0) { return -1; }\n\
       return a / b + a % b;\n\
       }",
      fun r -> [| Graft_util.Prng.int r 1000 - 500; Graft_util.Prng.int r 20 - 10 |] );
  ]

let test_differential () =
  let r = Graft_util.Prng.create 0xD1FFL in
  List.iter
    (fun (name, src, gen) ->
      for _ = 1 to 20 do
        let args = gen r in
        ignore (both ~args src : int);
        ignore name
      done)
    diff_programs

let prop_differential_expr =
  (* Random arithmetic-over-args programs evaluated by both engines. *)
  QCheck.Test.make ~name:"random expressions: vm = interp" ~count:150
    QCheck.(pair (int_range 0 1000000) (int_range 0 1000000))
    (fun (a, b) ->
      let src =
        "fn main(a : int, b : int) : int {\n\
         var c = a * 3 - b / (b % 97 + 1);\n\
         var d = (a ^ b) & 0xFFFF | (c << 2);\n\
         if (d > a) { d = d - a; } else { d = a - d; }\n\
         while (d > 1000) { d = d / 3 - 1; }\n\
         return d * 2 + c % 5;\n\
         }"
      in
      let i1 = fresh_image src in
      let r1 = Interp.run i1 ~entry:"main" ~args:[| a; b |] ~fuel:1_000_000 in
      let i2 = fresh_image src in
      let p = Stackvm.load_exn i2 in
      let r2 = Vm.run p ~entry:"main" ~args:[| a; b |] ~fuel:1_000_000 in
      match (r1, r2) with Ok x, Ok y -> x = y | _ -> false)

(* The verifier must be total: random instruction sequences either
   verify or are rejected with a message — never an exception — and
   anything it accepts must run without crashing the host. *)
let random_instr rng ncode =
  let open Opcode in
  match Graft_util.Prng.int rng 14 with
  | 0 -> Const (Graft_util.Prng.int rng 100)
  | 1 -> Load_local (Graft_util.Prng.int rng 4)
  | 2 -> Store_local (Graft_util.Prng.int rng 4)
  | 3 -> Add
  | 4 -> Mul
  | 5 -> Pop
  | 6 -> Dup
  | 7 -> Jmp (Graft_util.Prng.int rng (ncode + 2))
  | 8 -> Jz (Graft_util.Prng.int rng (ncode + 2))
  | 9 -> Ret
  | 10 -> Lt
  | 11 -> Wadd
  | 12 -> Load_global (Graft_util.Prng.int rng 20)
  | _ -> Ne

let prop_verifier_total_and_safe =
  QCheck.Test.make ~name:"verifier total; accepted code runs safely" ~count:300
    QCheck.(pair int64 (int_range 1 24))
    (fun (seed, n) ->
      let rng = Graft_util.Prng.create seed in
      let code = Array.init n (fun _ -> random_instr rng n) in
      let p =
        {
          Program.code;
          funcs = [| { Program.name = "f"; nargs = 0; nlocals = 4; entry = 0; code_end = n } |];
          arrays = [||];
          host = [||];
          ext_arity = [||];
          ext_names = [||];
          cells = Array.make 16 0;
          maps = [||];
          proofs = [||];
          loop_bounds = [||];
        }
      in
      match Verify.verify p with
      | Error _ -> true
      | Ok () -> (
          (* Verified code must execute without host-level surprises. *)
          match Vm.run p ~entry:"f" ~args:[||] ~fuel:10_000 with
          | Ok _ | Error (`Fault _) -> true
          | Error (`Bad_entry _) -> false))

(* ---------- the JIT: the one fast path over this bytecode ---------- *)

module Jit = Graft_jit.Jit

let loopy_src =
  "array a[8];\n\
   fn main(n : int) : int {\n\
   var s = 0;\n\
   for (var i = 0; i < 10; i = i + 1) {\n\
   a[i & 7] = i * n + 3;\n\
   s = s + a[i & 7] - s / 7;\n\
   }\n\
   return s;\n\
   }"

let faulty_src =
  (* Faults on purpose: a[n] is out of bounds for n outside [0, 8) and
     the division faults for n = -100. *)
  "array a[8];\n\
   fn main(n : int) : int {\n\
   var s = 0;\n\
   for (var i = 0; i < 10; i = i + 1) {\n\
   a[i & 7] = i * n;\n\
   s = s + a[i & 7] + i / (n + 100);\n\
   }\n\
   return s + a[n];\n\
   }"

let show_tier = function
  | Ok v -> Printf.sprintf "Ok %d" v
  | Error (`Fault f) -> "fault " ^ Fault.to_string f
  | Error (`Bad_entry m) -> "bad entry " ^ m

(* The checked interpreter and the JIT on fresh images of one source:
   the outcome and the whole memory image afterwards. The JIT compiles
   the statically checked program, so this also pins that eliding
   proven checks changes neither results nor fuel accounting. *)
let run_interp ?bounded src ~args ~fuel =
  let image = fresh_image src in
  let r = Vm.run (Stackvm.load_exn ?bounded image) ~entry:"main" ~args ~fuel in
  (r, Array.copy (Memory.cells image.Link.mem))

let run_jit ?bounded src ~args ~fuel =
  let image = fresh_image src in
  let r = Jit.run (Jit.load_exn ?bounded image) ~entry:"main" ~args ~fuel in
  (r, Array.copy (Memory.cells image.Link.mem))

let check_tiers_agree what (r1, m1) (r2, m2) =
  if r1 <> r2 then
    Alcotest.failf "%s: interpreter %s, jit %s" what (show_tier r1) (show_tier r2);
  if m1 <> m2 then
    Alcotest.failf "%s: tiers agree on %s but memory differs" what (show_tier r1)

let test_jit_tiers_differential () =
  let r = Graft_util.Prng.create 0x0B7L in
  List.iter
    (fun (name, src, gen) ->
      for _ = 1 to 10 do
        let args = gen r in
        let what =
          Printf.sprintf "%s (%s)" name
            (String.concat ", " (Array.to_list (Array.map string_of_int args)))
        in
        check_tiers_agree what
          (run_interp src ~args ~fuel:50_000_000)
          (run_jit src ~args ~fuel:50_000_000)
      done)
    diff_programs

(* Sweep EVERY fuel budget from 0 until past completion: a compiled
   block that performed its stores before charging its fuel would pass
   the result check at most budgets but leave different memory when
   the watchdog fires inside the block. *)
let test_jit_fuel_parity_sessions () =
  List.iter
    (fun (name, src, argsets) ->
      List.iter
        (fun args ->
          (* Sweep until the interpreter reaches its terminal outcome
             (anything but fuel exhaustion), then 3 budgets beyond. *)
          let rec sweep fuel remaining =
            if remaining = 0 then ()
            else if fuel > 4000 then
              Alcotest.failf "%s: no terminal outcome within 4000 fuel" name
            else begin
              let ((r1, _) as interp) = run_interp src ~args ~fuel in
              check_tiers_agree
                (Printf.sprintf "%s args %d fuel %d" name args.(0) fuel)
                interp (run_jit src ~args ~fuel);
              let remaining =
                match r1 with
                | Error (`Fault Fault.Fuel_exhausted) -> remaining
                | _ -> remaining - 1
              in
              sweep (fuel + 1) remaining
            end
          in
          sweep 0 3)
        argsets)
    [
      ("loopy", loopy_src, [ [| 3 |]; [| -7 |] ]);
      ("faulty ok", faulty_src, [ [| 2 |] ]);
      ("faulty oob", faulty_src, [ [| 9 |]; [| -3 |] ]);
      ("faulty div", faulty_src, [ [| -100 |] ]);
    ]

let prop_jit_agrees_any_fuel =
  (* Random fuel budgets cut execution off mid-block; random arguments
     hit the bounds and division faults. *)
  QCheck.Test.make ~name:"jit = checked interpreter at any fuel" ~count:300
    QCheck.(pair (int_range 0 400) (int_range (-110) 110))
    (fun (fuel, n) ->
      let (r1, m1) = run_interp faulty_src ~args:[| n |] ~fuel in
      let (r2, m2) = run_jit faulty_src ~args:[| n |] ~fuel in
      if r1 <> r2 then
        QCheck.Test.fail_reportf "fuel %d n %d: interpreter %s, jit %s" fuel n
          (show_tier r1) (show_tier r2);
      if m1 <> m2 then QCheck.Test.fail_reportf "fuel %d n %d: memory differs" fuel n;
      true)

(* Every opcode class the compiler emits, checked and elided, must
   disassemble, re-verify, and run the same on the interpreter and the
   JIT. The coverage assertion keeps the corpus honest when the
   compiler's code shapes drift. Dup and Halt are never emitted
   reachably, and the map opcodes need attached maps (test_gate covers
   them). *)
let opcode_corpus =
  [
    loopy_src;
    faulty_src;
    "var g : int = 5;\n\
     array a[8];\n\
     extern fn twice(int) : int;\n\
     fn bump(x : int) : int { g = g + x; return g; }\n\
     fn main(i : int, d : int) : int {\n\
     var s = 0;\n\
     bump(1);\n\
     a[i & 7] = i;\n\
     if (d >= 0 && d < 8) { a[d] = i; s = a[d]; }\n\
     s = s + a[i & 7];\n\
     s = s + i / 3 + i % 3;\n\
     if (d != 0) { s = s + i / d + i % d; }\n\
     s = s - (i << 2) + (i >> 1) + (i >>> 1);\n\
     s = s * ((i & 3) | (d ^ 5));\n\
     s = s + ~i + -d;\n\
     var w : word = word(i);\n\
     w = (w + word(d)) * w - word(3);\n\
     w = ~w + -w;\n\
     w = (w << 3) >> 1;\n\
     var b : bool = (i > 3 && d < 2) || !(i == d);\n\
     if (b) { s = s + 1; }\n\
     if (i <= d) { s = s + 2; }\n\
     while (s > 100) { s = s - 7; }\n\
     return s + int(w & 0xFF) + twice(i) + g;\n\
     }";
  ]

let test_opcode_classes_roundtrip () =
  let hosts = [ { Link.hname = "twice"; hfn = (fun a -> 2 * a.(0)) } ] in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun src ->
      List.iter
        (fun load ->
          let p = load (fresh_image ~hosts src) in
          (match Verify.verify p with
          | Ok () -> ()
          | Error e -> Alcotest.failf "loaded program fails re-verify: %s" e);
          ignore (Disasm.program p);
          Array.iter
            (fun op ->
              if String.length (Opcode.to_string op) = 0 then
                Alcotest.fail "empty disassembly";
              Hashtbl.replace seen (Opcode.index op) ())
            p.Program.code)
        [ (fun i -> Stackvm.load_exn i); (fun i -> Stackvm.load_static_exn i) ];
      let nargs =
        match Stackvm.load_exn (fresh_image ~hosts src) with
        | p -> (
            match Program.find_func p "main" with
            | Some f -> p.Program.funcs.(f).Program.nargs
            | None -> Alcotest.fail "corpus program has no main")
      in
      List.iter
        (fun n ->
          let args = Array.init nargs (fun k -> n - (3 * k)) in
          let run load run =
            let image = fresh_image ~hosts src in
            let r = run (load image) ~entry:"main" ~args ~fuel:100_000 in
            (r, Array.copy (Memory.cells image.Link.mem))
          in
          check_tiers_agree
            (Printf.sprintf "corpus arg %d" n)
            (run (fun i -> Stackvm.load_exn i) Vm.run)
            (run (fun i -> Jit.load_exn i) Jit.run))
        [ -9; 0; 2; 5; 11 ])
    opcode_corpus;
  let missing = ref [] in
  for i = Opcode.index Opcode.Pop downto 0 do
    if not (Hashtbl.mem seen i) then missing := Opcode.class_names.(i) :: !missing
  done;
  if !missing <> [] then
    Alcotest.failf "opcode classes never emitted by the corpus: %s"
      (String.concat ", " !missing)

(* ---------- bounded loading ---------- *)

let expect_reject_bounded p fragment =
  match Verify.verify ~bounded:true p with
  | Ok () -> Alcotest.fail "bounded verifier accepted bad code"
  | Error msg ->
      if not (contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

(* A certified loop may be entered from outside only through its
   initialiser's first instruction (the [Const]). A jump that lands one
   instruction later — on the [Store_local] — would seed the counter
   from whatever the jumper left on the stack, and the certificate's
   closed-form trip count would not cover that path. *)
let bounds_entry_program ~outside_target =
  let code =
    [|
      (* 0 *) Opcode.Const 7;
      (* 1 *) Opcode.Jmp outside_target;
      (* 2 *) Opcode.Const 0 (* t-2: initialiser *);
      (* 3 *) Opcode.Store_local 0 (* t-1 *);
      (* 4 *) Opcode.Load_local 0 (* t: head *);
      (* 5 *) Opcode.Const 4;
      (* 6 *) Opcode.Lt;
      (* 7 *) Opcode.Jz 13;
      (* 8 *) Opcode.Load_local 0 (* b-4: step *);
      (* 9 *) Opcode.Const 1;
      (* 10 *) Opcode.Add;
      (* 11 *) Opcode.Store_local 0;
      (* 12 *) Opcode.Jmp 4 (* b: certified backedge *);
      (* 13 *) Opcode.Const 0;
      (* 14 *) Opcode.Ret;
    |]
  in
  let cert =
    {
      Graft_analysis.Loopbound.c_counter = 0;
      c_init = 0;
      c_limit = 4;
      c_cmp = Ir.Lt;
      c_step = 1;
      c_trips = 4;
    }
  in
  mkprog
    ~funcs:[| fdesc ~nlocals:1 ~entry:0 ~code_end:15 "main" |]
    ~loop_bounds:[| (12, cert) |]
    code

let test_bounds_entry_discipline () =
  (* Entering at the initialiser's Const re-initialises the counter:
     legal. *)
  (match Verify.verify ~bounded:true (bounds_entry_program ~outside_target:2) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "entry through the initialiser rejected: %s" m);
  (* Entering at the Store_local skips the Const and seeds the counter
     from the jumper's stack: must be rejected... *)
  expect_reject_bounded
    (bounds_entry_program ~outside_target:3)
    "enters a certified loop";
  (* ...as must entering at the loop head, past the whole initialiser. *)
  expect_reject_bounded
    (bounds_entry_program ~outside_target:4)
    "enters a certified loop"

(* Under bounded loading the JIT's program keeps every certificate on a
   backward jump, re-verifies as bounded code, and runs the same as the
   bounded interpreter. *)
let test_bounded_jit_certified () =
  let plain = Stackvm.load_exn ~bounded:true (fresh_image loopy_src) in
  let jitted = Jit.program (Jit.load_exn ~bounded:true (fresh_image loopy_src)) in
  Alcotest.(check bool) "certificates carried" true
    (Array.length jitted.Program.loop_bounds = Array.length plain.Program.loop_bounds
    && Array.length jitted.Program.loop_bounds > 0);
  (match Verify.verify ~bounded:true jitted with
  | Ok () -> ()
  | Error m -> Alcotest.failf "jit program fails bounded re-verify: %s" m);
  Array.iter
    (fun (pc, _) ->
      match jitted.Program.code.(pc) with
      | Opcode.Jmp t when t <= pc -> ()
      | op ->
          Alcotest.failf "certificate pc %d is %s, not a backward jmp" pc
            (Opcode.to_string op))
    jitted.Program.loop_bounds;
  List.iter
    (fun n ->
      check_tiers_agree
        (Printf.sprintf "bounded n=%d" n)
        (run_interp ~bounded:true loopy_src ~args:[| n |] ~fuel:1_000_000)
        (run_jit ~bounded:true loopy_src ~args:[| n |] ~fuel:1_000_000))
    [ 0; 3; -7 ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graft_stackvm"
    [
      ( "exec",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "fibonacci" `Quick test_fib;
          Alcotest.test_case "word ops" `Quick test_word_ops;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "array init" `Quick test_array_initializer;
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "short-circuit" `Quick test_short_circuit;
          Alcotest.test_case "extern" `Quick test_extern;
          Alcotest.test_case "void call" `Quick test_void_fn_call_stmt;
        ] );
      ( "faults",
        [
          Alcotest.test_case "div by zero" `Quick test_fault_div;
          Alcotest.test_case "array oob" `Quick test_fault_oob;
          Alcotest.test_case "fuel" `Quick test_fault_fuel;
          Alcotest.test_case "deep recursion" `Quick test_fault_recursion;
          Alcotest.test_case "read-only store" `Quick test_readonly_store_faults;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts compiled" `Quick test_verify_accepts_compiled;
          Alcotest.test_case "stack underflow" `Quick test_verify_stack_underflow;
          Alcotest.test_case "jump outside fn" `Quick test_verify_jump_outside_function;
          Alcotest.test_case "bad local" `Quick test_verify_bad_local;
          Alcotest.test_case "bad array id" `Quick test_verify_bad_array_id;
          Alcotest.test_case "reachable halt" `Quick test_verify_reachable_halt;
          Alcotest.test_case "falls off end" `Quick test_verify_falls_off_end;
          Alcotest.test_case "inconsistent heights" `Quick test_verify_inconsistent_heights;
          Alcotest.test_case "bad call target" `Quick test_verify_bad_call_target;
          Alcotest.test_case "bad global" `Quick test_verify_bad_global_address;
          Alcotest.test_case "bad array desc" `Quick test_verify_bad_array_descriptor;
          Alcotest.test_case "load rejects" `Quick test_load_rejects;
          Alcotest.test_case "stack overflow" `Quick test_verify_stack_overflow;
          Alcotest.test_case "bad extern target" `Quick test_verify_bad_extern_target;
          Alcotest.test_case "bad code extent" `Quick test_verify_bad_code_extent;
          Alcotest.test_case "bad frame shape" `Quick test_verify_bad_frame_shape;
          Alcotest.test_case "extern tables" `Quick test_verify_extern_tables;
          Alcotest.test_case "helper arity" `Quick test_verify_helper_arity;
          Alcotest.test_case "bad map id" `Quick test_verify_bad_map_id;
          Alcotest.test_case "bad proof manifest" `Quick test_verify_bad_proof_manifest;
        ] );
      ("disasm", [ Alcotest.test_case "renders" `Quick test_disasm ]);
      ( "differential",
        [ Alcotest.test_case "fixed programs" `Quick test_differential ]
        @ qc [ prop_differential_expr; prop_verifier_total_and_safe ] );
      ( "jit-tier",
        [
          Alcotest.test_case "opcode classes round-trip" `Quick
            test_opcode_classes_roundtrip;
          Alcotest.test_case "tiers agree" `Quick test_jit_tiers_differential;
          Alcotest.test_case "fuel parity at every budget" `Quick
            test_jit_fuel_parity_sessions;
        ]
        @ qc [ prop_jit_agrees_any_fuel ] );
      ( "bounded",
        [
          Alcotest.test_case "initialiser entry discipline" `Quick
            test_bounds_entry_discipline;
          Alcotest.test_case "certificates survive the jit" `Quick
            test_bounded_jit_certified;
        ] );
    ]
