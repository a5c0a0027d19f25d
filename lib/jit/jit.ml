(** Graftjit: a closure-threaded native tier for the stack bytecode VM
    — the measured stand-in for the paper's "Java + JIT" column.

    [load] runs the statically-checked loader pipeline (Graftcheck's
    interval analysis elides provably safe bounds and divisor checks;
    the load-time verifier re-derives every elision), then partitions
    the verified bytecode into basic blocks. [create_session] compiles
    each block to one pre-specialized OCaml closure over the session's
    register file: every operand-stack slot becomes a compile-time
    constant offset from the frame base (the verifier's pass-1 dataflow
    proves each pc has a single stack height, so slot addresses are
    static), opcode dispatch and operand decoding disappear entirely,
    and control transfers by returning the successor's index into a
    block array — a direct threaded jump rather than a [match] on
    opcodes.

    Parity obligations, asserted by the fuel-parity tests and the
    differential fuzzer:

    - {b fuel}: every plain instruction charges exactly one unit
      before its effect, in program order, identically to
      {!Graft_stackvm.Vm.run_session}; at any budget the memory image
      at the cut point is bit-identical to the interpreter's.
    - {b faults}: bounds, writability, divisor and depth checks raise
      the same {!Graft_mem.Fault.t} at the same program points, after
      the same fuel charge.
    - {b profiling}: a [?profile] session counts every executed
      opcode through {!Graft_trace.Opprof.hit} with the same class
      index and fuel the interpreter reports, so JIT and interpreter
      traces agree bit for bit.

    One deliberate deviation, invisible to every test and graft we
    run: operand-stack capacity is checked once per function entry
    (frame base + the function's maximum verified height against the
    stack size) instead of per push. A pathological recursion that
    exhausts the 4096-slot operand stack before the 256-frame limit
    could fault one block earlier than the interpreter; the frame
    limit always fires first for code our compiler emits. *)

open Graft_mem
open Graft_gel
module Opcode = Graft_stackvm.Opcode
module Program = Graft_stackvm.Program

let max_frames = 256
let stack_size = 4096

(* Graftmeter series, one per tier like the interpreter's; the
   per-session fuel histogram is shared with the other tiers (the
   registry dedups by family + labels). *)
let m_sessions_jit =
  Graft_metrics.domain_counter "graftkit_vm_sessions" [ ("tier", "jit") ]

let m_fuel_jit = Graft_metrics.domain_counter "graftkit_vm_fuel" [ ("tier", "jit") ]

let m_fuel_hist =
  Graft_metrics.domain_histogram "graftkit_vm_fuel_per_session" []

(* ------------------------------------------------------------------ *)
(* Block plan: basic blocks + per-pc stack heights.                    *)
(* ------------------------------------------------------------------ *)

type binfo = {
  b_func : int;  (** owning function index *)
  b_start : int;  (** first pc *)
  b_len : int;  (** instruction count *)
  b_h0 : int;  (** operand-stack height on entry; -1 = unreachable *)
}

type plan = {
  prog : Program.t;
  blocks : binfo array;
  block_of_pc : int array;  (** leader pc -> block id; -1 elsewhere *)
  f_entry_block : int array;
  f_max_height : int array;
      (** per function: max verified operand height, for the one-shot
          entry capacity check *)
}

type t = { plan : plan }

(* Operator selectors for the JIT's own superinstructions (see
   [fused] in [compile_blocks]): one closure builder serves every
   binary operator or comparison by calling [bink_fn]/[cmp_fn].
   Division is absent on purpose: a fused run never contains an
   instruction that can fault. *)
type bink =
  | KAdd | KSub | KMul
  | KShl | KShr | KLshr
  | KBand | KBor | KBxor
  | KWadd | KWsub | KWmul | KWshl | KWshr

type cmp = Clt | Cle | Cgt | Cge | Ceq | Cne

(* Uncurried on purpose: a fully-applied known function costs one
   direct call where a selector-returns-closure shape costs two
   indirect ones. *)
let bink_fn op a b =
  match op with
  | KAdd -> a + b
  | KSub -> a - b
  | KMul -> a * b
  | KShl -> Wordops.int_shl a b
  | KShr -> Wordops.int_shr a b
  | KLshr -> Wordops.int_lshr a b
  | KBand -> a land b
  | KBor -> a lor b
  | KBxor -> a lxor b
  | KWadd -> Wordops.add a b
  | KWsub -> Wordops.sub a b
  | KWmul -> Wordops.mul a b
  | KWshl -> Wordops.shl a b
  | KWshr -> Wordops.shr a b

let cmp_fn c a b =
  match c with
  | Clt -> a < b
  | Cle -> a <= b
  | Cgt -> a > b
  | Cge -> a >= b
  | Ceq -> a = b
  | Cne -> a <> b

(* Pass-1 of [Verify], re-run: single consistent stack height per
   reachable pc. The program is already verified, so inconsistency
   here is a compiler bug, not a graft bug. *)
let derive_heights (p : Program.t) heights fmax fi (f : Program.funcdesc) =
  let lo = f.Program.entry and hi = f.Program.code_end in
  let worklist = Queue.create () in
  let schedule pc h =
    if pc < lo || pc >= hi then
      failwith
        (Printf.sprintf "graftjit: jump target %d outside function %d" pc fi);
    if heights.(pc) = -1 then begin
      heights.(pc) <- h;
      Queue.add pc worklist
    end
    else if heights.(pc) <> h then
      failwith
        (Printf.sprintf "graftjit: inconsistent height at %d in function %d"
           pc fi)
  in
  if lo < hi then schedule lo 0;
  while not (Queue.is_empty worklist) do
    let pc = Queue.pop worklist in
    let h = heights.(pc) in
    let instr = p.Program.code.(pc) in
    let pops, pushes =
      match instr with
      | Opcode.Call target -> (p.Program.funcs.(target).Program.nargs, 1)
      | Opcode.Callext target -> (p.Program.ext_arity.(target), 1)
      | op -> Opcode.effect op
    in
    let h' = h - pops + pushes in
    if h > fmax.(fi) then fmax.(fi) <- h;
    if h' > fmax.(fi) then fmax.(fi) <- h';
    match instr with
    | Opcode.Jmp t -> schedule t h'
    | Opcode.Jz t | Opcode.Jnz t ->
        schedule t h';
        schedule (pc + 1) h'
    | Opcode.Ret -> ()
    | _ -> schedule (pc + 1) h'
  done

let build_plan (prog : Program.t) : plan =
  let code = prog.Program.code in
  let ncode = Array.length code in
  let nfuncs = Array.length prog.Program.funcs in
  let leader = Array.make (max 1 ncode) false in
  let heights = Array.make (max 1 ncode) (-1) in
  let fmax = Array.make (max 1 nfuncs) 0 in
  Array.iteri
    (fun fi (f : Program.funcdesc) ->
      let lo = f.Program.entry and hi = f.Program.code_end in
      if lo < hi then leader.(lo) <- true;
      for pc = lo to hi - 1 do
        match code.(pc) with
        | Opcode.Jmp t | Opcode.Jz t | Opcode.Jnz t ->
            leader.(t) <- true;
            if pc + 1 < hi then leader.(pc + 1) <- true
        | Opcode.Call _ | Opcode.Ret | Opcode.Halt ->
            if pc + 1 < hi then leader.(pc + 1) <- true
        | _ -> ()
      done;
      derive_heights prog heights fmax fi f)
    prog.Program.funcs;
  let terminator = function
    | Opcode.Jmp _ | Opcode.Jz _ | Opcode.Jnz _ | Opcode.Call _ | Opcode.Ret
    | Opcode.Halt ->
        true
    | _ -> false
  in
  let block_of_pc = Array.make (max 1 ncode) (-1) in
  let blocks = ref [] in
  let nblocks = ref 0 in
  Array.iteri
    (fun fi (f : Program.funcdesc) ->
      let lo = f.Program.entry and hi = f.Program.code_end in
      let pc = ref lo in
      while !pc < hi do
        let start = !pc in
        incr pc;
        while !pc < hi && (not leader.(!pc)) && not (terminator code.(!pc - 1))
        do
          incr pc
        done;
        block_of_pc.(start) <- !nblocks;
        blocks :=
          {
            b_func = fi;
            b_start = start;
            b_len = !pc - start;
            b_h0 = heights.(start);
          }
          :: !blocks;
        incr nblocks
      done)
    prog.Program.funcs;
  let blocks = Array.of_list (List.rev !blocks) in
  let f_entry_block =
    Array.map
      (fun (f : Program.funcdesc) ->
        if f.Program.entry < f.Program.code_end then
          block_of_pc.(f.Program.entry)
        else -1)
      prog.Program.funcs
  in
  { prog; blocks; block_of_pc; f_entry_block; f_max_height = fmax }

(* ------------------------------------------------------------------ *)
(* Loading.                                                            *)
(* ------------------------------------------------------------------ *)

(** The static-tier loader pipeline (interval analysis, elided checks,
    verifier re-derivation) followed by block planning. With [maps],
    lowerable helper calls compile to map opcodes over those kernel
    objects; with [bounded:true] every loop needs a re-derived
    loop-bound certificate (Graftgate mode). *)
let load ?maps ?bounded (image : Graft_gel.Link.image) : (t, string) result =
  match Graft_stackvm.Stackvm.load_static ?maps ?bounded image with
  | Error msg -> Error msg
  | Ok prog -> (
      match build_plan prog with
      | plan -> Ok { plan }
      | exception Failure msg -> Error msg)

let load_exn ?maps ?bounded image =
  match load ?maps ?bounded image with Ok t -> t | Error msg -> failwith msg

let program (t : t) = t.plan.prog

(* ------------------------------------------------------------------ *)
(* Session compilation.                                                *)
(* ------------------------------------------------------------------ *)

type jframe = {
  mutable ret_block : int;  (** block to resume after return; -1 = top *)
  mutable dst : int;  (** absolute slot for the return value *)
  mutable caller_bp : int;
  mutable locals : int array;
}

type state = {
  mutable fuel : int;
  mutable bp : int;  (** current frame's operand base in [stack] *)
  mutable depth : int;
  mutable result : int;
  mutable locals : int array;  (** current frame's locals, cached *)
}

type session = {
  t : t;
  st : state;
  frames : jframe array;
  blocks : (unit -> int) array;
      (** one closure per basic block; returns the successor block id,
          -1 to stop *)
  prof : Graft_trace.Opprof.t option;
}

(* Compile every block of [plan] into a closure over the given session
   state. Stack slots are addressed as [st.bp + offset] with the
   offset a compile-time constant; unsafe accesses are sound because
   the entry capacity check bounds [bp + f_max_height] and the
   verifier bounds every height. *)
let compile_blocks (plan : plan) (st : state) (stack : int array)
    (frames : jframe array) (prof : Graft_trace.Opprof.t option) :
    (unit -> int) array =
  let p = plan.prog in
  let code = p.Program.code in
  let cells = p.Program.cells in
  (* Map a plain binary opcode onto the fused-operand selector so the
     generic builder can reuse [bink_fn] (a direct call). *)
  let bink_of = function
    | Opcode.Mul -> KMul
    | Opcode.Shl -> KShl
    | Opcode.Shr -> KShr
    | Opcode.Lshr -> KLshr
    | Opcode.Wmul -> KWmul
    | Opcode.Wshl -> KWshl
    | Opcode.Wshr -> KWshr
    | op ->
        failwith ("graftjit: no selector for " ^ Opcode.to_string op)
  in
  let compile_block (bi : binfo) =
    if bi.b_h0 < 0 then fun () ->
      Fault.raise_fault (Fault.Illegal_instruction "jit: unreachable block")
    else begin
      let last = bi.b_start + bi.b_len - 1 in
      (* [comp pc h] builds the closure chain from [pc] to the end of
         the block; each instruction closure charges its fuel, then
         (when profiling) counts itself, then performs its effect —
         the interpreter's exact order.

         [fused pc h] is the JIT's own superinstruction layer: runs of
         adjacent pure instructions (stack/local/unchecked-load effects
         only — nothing that can fault or touch graft memory) collapse
         into ONE closure that charges the whole run's fuel in a single
         subtraction. This is observationally identical to charging
         per instruction: the run raises Fuel_exhausted iff the budget
         is smaller than its length — exactly when the per-instruction
         chain would — and the intermediate stack/local writes a
         partial run would have performed are invisible to the outside
         (memory parity is over graft cells; session state resets per
         run). Faultable instructions (checked Div/Mod, checked array
         ops) are deliberately NOT fusable: batching their fuel could
         turn a Division_by_zero into a Fuel_exhausted one charge
         early. Profiled sessions skip fusion entirely so the Opprof
         hit sequence stays per-instruction, bit-identical to the
         interpreter's. *)
      let rec comp pc h : unit -> int =
        match (if prof = None then fused pc h else None) with
        | Some cl -> cl
        | None -> comp1 pc h
      and fused pc h : (unit -> int) option =
        let sel = function
          | Opcode.Add -> Some KAdd
          | Opcode.Sub -> Some KSub
          | Opcode.Mul -> Some KMul
          | Opcode.Band -> Some KBand
          | Opcode.Bor -> Some KBor
          | Opcode.Bxor -> Some KBxor
          | Opcode.Shl -> Some KShl
          | Opcode.Shr -> Some KShr
          | Opcode.Lshr -> Some KLshr
          | Opcode.Wadd -> Some KWadd
          | Opcode.Wsub -> Some KWsub
          | Opcode.Wmul -> Some KWmul
          | Opcode.Wshl -> Some KWshl
          | Opcode.Wshr -> Some KWshr
          | _ -> None
        in
        let cmp_of = function
          | Opcode.Lt -> Some Clt
          | Opcode.Le -> Some Cle
          | Opcode.Gt -> Some Cgt
          | Opcode.Ge -> Some Cge
          | Opcode.Eq -> Some Ceq
          | Opcode.Ne -> Some Cne
          | _ -> None
        in
        let usel = function
          | Opcode.Bnot -> Some lnot
          | Opcode.Neg -> Some (fun v -> -v)
          | Opcode.Wbnot -> Some Wordops.bnot
          | Opcode.Wneg -> Some Wordops.neg
          | Opcode.Wmask -> Some Wordops.of_int
          | Opcode.Tobool -> Some (fun v -> if v = 0 then 0 else 1)
          | Opcode.Not -> Some (fun v -> if v = 0 then 1 else 0)
          | _ -> None
        in
        let force = function Some x -> x | None -> assert false in
        let get i = if i <= last then Some code.(i) else None in
        match (get pc, get (pc + 1), get (pc + 2), get (pc + 3)) with
        (* [lload n; const k; add; lstore n] — the loop-counter bump. *)
        | ( Some (Opcode.Load_local n),
            Some (Opcode.Const k),
            Some Opcode.Add,
            Some (Opcode.Store_local m) )
          when n = m ->
            let kk = comp (pc + 4) h in
            Some
              (fun () ->
                let f = st.fuel - 4 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let l = st.locals in
                Array.unsafe_set l n (Array.unsafe_get l n + k);
                kk ())
        (* [lload n; const k; add; aload arr] — checked load at a
           local-plus-offset index (the be16-style byte pair). The
           bounds check is the LAST effect of the group, so every fuel
           charge precedes it in interpreter order and the batched
           charge cannot reclassify an Out_of_bounds as
           Fuel_exhausted. *)
        | ( Some (Opcode.Load_local n),
            Some (Opcode.Const k),
            Some Opcode.Add,
            Some (Opcode.Aload arr) ) ->
            let d = p.Program.arrays.(arr) in
            let base0 = d.Program.base and len = d.Program.len in
            let kk = comp (pc + 4) (h + 1) in
            let i0 = h in
            Some
              (fun () ->
                let f = st.fuel - 4 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let i = Array.unsafe_get st.locals n + k in
                if i < 0 || i >= len then
                  Fault.raise_fault
                    (Fault.Out_of_bounds { access = Fault.Read; addr = i });
                Array.unsafe_set stack (st.bp + i0)
                  (Array.unsafe_get cells (base0 + i));
                kk ())
        (* [lload n; const k; cmp; jz/jnz t] — the loop head. *)
        | ( Some (Opcode.Load_local n),
            Some (Opcode.Const k),
            Some cop,
            Some ((Opcode.Jz t | Opcode.Jnz t) as j) )
          when pc + 3 = last && cmp_of cop <> None ->
            let c = force (cmp_of cop) in
            let jnz = match j with Opcode.Jnz _ -> true | _ -> false in
            let tgt = plan.block_of_pc.(t) in
            let fall = plan.block_of_pc.(pc + 4) in
            Some
              (fun () ->
                let f = st.fuel - 4 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                if cmp_fn c (Array.unsafe_get st.locals n) k = jnz
                then tgt
                else fall)
        (* [const k; cmp; jz/jnz t] *)
        | ( Some (Opcode.Const k),
            Some cop,
            Some ((Opcode.Jz t | Opcode.Jnz t) as j),
            _ )
          when pc + 2 = last && cmp_of cop <> None ->
            let c = force (cmp_of cop) in
            let jnz = match j with Opcode.Jnz _ -> true | _ -> false in
            let tgt = plan.block_of_pc.(t) in
            let fall = plan.block_of_pc.(pc + 3) in
            let ia = h - 1 in
            Some
              (fun () ->
                let f = st.fuel - 3 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                if cmp_fn c (Array.unsafe_get stack (st.bp + ia)) k = jnz
                then tgt
                else fall)
        (* [cmp; jz/jnz t] *)
        | Some cop, Some ((Opcode.Jz t | Opcode.Jnz t) as j), _, _
          when pc + 1 = last && cmp_of cop <> None ->
            let c = force (cmp_of cop) in
            let jnz = match j with Opcode.Jnz _ -> true | _ -> false in
            let tgt = plan.block_of_pc.(t) in
            let fall = plan.block_of_pc.(pc + 2) in
            let ia = h - 2 and ib = h - 1 in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let base = st.bp in
                if
                  cmp_fn c
                    (Array.unsafe_get stack (base + ia))
                    (Array.unsafe_get stack (base + ib))
                  = jnz
                then tgt
                else fall)
        (* [...; ret] — return-value producer fused into the frame
           pop. Ret cannot fault, so any pure producer may precede
           the batched charge's effects. *)
        | Some op1, Some Opcode.Ret, _, _
          when pc + 1 = last
               && (sel op1 <> None
                  || match op1 with
                     | Opcode.Load_local _ | Opcode.Const _ -> true
                     | _ -> false) ->
            let v_of =
              match op1 with
              | Opcode.Load_local n ->
                  fun () -> Array.unsafe_get st.locals n
              | Opcode.Const k -> fun () -> k
              | op1 ->
                  let fn = bink_fn (force (sel op1)) in
                  let ia = h - 2 and ib = h - 1 in
                  fun () ->
                    let base = st.bp in
                    fn
                      (Array.unsafe_get stack (base + ia))
                      (Array.unsafe_get stack (base + ib))
            in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let v = v_of () in
                let d = st.depth - 1 in
                st.depth <- d;
                let frame = frames.(d) in
                let rb = frame.ret_block in
                if rb = -1 then begin
                  st.result <- v;
                  -1
                end
                else begin
                  Array.unsafe_set stack frame.dst v;
                  st.bp <- frame.caller_bp;
                  st.locals <- frames.(d - 1).locals;
                  rb
                end)
        (* [lload n / const k; call f] — last-argument push fused into
           the call. Both of Call's faults (frame depth, stack
           capacity) fire after its charge in the interpreter, so the
           faultable-last rule covers the batch. *)
        | Some ((Opcode.Load_local _ | Opcode.Const _) as op1),
          Some (Opcode.Call target), _, _
          when pc + 1 = last ->
            let arg_of =
              match op1 with
              | Opcode.Load_local n ->
                  fun () -> Array.unsafe_get st.locals n
              | Opcode.Const k -> fun () -> k
              | _ -> assert false
            in
            let callee = p.Program.funcs.(target) in
            let nargs = callee.Program.nargs in
            let nlocals = callee.Program.nlocals in
            let centry = plan.f_entry_block.(target) in
            let cmax = plan.f_max_height.(target) in
            let a0 = h + 1 - nargs in
            let i0 = h in
            let fall = plan.block_of_pc.(pc + 2) in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                Array.unsafe_set stack (st.bp + i0) (arg_of ());
                if st.depth >= max_frames then
                  Fault.raise_fault Fault.Stack_overflow;
                let frame = frames.(st.depth) in
                let dst = st.bp + a0 in
                frame.ret_block <- fall;
                frame.dst <- dst;
                frame.caller_bp <- st.bp;
                if Array.length frame.locals < nlocals then
                  frame.locals <- Array.make (max 8 nlocals) 0;
                let locals = frame.locals in
                for i = 0 to nargs - 1 do
                  Array.unsafe_set locals i (Array.unsafe_get stack (dst + i))
                done;
                st.depth <- st.depth + 1;
                st.bp <- dst;
                st.locals <- locals;
                if dst + cmax > stack_size then
                  Fault.raise_fault Fault.Stack_overflow;
                centry)
        (* [lload a; lload b; op] *)
        | Some (Opcode.Load_local a), Some (Opcode.Load_local b), Some op3, _
          when sel op3 <> None ->
            let fn = bink_fn (force (sel op3)) in
            let kk = comp (pc + 3) (h + 1) in
            let i0 = h in
            Some
              (fun () ->
                let f = st.fuel - 3 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let l = st.locals in
                Array.unsafe_set stack (st.bp + i0)
                  (fn (Array.unsafe_get l a) (Array.unsafe_get l b));
                kk ())
        (* [lload n; const k; op] *)
        | Some (Opcode.Load_local n), Some (Opcode.Const k), Some op3, _
          when sel op3 <> None ->
            let fn = bink_fn (force (sel op3)) in
            let kk = comp (pc + 3) (h + 1) in
            let i0 = h in
            Some
              (fun () ->
                let f = st.fuel - 3 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                Array.unsafe_set stack (st.bp + i0)
                  (fn (Array.unsafe_get st.locals n) k);
                kk ())
        (* [const k; lload n; op] — konst-first binop (e.g. 32 - n). *)
        | Some (Opcode.Const k), Some (Opcode.Load_local n), Some op3, _
          when sel op3 <> None ->
            let fn = bink_fn (force (sel op3)) in
            let kk = comp (pc + 3) (h + 1) in
            let i0 = h in
            Some
              (fun () ->
                let f = st.fuel - 3 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                Array.unsafe_set stack (st.bp + i0)
                  (fn k (Array.unsafe_get st.locals n));
                kk ())
        (* [lload n; aload.u arr; op] — table operand folded into the
           binop (the md5 round's x[k] / t[i] adds). *)
        | Some (Opcode.Load_local n), Some (Opcode.Aload_u arr), Some op3, _
          when sel op3 <> None ->
            let fn = bink_fn (force (sel op3)) in
            let base0 = p.Program.arrays.(arr).Program.base in
            let kk = comp (pc + 3) h in
            let ia = h - 1 in
            Some
              (fun () ->
                let f = st.fuel - 3 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let slot = st.bp + ia in
                Array.unsafe_set stack slot
                  (fn
                     (Array.unsafe_get stack slot)
                     (Array.unsafe_get cells
                        (base0 + Array.unsafe_get st.locals n)));
                kk ())
        (* [lload n; aload.u arr; lstore d] — proof-elided table load. *)
        | ( Some (Opcode.Load_local n),
            Some (Opcode.Aload_u arr),
            Some (Opcode.Store_local d),
            _ ) ->
            let base0 = p.Program.arrays.(arr).Program.base in
            let kk = comp (pc + 3) h in
            Some
              (fun () ->
                let f = st.fuel - 3 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let l = st.locals in
                Array.unsafe_set l d
                  (Array.unsafe_get cells (base0 + Array.unsafe_get l n));
                kk ())
        (* [lload n; aload arr] — checked load at a local index; the
           check is last, so the batched charge is fault-preserving. *)
        | Some (Opcode.Load_local n), Some (Opcode.Aload arr), _, _ ->
            let d = p.Program.arrays.(arr) in
            let base0 = d.Program.base and len = d.Program.len in
            let kk = comp (pc + 2) (h + 1) in
            let i0 = h in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let i = Array.unsafe_get st.locals n in
                if i < 0 || i >= len then
                  Fault.raise_fault
                    (Fault.Out_of_bounds { access = Fault.Read; addr = i });
                Array.unsafe_set stack (st.bp + i0)
                  (Array.unsafe_get cells (base0 + i));
                kk ())
        (* [const k; aload arr] — the bounds test is decidable at
           compile time; out-of-range indices still fault lazily, with
           the interpreter's exact fault value, only when (and if) the
           group is reached with enough fuel. *)
        | Some (Opcode.Const k), Some (Opcode.Aload arr), _, _ ->
            let d = p.Program.arrays.(arr) in
            let base0 = d.Program.base and len = d.Program.len in
            if k < 0 || k >= len then
              Some
                (fun () ->
                  let f = st.fuel - 2 in
                  st.fuel <- f;
                  if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                  Fault.raise_fault
                    (Fault.Out_of_bounds { access = Fault.Read; addr = k }))
            else begin
              let addr = base0 + k in
              let kk = comp (pc + 2) (h + 1) in
              let i0 = h in
              Some
                (fun () ->
                  let f = st.fuel - 2 in
                  st.fuel <- f;
                  if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                  Array.unsafe_set stack (st.bp + i0)
                    (Array.unsafe_get cells addr);
                  kk ())
            end
        (* [lload n; aload.u arr] *)
        | Some (Opcode.Load_local n), Some (Opcode.Aload_u arr), _, _ ->
            let base0 = p.Program.arrays.(arr).Program.base in
            let kk = comp (pc + 2) (h + 1) in
            let i0 = h in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                Array.unsafe_set stack (st.bp + i0)
                  (Array.unsafe_get cells
                     (base0 + Array.unsafe_get st.locals n));
                kk ())
        (* [const k; aload.u arr] — constant-index load. *)
        | Some (Opcode.Const k), Some (Opcode.Aload_u arr), _, _ ->
            let addr = p.Program.arrays.(arr).Program.base + k in
            let kk = comp (pc + 2) (h + 1) in
            let i0 = h in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                Array.unsafe_set stack (st.bp + i0)
                  (Array.unsafe_get cells addr);
                kk ())
        (* [const k; op] *)
        | Some (Opcode.Const k), Some op2, _, _ when sel op2 <> None ->
            let fn = bink_fn (force (sel op2)) in
            let kk = comp (pc + 2) h in
            let ia = h - 1 in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let slot = st.bp + ia in
                Array.unsafe_set stack slot
                  (fn (Array.unsafe_get stack slot) k);
                kk ())
        (* [const k; div/mod] — a non-zero constant divisor cannot
           fault, so the checked forms become pure here and fuse like
           any other binop. *)
        | ( Some (Opcode.Const k),
            Some ((Opcode.Div | Opcode.Mod | Opcode.Div_u | Opcode.Mod_u) as
                 dop),
            _,
            _ )
          when k <> 0 ->
            let fn =
              match dop with
              | Opcode.Div | Opcode.Div_u -> ( / )
              | _ -> fun a b -> a mod b
            in
            let kk = comp (pc + 2) h in
            let ia = h - 1 in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let slot = st.bp + ia in
                Array.unsafe_set stack slot
                  (fn (Array.unsafe_get stack slot) k);
                kk ())
        (* [lload n; op] *)
        | Some (Opcode.Load_local n), Some op2, _, _ when sel op2 <> None ->
            let fn = bink_fn (force (sel op2)) in
            let kk = comp (pc + 2) h in
            let ia = h - 1 in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let slot = st.bp + ia in
                Array.unsafe_set stack slot
                  (fn (Array.unsafe_get stack slot)
                     (Array.unsafe_get st.locals n));
                kk ())
        (* [lload n; unop] *)
        | Some (Opcode.Load_local n), Some uop, _, _ when usel uop <> None ->
            let fn = force (usel uop) in
            let kk = comp (pc + 2) (h + 1) in
            let i0 = h in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                Array.unsafe_set stack (st.bp + i0)
                  (fn (Array.unsafe_get st.locals n));
                kk ())
        (* [op; lstore d] *)
        | Some op1, Some (Opcode.Store_local d), _, _ when sel op1 <> None ->
            let fn = bink_fn (force (sel op1)) in
            let kk = comp (pc + 2) (h - 2) in
            let ia = h - 2 and ib = h - 1 in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let base = st.bp in
                Array.unsafe_set st.locals d
                  (fn
                     (Array.unsafe_get stack (base + ia))
                     (Array.unsafe_get stack (base + ib)));
                kk ())
        (* [op1; op2] — two stacked binops: op2 combines the value
           under op1's operands with op1's result (e.g. wlshr; wor). *)
        | Some op1, Some op2, _, _ when sel op1 <> None && sel op2 <> None ->
            let f1 = bink_fn (force (sel op1)) in
            let f2 = bink_fn (force (sel op2)) in
            let kk = comp (pc + 2) (h - 2) in
            let ia = h - 3 and ib = h - 2 and ic = h - 1 in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let base = st.bp in
                let slot = base + ia in
                Array.unsafe_set stack slot
                  (f2
                     (Array.unsafe_get stack slot)
                     (f1
                        (Array.unsafe_get stack (base + ib))
                        (Array.unsafe_get stack (base + ic))));
                kk ())
        (* [lload n; lstore d] *)
        | Some (Opcode.Load_local n), Some (Opcode.Store_local d), _, _ ->
            let kk = comp (pc + 2) h in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let l = st.locals in
                Array.unsafe_set l d (Array.unsafe_get l n);
                kk ())
        (* [const k; lstore d] *)
        | Some (Opcode.Const k), Some (Opcode.Store_local d), _, _ ->
            let kk = comp (pc + 2) h in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                Array.unsafe_set st.locals d k;
                kk ())
        (* [lload a; lload b] *)
        | Some (Opcode.Load_local a), Some (Opcode.Load_local b), _, _ ->
            let kk = comp (pc + 2) (h + 2) in
            let i0 = h in
            Some
              (fun () ->
                let f = st.fuel - 2 in
                st.fuel <- f;
                if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
                let base = st.bp and l = st.locals in
                Array.unsafe_set stack (base + i0) (Array.unsafe_get l a);
                Array.unsafe_set stack (base + i0 + 1) (Array.unsafe_get l b);
                kk ())
        | _ -> None
      and comp1 pc h : unit -> int =
        if pc > last then
          (* Fallthrough into the next leader. *)
          let fall = plan.block_of_pc.(pc) in
          fun () -> fall
        else begin
          let instr = code.(pc) in
          let idx = Opcode.index instr in
          let note () =
            match prof with
            | None -> ()
            | Some pr -> Graft_trace.Opprof.hit pr idx 1
          in
          let charge () =
            let f = st.fuel - 1 in
            st.fuel <- f;
            if f < 0 then Fault.raise_fault Fault.Fuel_exhausted;
            note ()
          in
          let pops, pushes =
            match instr with
            | Opcode.Call target -> (p.Program.funcs.(target).Program.nargs, 1)
            | Opcode.Callext target -> (p.Program.ext_arity.(target), 1)
            | op -> Opcode.effect op
          in
          let h' = h - pops + pushes in
          let rest () = comp (pc + 1) h' in
          (* Builders: [ia] second-from-top, [ib] top, result at [ia]. *)
          let binop2 fn =
            let k = rest () in
            let ia = h - 2 and ib = h - 1 in
            fun () ->
              charge ();
              let base = st.bp in
              Array.unsafe_set stack (base + ia)
                (fn
                   (Array.unsafe_get stack (base + ia))
                   (Array.unsafe_get stack (base + ib)));
              k ()
          in
          let unop fn =
            let k = rest () in
            let ia = h - 1 in
            fun () ->
              charge ();
              let base = st.bp in
              Array.unsafe_set stack (base + ia)
                (fn (Array.unsafe_get stack (base + ia)));
              k ()
          in
          match instr with
          | Opcode.Const n ->
              let k = rest () in
              let i0 = h in
              fun () ->
                charge ();
                Array.unsafe_set stack (st.bp + i0) n;
                k ()
          | Opcode.Load_local n ->
              let k = rest () in
              let i0 = h in
              fun () ->
                charge ();
                Array.unsafe_set stack (st.bp + i0)
                  (Array.unsafe_get st.locals n);
                k ()
          | Opcode.Store_local n ->
              let k = rest () in
              let i0 = h - 1 in
              fun () ->
                charge ();
                Array.unsafe_set st.locals n
                  (Array.unsafe_get stack (st.bp + i0));
                k ()
          | Opcode.Load_global a ->
              let k = rest () in
              let i0 = h in
              fun () ->
                charge ();
                Array.unsafe_set stack (st.bp + i0)
                  (Array.unsafe_get cells a);
                k ()
          | Opcode.Store_global a ->
              let k = rest () in
              let i0 = h - 1 in
              fun () ->
                charge ();
                Array.unsafe_set cells a
                  (Array.unsafe_get stack (st.bp + i0));
                k ()
          | Opcode.Aload arr ->
              let k = rest () in
              let d = p.Program.arrays.(arr) in
              let base0 = d.Program.base and len = d.Program.len in
              let i0 = h - 1 in
              fun () ->
                charge ();
                let slot = st.bp + i0 in
                let i = Array.unsafe_get stack slot in
                if i < 0 || i >= len then
                  Fault.raise_fault
                    (Fault.Out_of_bounds { access = Fault.Read; addr = i });
                Array.unsafe_set stack slot
                  (Array.unsafe_get cells (base0 + i));
                k ()
          | Opcode.Astore arr ->
              let k = rest () in
              let d = p.Program.arrays.(arr) in
              let base0 = d.Program.base
              and len = d.Program.len
              and writable = d.Program.writable in
              let iv = h - 1 and ii = h - 2 in
              fun () ->
                charge ();
                let base = st.bp in
                let v = Array.unsafe_get stack (base + iv) in
                let i = Array.unsafe_get stack (base + ii) in
                if i < 0 || i >= len then
                  Fault.raise_fault
                    (Fault.Out_of_bounds { access = Fault.Write; addr = i });
                if not writable then
                  Fault.raise_fault
                    (Fault.Protection
                       { access = Fault.Write; addr = base0 + i });
                Array.unsafe_set cells (base0 + i) v;
                k ()
          | Opcode.Aload_u arr ->
              (* Elided bounds check: the verifier re-proved the index
                 interval inside the array before load finished. *)
              let k = rest () in
              let base0 = p.Program.arrays.(arr).Program.base in
              let i0 = h - 1 in
              fun () ->
                charge ();
                let slot = st.bp + i0 in
                Array.unsafe_set stack slot
                  (Array.unsafe_get cells
                     (base0 + Array.unsafe_get stack slot));
                k ()
          | Opcode.Astore_u arr ->
              let k = rest () in
              let base0 = p.Program.arrays.(arr).Program.base in
              let iv = h - 1 and ii = h - 2 in
              fun () ->
                charge ();
                let base = st.bp in
                Array.unsafe_set cells
                  (base0 + Array.unsafe_get stack (base + ii))
                  (Array.unsafe_get stack (base + iv));
                k ()
          | Opcode.Mlookup m ->
              let k = rest () in
              let mp = p.Program.maps.(m) in
              let i0 = h - 1 in
              fun () ->
                charge ();
                let slot = st.bp + i0 in
                Array.unsafe_set stack slot
                  (Graft_kernel.Graftmap.lookup mp
                     (Array.unsafe_get stack slot));
                k ()
          | Opcode.Mupdate m ->
              let k = rest () in
              let mp = p.Program.maps.(m) in
              let ik = h - 2 and iv = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                Array.unsafe_set stack (base + ik)
                  (Graft_kernel.Graftmap.update mp
                     (Array.unsafe_get stack (base + ik))
                     (Array.unsafe_get stack (base + iv)));
                k ()
          | Opcode.Mlookup_u m ->
              (* Elided: the verifier re-proved the key interval inside
                 the (array) map's range. *)
              let k = rest () in
              let mp = p.Program.maps.(m) in
              let i0 = h - 1 in
              fun () ->
                charge ();
                let slot = st.bp + i0 in
                Array.unsafe_set stack slot
                  (Graft_kernel.Graftmap.unsafe_get mp
                     (Array.unsafe_get stack slot));
                k ()
          | Opcode.Mupdate_u m ->
              let k = rest () in
              let mp = p.Program.maps.(m) in
              let ik = h - 2 and iv = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                Graft_kernel.Graftmap.unsafe_set mp
                  (Array.unsafe_get stack (base + ik))
                  (Array.unsafe_get stack (base + iv));
                Array.unsafe_set stack (base + ik) 1;
                k ()
          | Opcode.Add ->
              let k = rest () in
              let ia = h - 2 and ib = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                Array.unsafe_set stack (base + ia)
                  (Array.unsafe_get stack (base + ia)
                  + Array.unsafe_get stack (base + ib));
                k ()
          | Opcode.Sub ->
              let k = rest () in
              let ia = h - 2 and ib = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                Array.unsafe_set stack (base + ia)
                  (Array.unsafe_get stack (base + ia)
                  - Array.unsafe_get stack (base + ib));
                k ()
          | Opcode.Band ->
              let k = rest () in
              let ia = h - 2 and ib = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                Array.unsafe_set stack (base + ia)
                  (Array.unsafe_get stack (base + ia)
                  land Array.unsafe_get stack (base + ib));
                k ()
          | Opcode.Bor ->
              let k = rest () in
              let ia = h - 2 and ib = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                Array.unsafe_set stack (base + ia)
                  (Array.unsafe_get stack (base + ia)
                  lor Array.unsafe_get stack (base + ib));
                k ()
          | Opcode.Bxor ->
              let k = rest () in
              let ia = h - 2 and ib = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                Array.unsafe_set stack (base + ia)
                  (Array.unsafe_get stack (base + ia)
                  lxor Array.unsafe_get stack (base + ib));
                k ()
          | Opcode.Wadd ->
              let k = rest () in
              let ia = h - 2 and ib = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                Array.unsafe_set stack (base + ia)
                  (Wordops.add
                     (Array.unsafe_get stack (base + ia))
                     (Array.unsafe_get stack (base + ib)));
                k ()
          | Opcode.Wsub -> binop2 Wordops.sub
          | Opcode.Mul | Opcode.Wmul | Opcode.Shl | Opcode.Shr | Opcode.Lshr
          | Opcode.Wshl | Opcode.Wshr ->
              let sel = bink_of instr in
              let k = rest () in
              let ia = h - 2 and ib = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                Array.unsafe_set stack (base + ia)
                  (bink_fn sel
                     (Array.unsafe_get stack (base + ia))
                     (Array.unsafe_get stack (base + ib)));
                k ()
          | Opcode.Div | Opcode.Mod ->
              let ismod = instr = Opcode.Mod in
              let k = rest () in
              let ia = h - 2 and ib = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                let b = Array.unsafe_get stack (base + ib) in
                let a = Array.unsafe_get stack (base + ia) in
                if b = 0 then Fault.raise_fault Fault.Division_by_zero;
                Array.unsafe_set stack (base + ia)
                  (if ismod then a mod b else a / b);
                k ()
          | Opcode.Div_u -> binop2 ( / )
          | Opcode.Mod_u -> binop2 (fun a b -> a mod b)
          | Opcode.Bnot -> unop lnot
          | Opcode.Neg -> unop (fun v -> -v)
          | Opcode.Wbnot -> unop Wordops.bnot
          | Opcode.Wneg -> unop Wordops.neg
          | Opcode.Wmask -> unop Wordops.of_int
          | Opcode.Tobool -> unop (fun v -> if v = 0 then 0 else 1)
          | Opcode.Not -> unop (fun v -> if v = 0 then 1 else 0)
          | Opcode.Lt | Opcode.Le | Opcode.Gt | Opcode.Ge | Opcode.Eq
          | Opcode.Ne ->
              let c =
                match instr with
                | Opcode.Lt -> Clt
                | Opcode.Le -> Cle
                | Opcode.Gt -> Cgt
                | Opcode.Ge -> Cge
                | Opcode.Eq -> Ceq
                | _ -> Cne
              in
              let k = rest () in
              let ia = h - 2 and ib = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                Array.unsafe_set stack (base + ia)
                  (if
                     cmp_fn c
                       (Array.unsafe_get stack (base + ia))
                       (Array.unsafe_get stack (base + ib))
                   then 1
                   else 0);
                k ()
          | Opcode.Pop ->
              let k = rest () in
              fun () ->
                charge ();
                k ()
          | Opcode.Dup ->
              let k = rest () in
              let i0 = h - 1 in
              fun () ->
                charge ();
                let base = st.bp in
                Array.unsafe_set stack (base + i0 + 1)
                  (Array.unsafe_get stack (base + i0));
                k ()
          | Opcode.Callext target ->
              let k = rest () in
              let arity = p.Program.ext_arity.(target) in
              let hfn = p.Program.host.(target) in
              let a0 = h - arity in
              fun () ->
                charge ();
                let base = st.bp + a0 in
                let argv = Array.make arity 0 in
                for i = 0 to arity - 1 do
                  argv.(i) <- Array.unsafe_get stack (base + i)
                done;
                Array.unsafe_set stack base (hfn argv);
                k ()
          (* -------- terminators -------- *)
          | Opcode.Jmp t ->
              let tgt = plan.block_of_pc.(t) in
              fun () ->
                charge ();
                tgt
          | Opcode.Jz t ->
              let tgt = plan.block_of_pc.(t) in
              let fall = plan.block_of_pc.(pc + 1) in
              let i0 = h - 1 in
              fun () ->
                charge ();
                if Array.unsafe_get stack (st.bp + i0) = 0 then tgt else fall
          | Opcode.Jnz t ->
              let tgt = plan.block_of_pc.(t) in
              let fall = plan.block_of_pc.(pc + 1) in
              let i0 = h - 1 in
              fun () ->
                charge ();
                if Array.unsafe_get stack (st.bp + i0) <> 0 then tgt else fall
          | Opcode.Call target ->
              let callee = p.Program.funcs.(target) in
              let nargs = callee.Program.nargs in
              let nlocals = callee.Program.nlocals in
              let centry = plan.f_entry_block.(target) in
              let cmax = plan.f_max_height.(target) in
              let a0 = h - nargs in
              let fall = plan.block_of_pc.(pc + 1) in
              fun () ->
                charge ();
                if st.depth >= max_frames then
                  Fault.raise_fault Fault.Stack_overflow;
                let frame = frames.(st.depth) in
                let dst = st.bp + a0 in
                frame.ret_block <- fall;
                frame.dst <- dst;
                frame.caller_bp <- st.bp;
                if Array.length frame.locals < nlocals then
                  frame.locals <- Array.make (max 8 nlocals) 0;
                let locals = frame.locals in
                for i = 0 to nargs - 1 do
                  Array.unsafe_set locals i (Array.unsafe_get stack (dst + i))
                done;
                st.depth <- st.depth + 1;
                st.bp <- dst;
                st.locals <- locals;
                if dst + cmax > stack_size then
                  Fault.raise_fault Fault.Stack_overflow;
                centry
          | Opcode.Ret ->
              let i0 = h - 1 in
              fun () ->
                charge ();
                let v = Array.unsafe_get stack (st.bp + i0) in
                let d = st.depth - 1 in
                st.depth <- d;
                let frame = frames.(d) in
                let rb = frame.ret_block in
                if rb = -1 then begin
                  st.result <- v;
                  -1
                end
                else begin
                  Array.unsafe_set stack frame.dst v;
                  st.bp <- frame.caller_bp;
                  st.locals <- frames.(d - 1).locals;
                  rb
                end
          | Opcode.Halt ->
              fun () ->
                charge ();
                Fault.raise_fault (Fault.Illegal_instruction "halt")
        end
      in
      comp bi.b_start bi.b_h0
    end
  in
  Array.map compile_block plan.blocks

let create_session ?profile (t : t) : session =
  let st = { fuel = 0; bp = 0; depth = 0; result = 0; locals = [||] } in
  let stack = Array.make stack_size 0 in
  let frames =
    Array.init max_frames (fun _ ->
        { ret_block = -1; dst = 0; caller_bp = 0; locals = [||] })
  in
  let blocks = compile_blocks t.plan st stack frames profile in
  { t; st; frames; blocks; prof = profile }

(* ------------------------------------------------------------------ *)
(* Running.                                                            *)
(* ------------------------------------------------------------------ *)

let rec drive blocks id =
  if id >= 0 then drive blocks ((Array.unsafe_get blocks id) ())

let run_session (s : session) ~entry ~(args : int array) ~fuel :
    (int, [ `Fault of Fault.t | `Bad_entry of string ]) result =
  let plan = s.t.plan in
  let p = plan.prog in
  match Program.find_func p entry with
  | None -> Error (`Bad_entry (Printf.sprintf "no function named %s" entry))
  | Some fidx when p.Program.funcs.(fidx).Program.nargs <> Array.length args
    ->
      Error
        (`Bad_entry
          (Printf.sprintf "%s expects %d arguments, given %d" entry
             p.Program.funcs.(fidx).Program.nargs (Array.length args)))
  | Some fidx -> (
      let st = s.st in
      let fuel0 = fuel in
      st.fuel <- fuel;
      st.bp <- 0;
      st.result <- 0;
      let tok = Graft_trace.Trace.hot_begin () in
      let outcome =
        try
          let f = p.Program.funcs.(fidx) in
          let frame = s.frames.(0) in
          frame.ret_block <- -1;
          frame.dst <- 0;
          frame.caller_bp <- 0;
          if Array.length frame.locals < f.Program.nlocals then
            frame.locals <- Array.make (max 8 f.Program.nlocals) 0;
          Array.blit args 0 frame.locals 0 (Array.length args);
          st.depth <- 1;
          st.locals <- frame.locals;
          if plan.f_max_height.(fidx) > stack_size then
            Fault.raise_fault Fault.Stack_overflow;
          drive s.blocks plan.f_entry_block.(fidx);
          Ok st.result
        with Fault.Fault f ->
          Graft_trace.Trace.instant Graft_trace.Trace.Vm_stack
            ("fault:" ^ Fault.class_name f);
          Error (`Fault f)
      in
      (match s.prof with
      | None -> ()
      | Some pr ->
          Graft_trace.Opprof.run_done pr ~fuel:(fuel0 - max 0 st.fuel));
      Graft_metrics.inc (m_sessions_jit ());
      Graft_metrics.inc (m_fuel_jit ()) ~by:(fuel0 - max 0 st.fuel);
      Graft_metrics.observe (m_fuel_hist ()) (fuel0 - max 0 st.fuel);
      Graft_trace.Trace.span_end Graft_trace.Trace.Vm_stack "stackvm.jit" tok;
      outcome)

(** One-shot convenience; resident grafts should keep a session (the
    closure compilation happens once per session, not per entry). *)
let run (t : t) ~entry ~args ~fuel =
  run_session (create_session t) ~entry ~args ~fuel

(* ------------------------------------------------------------------ *)
(* Diagnostics: `graftkit jit dump`.                                   *)
(* ------------------------------------------------------------------ *)

(** (elided, total) check sites, as in {!Graft_stackvm.Stackvm}. *)
let elision_stats (t : t) =
  Graft_stackvm.Stackvm.elision_stats t.plan.prog

(** Render the block/closure structure: per function, each basic block
    with its entry stack height, and per instruction the elided checks
    with the proof interval the verifier re-derived. *)
let describe (t : t) : string =
  let plan = t.plan in
  let p = plan.prog in
  let buf = Buffer.create 1024 in
  let proof_at pc =
    Array.fold_left
      (fun acc (ppc, claim) -> if ppc = pc then Some claim else acc)
      None p.Program.proofs
  in
  Array.iteri
    (fun fi (f : Program.funcdesc) ->
      let blocks =
        Array.to_list plan.blocks
        |> List.filter (fun b -> b.b_func = fi)
      in
      let elided =
        List.fold_left
          (fun acc b ->
            let n = ref 0 in
            for pc = b.b_start to b.b_start + b.b_len - 1 do
              match p.Program.code.(pc) with
              | Opcode.Aload_u _ | Opcode.Astore_u _ | Opcode.Div_u
              | Opcode.Mod_u | Opcode.Mlookup_u _ | Opcode.Mupdate_u _ ->
                  incr n
              | _ -> ()
            done;
            acc + !n)
          0 blocks
      in
      Buffer.add_string buf
        (Printf.sprintf "fn %d %s (args %d, locals %d): %d blocks, %d elided checks\n"
           fi f.Program.name f.Program.nargs f.Program.nlocals
           (List.length blocks) elided);
      List.iter
        (fun b ->
          let bid = plan.block_of_pc.(b.b_start) in
          Buffer.add_string buf
            (Printf.sprintf "  block %d @ [%d,%d) %s\n" bid b.b_start
               (b.b_start + b.b_len)
               (if b.b_h0 < 0 then "unreachable"
                else Printf.sprintf "h0=%d" b.b_h0));
          for pc = b.b_start to b.b_start + b.b_len - 1 do
            let annot =
              match p.Program.code.(pc) with
              | Opcode.Aload_u _ | Opcode.Astore_u _ | Opcode.Div_u
              | Opcode.Mod_u | Opcode.Mlookup_u _ | Opcode.Mupdate_u _ -> (
                  match proof_at pc with
                  | Some claim ->
                      Printf.sprintf "   ; elided, proof %s"
                        (Graft_analysis.Interval.to_string claim)
                  | None -> "   ; elided"
                  )
              | _ -> ""
            in
            Buffer.add_string buf
              (Printf.sprintf "    %4d: %s%s\n" pc
                 (Opcode.to_string p.Program.code.(pc))
                 annot)
          done)
        blocks)
    p.Program.funcs;
  Buffer.contents buf
