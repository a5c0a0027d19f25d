(** The stack bytecode interpreter: a software virtual machine in the
    style of the 1995 Java VM the paper measured — switch dispatch over
    a bytecode array, an operand stack, per-call local frames, and a
    fuel counter decremented on every instruction so the kernel can
    preempt runaway grafts.

    A {!session} holds the operand stack and frame table so a resident
    graft pays no allocation on each kernel-to-graft entry, as a real
    in-kernel VM would not. *)

open Graft_mem
open Graft_gel

let max_frames = 256
let stack_size = 4096

(* Graftmeter counters, one series per tier; incremented once per
   session exit so the dispatch loop itself stays untouched. *)
let m_sessions_interp =
  Graft_metrics.domain_counter "graftkit_vm_sessions"
    ~help:"VM sessions run, by tier"
    [ ("tier", "interp") ]

let m_fuel_interp =
  Graft_metrics.domain_counter "graftkit_vm_fuel"
    ~help:"Fuel (instruction budget) consumed, by tier"
    [ ("tier", "interp") ]

let m_fuel_hist =
  Graft_metrics.domain_histogram "graftkit_vm_fuel_per_session"
    ~help:"Fuel consumed per session (log2 buckets)" []

type frame = { mutable ret_pc : int; mutable locals : int array }

type session = {
  p : Program.t;
  stack : int array;
  frames : frame array;
  mutable prof : Graft_trace.Opprof.t option;
      (** when set, the dispatch loop counts every executed opcode *)
}

let create_session ?profile p =
  {
    p;
    stack = Array.make stack_size 0;
    frames = Array.init max_frames (fun _ -> { ret_pc = -1; locals = [||] });
    prof = profile;
  }

let run_session (s : session) ~entry ~(args : int array) ~fuel :
    (int, [ `Fault of Fault.t | `Bad_entry of string ]) result =
  let p = s.p in
  match Program.find_func p entry with
  | None -> Error (`Bad_entry (Printf.sprintf "no function named %s" entry))
  | Some fidx when p.Program.funcs.(fidx).Program.nargs <> Array.length args
    ->
      Error
        (`Bad_entry
          (Printf.sprintf "%s expects %d arguments, given %d" entry
             p.Program.funcs.(fidx).Program.nargs (Array.length args)))
  | Some fidx -> (
      let code = p.Program.code in
      let cells = p.Program.cells in
      let stack = s.stack in
      let frames = s.frames in
      let sp = ref 0 in
      let depth = ref 0 in
      let fuel0 = fuel in
      let fuel = ref fuel in
      let prof = s.prof in
      let push v =
        if !sp >= stack_size then Fault.raise_fault Fault.Stack_overflow;
        Array.unsafe_set stack !sp v;
        incr sp
      in
      let pop () =
        (* The verifier proves no underflow for verified code; the check
           stays as defence in depth and costs one compare. *)
        if !sp <= 0 then
          Fault.raise_fault (Fault.Illegal_instruction "stack underflow");
        decr sp;
        Array.unsafe_get stack !sp
      in
      let enter_func target ret_pc =
        if !depth >= max_frames then Fault.raise_fault Fault.Stack_overflow;
        let f = p.Program.funcs.(target) in
        let frame = frames.(!depth) in
        frame.ret_pc <- ret_pc;
        (* Reuse the local slab when it is big enough: GEL locals are
           always written before read, so stale values are invisible. *)
        if Array.length frame.locals < f.Program.nlocals then
          frame.locals <- Array.make (max 8 f.Program.nlocals) 0;
        for i = f.Program.nargs - 1 downto 0 do
          frame.locals.(i) <- pop ()
        done;
        incr depth;
        f.Program.entry
      in
      let binop f =
        let b = pop () in
        let a = pop () in
        push (f a b)
      in
      let divlike f =
        let b = pop () in
        let a = pop () in
        if b = 0 then Fault.raise_fault Fault.Division_by_zero;
        push (f a b)
      in
      let cmp f =
        let b = pop () in
        let a = pop () in
        push (if f a b then 1 else 0)
      in
      let aload arr =
        let d = p.Program.arrays.(arr) in
        let i = pop () in
        if i < 0 || i >= d.Program.len then
          Fault.raise_fault
            (Fault.Out_of_bounds { access = Fault.Read; addr = i });
        push (Array.unsafe_get cells (d.Program.base + i))
      in
      let astore arr =
        let d = p.Program.arrays.(arr) in
        let v = pop () in
        let i = pop () in
        if i < 0 || i >= d.Program.len then
          Fault.raise_fault
            (Fault.Out_of_bounds { access = Fault.Write; addr = i });
        if not d.Program.writable then
          Fault.raise_fault
            (Fault.Protection
               { access = Fault.Write; addr = d.Program.base + i });
        Array.unsafe_set cells (d.Program.base + i) v
      in
      let result = ref 0 in
      let running = ref true in
      let pc = ref 0 in
      (* Sampled entry span (see [Trace.hot_begin]): a resident graft is
         entered once per kernel event, far too often to time every
         run. *)
      let tok = Graft_trace.Trace.hot_begin () in
      let outcome =
        try
          Array.iter push args;
        pc := enter_func fidx (-1);
        while !running do
          decr fuel;
          if !fuel < 0 then Fault.raise_fault Fault.Fuel_exhausted;
          let instr = Array.unsafe_get code !pc in
          incr pc;
          (match prof with
          | None -> ()
          | Some pr ->
              Graft_trace.Opprof.hit pr (Opcode.index instr) 1);
          match instr with
          | Opcode.Const n -> push n
          | Opcode.Load_local n -> push frames.(!depth - 1).locals.(n)
          | Opcode.Store_local n -> frames.(!depth - 1).locals.(n) <- pop ()
          | Opcode.Load_global a -> push (Array.unsafe_get cells a)
          | Opcode.Store_global a -> Array.unsafe_set cells a (pop ())
          | Opcode.Aload arr -> aload arr
          | Opcode.Astore arr -> astore arr
          (* Unchecked accesses: the verifier proved the index in
             bounds (and the array writable) before execution began, so
             these really do skip the tests — a wrong proof admitted
             here would corrupt the host, which is why [Verify] derives
             its own intervals instead of trusting the manifest. *)
          | Opcode.Aload_u arr ->
              let d = p.Program.arrays.(arr) in
              push (Array.unsafe_get cells (d.Program.base + pop ()))
          | Opcode.Astore_u arr ->
              let d = p.Program.arrays.(arr) in
              let v = pop () in
              let i = pop () in
              Array.unsafe_set cells (d.Program.base + i) v
          | Opcode.Mlookup m ->
              let k = pop () in
              push (Graft_kernel.Graftmap.lookup p.Program.maps.(m) k)
          | Opcode.Mupdate m ->
              let v = pop () in
              let k = pop () in
              push (Graft_kernel.Graftmap.update p.Program.maps.(m) k v)
          | Opcode.Mlookup_u m ->
              push (Graft_kernel.Graftmap.unsafe_get p.Program.maps.(m) (pop ()))
          | Opcode.Mupdate_u m ->
              let v = pop () in
              let k = pop () in
              Graft_kernel.Graftmap.unsafe_set p.Program.maps.(m) k v;
              push 1
          | Opcode.Div_u -> binop ( / )
          | Opcode.Mod_u -> binop (fun a b -> a mod b)
          | Opcode.Add -> binop ( + )
          | Opcode.Sub -> binop ( - )
          | Opcode.Mul -> binop ( * )
          | Opcode.Div -> divlike ( / )
          | Opcode.Mod -> divlike (fun a b -> a mod b)
          | Opcode.Shl -> binop Wordops.int_shl
          | Opcode.Shr -> binop Wordops.int_shr
          | Opcode.Lshr -> binop Wordops.int_lshr
          | Opcode.Band -> binop ( land )
          | Opcode.Bor -> binop ( lor )
          | Opcode.Bxor -> binop ( lxor )
          | Opcode.Bnot -> push (lnot (pop ()))
          | Opcode.Neg -> push (-pop ())
          | Opcode.Wadd -> binop Wordops.add
          | Opcode.Wsub -> binop Wordops.sub
          | Opcode.Wmul -> binop Wordops.mul
          | Opcode.Wshl -> binop Wordops.shl
          | Opcode.Wshr -> binop Wordops.shr
          | Opcode.Wbnot -> push (Wordops.bnot (pop ()))
          | Opcode.Wneg -> push (Wordops.neg (pop ()))
          | Opcode.Wmask -> push (Wordops.of_int (pop ()))
          | Opcode.Lt -> cmp ( < )
          | Opcode.Le -> cmp ( <= )
          | Opcode.Gt -> cmp ( > )
          | Opcode.Ge -> cmp ( >= )
          | Opcode.Eq -> cmp ( = )
          | Opcode.Ne -> cmp ( <> )
          | Opcode.Tobool -> push (if pop () = 0 then 0 else 1)
          | Opcode.Not -> push (if pop () = 0 then 1 else 0)
          | Opcode.Jmp t -> pc := t
          | Opcode.Jz t -> if pop () = 0 then pc := t
          | Opcode.Jnz t -> if pop () <> 0 then pc := t
          | Opcode.Call target -> pc := enter_func target !pc
          | Opcode.Callext target ->
              let arity = p.Program.ext_arity.(target) in
              let argv = Array.make arity 0 in
              for i = arity - 1 downto 0 do
                argv.(i) <- pop ()
              done;
              push (p.Program.host.(target) argv)
          | Opcode.Ret ->
              let v = pop () in
              decr depth;
              let ret_pc = frames.(!depth).ret_pc in
              if ret_pc = -1 then begin
                result := v;
                running := false
              end
              else begin
                push v;
                pc := ret_pc
              end
          | Opcode.Pop -> ignore (pop ())
          | Opcode.Dup ->
              let v = pop () in
              push v;
              push v
          | Opcode.Halt -> Fault.raise_fault (Fault.Illegal_instruction "halt")
        done;
          Ok !result
        with Fault.Fault f ->
          Graft_trace.Trace.instant Graft_trace.Trace.Vm_stack
            ("fault:" ^ Fault.class_name f);
          Error (`Fault f)
      in
      (match prof with
      | None -> ()
      | Some pr ->
          (* Fuel consumed = fuel charged: on exhaustion [!fuel] is
             negative and the whole budget was burned. *)
          Graft_trace.Opprof.run_done pr ~fuel:(fuel0 - max 0 !fuel));
      Graft_metrics.inc (m_sessions_interp ());
      Graft_metrics.inc (m_fuel_interp ()) ~by:(fuel0 - max 0 !fuel);
      Graft_metrics.observe (m_fuel_hist ()) (fuel0 - max 0 !fuel);
      Graft_trace.Trace.span_end Graft_trace.Trace.Vm_stack "stackvm.run" tok;
      outcome)

(** One-shot convenience; resident grafts should keep a session. *)
let run p ~entry ~args ~fuel = run_session (create_session p) ~entry ~args ~fuel
