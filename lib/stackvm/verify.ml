(** Load-time bytecode verifier, in the spirit of the Java verifier the
    paper's interpreted technology relies on.

    For each function it runs an abstract interpretation over stack
    heights: every reachable instruction must have a single consistent
    operand-stack height, never underflow, never exceed [max_stack],
    never jump outside its own function, and only reference valid
    locals, arrays, functions and externs. Code that fails is rejected
    before it ever executes. *)

let max_stack = 1024
let max_locals = 4096

module I = Graft_analysis.Interval
module Ir = Graft_gel.Ir

(* ------------------------------------------------------------------ *)
(* Pass 2: interval re-verification of unchecked instructions.         *)
(*                                                                     *)
(* The compiler may elide bounds/zero checks where its own analysis    *)
(* proved them redundant, attaching the proving interval to the        *)
(* program as a claim. Claims are untrusted: this pass re-derives      *)
(* intervals from the bytecode alone — per-function dataflow over an   *)
(* abstract operand stack and local file — and admits an unchecked     *)
(* instruction only if derived ⊆ claim ⊆ legal. Operand provenance     *)
(* (which local or constant produced a stack slot) is tracked just far *)
(* enough to mirror the compiler's two refinements: comparison-guarded *)
(* branches, and the success path of a checked array access.           *)
(* ------------------------------------------------------------------ *)

(* Provenance of an abstract stack slot. [Snot] preserves truthiness
   through boolean negation so guard refinement can flip it back. *)
type src = Sloc of int | Sk of int | Stop
type sym = Snone | Sconst of int | Slocal of int | Snot of sym
         | Scmp of Ir.cmp * src * src

(* A write to local [n] invalidates any provenance that mentions it:
   the recorded comparison still holds of the old value, not the new
   one. *)
let rec kill_sym n = function
  | Slocal m when m = n -> Snone
  | Snot s -> Snot (kill_sym n s)
  | Scmp (c, a, b) ->
      let k = function Sloc m when m = n -> Stop | s -> s in
      Scmp (c, k a, k b)
  | s -> s

let src_of = function Sconst k -> Sk k | Slocal n -> Sloc n | _ -> Stop

(* Assume the value described by [sym] tested [truth] and narrow
   [locals] in place; returns [false] when the assumption is
   contradictory, i.e. the edge is unreachable. *)
let rec refine_sym locals sym truth =
  match sym with
  | Snone -> true
  | Sconst k -> (k <> 0) = truth
  | Snot s -> refine_sym locals s (not truth)
  | Slocal n ->
      let c = if truth then Ir.Ne else Ir.Eq in
      let iv', _ = I.refine_cmp c locals.(n) (I.const 0) in
      if I.is_bot iv' then false
      else begin
        locals.(n) <- iv';
        true
      end
  | Scmp (c, a, b) ->
      let c = if truth then c else I.negate_cmp c in
      let side = function
        | Sloc n -> locals.(n)
        | Sk k -> I.const k
        | Stop -> I.top
      in
      let ia', ib' = I.refine_cmp c (side a) (side b) in
      if I.is_bot ia' || I.is_bot ib' then false
      else begin
        (match a with Sloc n -> locals.(n) <- ia' | _ -> ());
        (match b with Sloc n -> locals.(n) <- ib' | _ -> ());
        true
      end

let is_unchecked = function
  | Opcode.Aload_u _ | Opcode.Astore_u _ | Opcode.Div_u | Opcode.Mod_u
  | Opcode.Mlookup_u _ | Opcode.Mupdate_u _ ->
      true
  | _ -> false

(* Joins at a program point widen only after the point has been visited
   this many times. The threshold is deliberately generous: the
   compiler's analysis widens loop heads almost immediately, so its
   claims already absorb widening; the verifier must stay at least as
   precise, and small counted loops (the common case) converge exactly
   well before the cutoff. *)
let widen_after = 300

let check_elisions (p : Program.t) : (unit, string) result =
  let ncode = Array.length p.code in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt in
  let claims = Hashtbl.create 16 in
  let legal_claim pc claim =
    match p.code.(pc) with
    | Opcode.Aload_u a ->
        if not (I.leq claim (I.range 0 (p.arrays.(a).Program.len - 1))) then
          bad "claim %s at %d exceeds the bounds of array %d" (I.to_string claim)
            pc a
    | Opcode.Astore_u a ->
        if not (I.leq claim (I.range 0 (p.arrays.(a).Program.len - 1))) then
          bad "claim %s at %d exceeds the bounds of array %d" (I.to_string claim)
            pc a;
        if not p.arrays.(a).Program.writable then
          bad "unchecked store to read-only array %d at %d" a pc
    | Opcode.Div_u | Opcode.Mod_u ->
        if I.contains claim 0 then
          bad "claimed divisor %s at %d admits zero" (I.to_string claim) pc
    | Opcode.Mlookup_u m | Opcode.Mupdate_u m -> (
        if m < 0 || m >= Array.length p.maps then
          bad "map id %d out of range at %d" m pc;
        match Graft_kernel.Graftmap.backing p.maps.(m) with
        | None -> bad "unchecked access to non-array map %d at %d" m pc
        | Some _ ->
            let cap = Graft_kernel.Graftmap.max_entries p.maps.(m) in
            if not (I.leq claim (I.range 0 (cap - 1))) then
              bad "claim %s at %d exceeds the bounds of map %d"
                (I.to_string claim) pc m)
    | _ -> bad "proof attached to a checked instruction at %d" pc
  in
  let setup () =
    Array.iter
      (fun (pc, claim) ->
        if pc < 0 || pc >= ncode then bad "proof at invalid pc %d" pc;
        if Hashtbl.mem claims pc then bad "duplicate proof at %d" pc;
        legal_claim pc claim;
        Hashtbl.add claims pc claim)
      p.proofs
  in
  let check_func fi (f : Program.funcdesc) =
    let lo = f.Program.entry and hi = f.Program.code_end in
    let states = Array.make (max 1 (hi - lo)) None in
    let visits = Array.make (max 1 (hi - lo)) 0 in
    (* Widening points: targets of back edges (by pc order). Every CFG
       cycle's minimum pc is entered from a higher pc inside the cycle,
       so every cycle contains one — enough for termination — while
       straight-line merge points keep plain joins, so the narrowing a
       guard proves is not thrown away downstream of a widened loop
       head. *)
    let widen_at = Array.make (max 1 (hi - lo)) false in
    for pc = lo to hi - 1 do
      match p.code.(pc) with
      | Opcode.Jmp t | Opcode.Jz t | Opcode.Jnz t ->
          if t >= lo && t <= pc then widen_at.(t - lo) <- true
      | _ -> ()
    done;
    let worklist = Queue.create () in
    let sym_join a b = if a = b then a else Snone in
    let schedule pc (locals, stack) =
      if pc < lo || pc >= hi then
        bad "function %d (%s): pass-2 jump target %d outside [%d,%d)" fi
          f.Program.name pc lo hi;
      let i = pc - lo in
      match states.(i) with
      | None ->
          states.(i) <- Some (locals, stack);
          Queue.add pc worklist
      | Some (ol, os) ->
          if List.length os <> List.length stack then
            bad "function %d (%s): pass-2 stack height mismatch at %d" fi
              f.Program.name pc;
          let wide = widen_at.(i) && visits.(i) > widen_after in
          let up old now =
            let j = I.join old now in
            if wide then I.widen old j else j
          in
          let jl = Array.mapi (fun k v -> up v locals.(k)) ol in
          let js =
            List.map2
              (fun (oiv, osym) (iv, sym) -> (up oiv iv, sym_join osym sym))
              os stack
          in
          let changed =
            (not (Array.for_all2 I.equal jl ol))
            || not (List.for_all2 (fun (a, sa) (b, sb) -> I.equal a b && sa = sb) js os)
          in
          if changed then begin
            states.(i) <- Some (jl, js);
            Queue.add pc worklist
          end
    in
    schedule lo (Array.make (max 1 f.Program.nlocals) I.top, []);
    while not (Queue.is_empty worklist) do
      let pc = Queue.pop worklist in
      visits.(pc - lo) <- visits.(pc - lo) + 1;
      let locals0, stack0 =
        match states.(pc - lo) with Some s -> s | None -> assert false
      in
      let locals = Array.copy locals0 in
      let stack = ref stack0 in
      let push iv sym = stack := (iv, sym) :: !stack in
      let pop () =
        match !stack with
        | [] ->
            bad "function %d (%s): pass-2 underflow at %d" fi f.Program.name pc
        | e :: rest ->
            stack := rest;
            e
      in
      let next () = schedule (pc + 1) (locals, !stack) in
      let claim_of () =
        match Hashtbl.find_opt claims pc with
        | Some c -> c
        | None ->
            bad "function %d (%s): unchecked instruction without proof at %d"
              fi f.Program.name pc
      in
      let require_sub derived claim what =
        if not (I.leq derived claim) then
          bad "function %d (%s): derived %s %s exceeds claim %s at %d" fi
            f.Program.name what (I.to_string derived) (I.to_string claim) pc
      in
      (* On the success path of an array access, a plain-local index is
         known in bounds — the same narrowing the compiler applied. *)
      let post_refine sym arr =
        match sym with
        | Slocal n ->
            locals.(n) <-
              I.meet locals.(n) (I.range 0 (p.arrays.(arr).Program.len - 1))
        | _ -> ()
      in
      let store_local n iv =
        locals.(n) <- iv;
        stack := List.map (fun (iv, s) -> (iv, kill_sym n s)) !stack
      in
      let binop kind op =
        let ib, _ = pop () in
        let ia, _ = pop () in
        push (I.arith kind op ia ib) Snone
      in
      let unop f =
        let iv, _ = pop () in
        push (f iv) Snone
      in
      let cmp c =
        let _, sb = pop () in
        let _, sa = pop () in
        push I.bool_result (Scmp (c, src_of sa, src_of sb))
      in
      let branch target ~jump_truth =
        let iv, sym = pop () in
        let can_false = I.contains iv 0 in
        let can_true = not (I.leq iv (I.const 0)) in
        let edge tgt truth feasible =
          if feasible then begin
            let l2 = Array.copy locals in
            if refine_sym l2 sym truth then schedule tgt (l2, !stack)
          end
        in
        edge target jump_truth (if jump_truth then can_true else can_false);
        edge (pc + 1) (not jump_truth)
          (if jump_truth then can_false else can_true)
      in
      match p.code.(pc) with
      | Opcode.Const n ->
          push (I.const n) (Sconst n);
          next ()
      | Opcode.Load_local n ->
          push locals.(n) (Slocal n);
          next ()
      | Opcode.Store_local n ->
          let iv, _ = pop () in
          store_local n iv;
          next ()
      | Opcode.Load_global _ ->
          push I.top Snone;
          next ()
      | Opcode.Store_global _ ->
          ignore (pop ());
          next ()
      | Opcode.Aload a ->
          let _, si = pop () in
          post_refine si a;
          push I.top Snone;
          next ()
      | Opcode.Astore a ->
          ignore (pop ());
          let _, si = pop () in
          post_refine si a;
          next ()
      | Opcode.Aload_u a ->
          let claim = claim_of () in
          let iv, si = pop () in
          require_sub iv claim "index";
          post_refine si a;
          push I.top Snone;
          next ()
      | Opcode.Astore_u a ->
          let claim = claim_of () in
          ignore (pop ());
          let iv, si = pop () in
          require_sub iv claim "index";
          post_refine si a;
          next ()
      | Opcode.Mlookup _ ->
          ignore (pop ());
          push I.top Snone;
          next ()
      | Opcode.Mupdate _ ->
          ignore (pop ());
          ignore (pop ());
          push I.top Snone;
          next ()
      | Opcode.Mlookup_u _ ->
          let claim = claim_of () in
          let iv, _ = pop () in
          require_sub iv claim "map key";
          push I.top Snone;
          next ()
      | Opcode.Mupdate_u _ ->
          let claim = claim_of () in
          ignore (pop ());
          let iv, _ = pop () in
          require_sub iv claim "map key";
          push I.top Snone;
          next ()
      | Opcode.Div_u ->
          let claim = claim_of () in
          let ib, _ = pop () in
          let ia, _ = pop () in
          require_sub ib claim "divisor";
          push (I.arith Ir.Kint Ir.Div ia ib) Snone;
          next ()
      | Opcode.Mod_u ->
          let claim = claim_of () in
          let ib, _ = pop () in
          let ia, _ = pop () in
          require_sub ib claim "divisor";
          push (I.arith Ir.Kint Ir.Mod ia ib) Snone;
          next ()
      | Opcode.Add -> binop Ir.Kint Ir.Add; next ()
      | Opcode.Sub -> binop Ir.Kint Ir.Sub; next ()
      | Opcode.Mul -> binop Ir.Kint Ir.Mul; next ()
      | Opcode.Div -> binop Ir.Kint Ir.Div; next ()
      | Opcode.Mod -> binop Ir.Kint Ir.Mod; next ()
      | Opcode.Shl -> binop Ir.Kint Ir.Shl; next ()
      | Opcode.Shr -> binop Ir.Kint Ir.Shr; next ()
      | Opcode.Lshr -> binop Ir.Kint Ir.Lshr; next ()
      | Opcode.Band -> binop Ir.Kint Ir.Band; next ()
      | Opcode.Bor -> binop Ir.Kint Ir.Bor; next ()
      | Opcode.Bxor -> binop Ir.Kint Ir.Bxor; next ()
      | Opcode.Wadd -> binop Ir.Kword Ir.Add; next ()
      | Opcode.Wsub -> binop Ir.Kword Ir.Sub; next ()
      | Opcode.Wmul -> binop Ir.Kword Ir.Mul; next ()
      | Opcode.Wshl -> binop Ir.Kword Ir.Shl; next ()
      | Opcode.Wshr -> binop Ir.Kword Ir.Shr; next ()
      | Opcode.Bnot -> unop (I.bnot Ir.Kint); next ()
      | Opcode.Neg -> unop (I.neg_k Ir.Kint); next ()
      | Opcode.Wbnot -> unop (I.bnot Ir.Kword); next ()
      | Opcode.Wneg -> unop (I.neg_k Ir.Kword); next ()
      | Opcode.Wmask -> unop I.to_word; next ()
      | Opcode.Lt -> cmp Ir.Lt; next ()
      | Opcode.Le -> cmp Ir.Le; next ()
      | Opcode.Gt -> cmp Ir.Gt; next ()
      | Opcode.Ge -> cmp Ir.Ge; next ()
      | Opcode.Eq -> cmp Ir.Eq; next ()
      | Opcode.Ne -> cmp Ir.Ne; next ()
      | Opcode.Tobool ->
          (* Truth-preserving: keep the provenance so a later branch can
             still refine through it. *)
          let _, s = pop () in
          push I.bool_result s;
          next ()
      | Opcode.Not ->
          let _, s = pop () in
          push I.bool_result (Snot s);
          next ()
      | Opcode.Jmp t -> schedule t (locals, !stack)
      | Opcode.Jz t -> branch t ~jump_truth:false
      | Opcode.Jnz t -> branch t ~jump_truth:true
      | Opcode.Call target ->
          for _ = 1 to p.funcs.(target).Program.nargs do
            ignore (pop ())
          done;
          push I.top Snone;
          next ()
      | Opcode.Callext target ->
          for _ = 1 to p.ext_arity.(target) do
            ignore (pop ())
          done;
          push I.top Snone;
          next ()
      | Opcode.Ret -> ignore (pop ())
      | Opcode.Pop ->
          ignore (pop ());
          next ()
      | Opcode.Dup ->
          let iv, s = pop () in
          push iv s;
          push iv s;
          next ()
      | Opcode.Halt ->
          (* Pass 1 rejects any reachable Halt, and this pass explores
             a subset of pass 1's reachable set. *)
          ()
    done
  in
  if Array.length p.proofs = 0 && not (Array.exists is_unchecked p.code) then
    Ok ()
  else
    try
      setup ();
      (* Every unchecked instruction must carry a claim, even if this
         pass never reaches it: unreachable unchecked code is dead
         weight the compiler has no business emitting. *)
      Array.iteri
        (fun pc op ->
          if is_unchecked op && not (Hashtbl.mem claims pc) then
            bad "unchecked instruction without proof at %d" pc)
        p.code;
      Array.iteri check_func p.funcs;
      Ok ()
    with Bad msg -> Error msg


(* ------------------------------------------------------------------ *)
(* Pass 3 (bounded loading only): backward jumps are admitted only     *)
(* under a loop-bound certificate the verifier re-derives itself.      *)
(*                                                                     *)
(* The certificate names a counter, its constant initialiser, limit    *)
(* and step, and a trip count. None of that is trusted: the pass       *)
(* re-reads the canonical counted-loop windows straight from the       *)
(* bytecode — init [Const v; Store_local c] immediately before the     *)
(* head, head [Load_local c; Const k; CMP; Jz exit], step              *)
(* [Load_local c; Const s; Add/Sub; Store_local c] immediately before  *)
(* the backward Jmp — recomputes the closed-form trip count, and       *)
(* requires exact agreement with the claim. It further checks that     *)
(* nothing else in the loop writes the counter and that no jump from   *)
(* outside enters the loop past the initialiser, so the re-derived     *)
(* bound covers every execution that can reach the back edge.          *)
(* ------------------------------------------------------------------ *)

let check_bounds (p : Program.t) : (unit, string) result =
  let ncode = Array.length p.code in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt in
  let disasm pc = Opcode.to_string p.code.(pc) in
  let writes_local n = function Opcode.Store_local m -> m = n | _ -> false in
  let targets = function
    | Opcode.Jmp t | Opcode.Jz t | Opcode.Jnz t -> [ t ]
    | _ -> []
  in
  let cmp_of pc =
    match p.code.(pc) with
    | Opcode.Lt -> Some Ir.Lt
    | Opcode.Le -> Some Ir.Le
    | Opcode.Gt -> Some Ir.Gt
    | Opcode.Ge -> Some Ir.Ge
    | _ -> None
  in
  (* Re-derive the loop windows for a backward [Jmp t] at [b] and check
     them against certificate [c]. *)
  let check_window b t (c : Graft_analysis.Loopbound.cert) =
    let fail reason = bad "backward jump at %d (%s): %s" b (disasm b) reason in
    (* The whole loop, initialiser included, must sit inside one
       function so the windows cannot straddle an entry point. *)
    let in_one_func =
      Array.exists
        (fun (f : Program.funcdesc) ->
          t - 2 >= f.Program.entry && b < f.Program.code_end)
        p.funcs
    in
    if t < 2 || b - 4 < t + 4 || not in_one_func then
      fail "loop too small to carry the certified windows";
    (* Head: Load_local c; Const k; CMP; Jz exit, with exit past b. *)
    let counter =
      match p.code.(t) with
      | Opcode.Load_local n -> n
      | _ -> fail "loop head does not read a counter local"
    in
    let limit =
      match p.code.(t + 1) with
      | Opcode.Const k -> k
      | _ -> fail "loop head has no constant limit"
    in
    let cmp =
      match cmp_of (t + 2) with
      | Some cm -> cm
      | None -> fail "loop head comparison is not Lt/Le/Gt/Ge"
    in
    (match p.code.(t + 3) with
    | Opcode.Jz e when e > b -> ()
    | _ -> fail "loop head does not exit past the back edge");
    (* Initialiser: Const v; Store_local c immediately before the head. *)
    let init =
      match (p.code.(t - 2), p.code.(t - 1)) with
      | Opcode.Const v, Opcode.Store_local n when n = counter -> v
      | _ -> fail "counter has no constant initialiser before the loop"
    in
    (* Step: Load_local c; Const s; Add/Sub; Store_local c just before
       the back edge. *)
    let step, down =
      match
        (p.code.(b - 4), p.code.(b - 3), p.code.(b - 2), p.code.(b - 1))
      with
      | ( Opcode.Load_local n,
          Opcode.Const s,
          (Opcode.Add | Opcode.Sub),
          Opcode.Store_local n' )
        when n = counter && n' = counter ->
          (s, p.code.(b - 2) = Opcode.Sub)
      | _ -> fail "back edge is not preceded by a constant counter step"
    in
    if step < 1 then fail "counter step is not positive";
    (match (cmp, down) with
    | (Ir.Lt | Ir.Le), false | (Ir.Gt | Ir.Ge), true -> ()
    | _ -> fail "counter step does not advance toward the limit");
    (* The step window is the only counter write inside the loop. *)
    for pc = t to b do
      if pc <> b - 1 && writes_local counter p.code.(pc) then
        fail
          (Printf.sprintf "counter is also written at %d (%s)" pc (disasm pc))
    done;
    (* No jump from outside may enter past the initialiser: an entry
       that skips [Const v; Store_local c] — even one landing on the
       [Store_local] alone, which would seed the counter from an
       arbitrary stack value — would start the counter at an unproven
       value. Only [t - 2], the initialiser's [Const], is a legal entry. *)
    for pc = 0 to ncode - 1 do
      if pc < t - 2 || pc > b then
        List.iter
          (fun u ->
            if u >= t - 1 && u <= b then
              bad "jump at %d (%s) enters a certified loop at %d" pc
                (disasm pc) u)
          (targets p.code.(pc))
    done;
    (* Nor may any jump — even from inside the body — land past the
       step window's start: reaching the back edge must mean the whole
       [Load_local; Const; Add; Store_local] step just ran, or a body
       jump straight to the back edge would iterate without ever
       advancing the counter and the certified bound would not cover
       that path. (A jump to b-4, the step's first instruction, is the
       compiled [continue] and runs the full step.) *)
    for pc = 0 to ncode - 1 do
      List.iter
        (fun u ->
          if u > b - 4 && u <= b then
            bad "jump at %d (%s) enters a certified loop's step window at %d"
              pc (disasm pc) u)
        (targets p.code.(pc))
    done;
    (* Recompute the closed form and require exact agreement. *)
    match Graft_analysis.Loopbound.trips ~init ~limit ~cmp ~step with
    | None -> fail "re-derived trip count diverges or exceeds the ceiling"
    | Some n ->
        if
          c.Graft_analysis.Loopbound.c_counter <> counter
          || c.Graft_analysis.Loopbound.c_init <> init
          || c.Graft_analysis.Loopbound.c_limit <> limit
          || c.Graft_analysis.Loopbound.c_cmp <> cmp
          || c.Graft_analysis.Loopbound.c_step <> step
          || c.Graft_analysis.Loopbound.c_trips <> n
        then
          fail
            (Printf.sprintf "certificate (%s) does not match the re-derived bound"
               (Graft_analysis.Loopbound.to_string c))
  in
  let certs = Hashtbl.create 8 in
  try
    Array.iter
      (fun (pc, c) ->
        if pc < 0 || pc >= ncode then bad "loop certificate at invalid pc %d" pc;
        (match p.code.(pc) with
        | Opcode.Jmp t when t <= pc -> ()
        | _ ->
            bad "loop certificate at %d (%s) is not a backward jmp" pc
              (disasm pc));
        if Hashtbl.mem certs pc then bad "duplicate loop certificate at %d" pc;
        Hashtbl.add certs pc c)
      p.loop_bounds;
    Array.iteri
      (fun pc instr ->
        match instr with
        | Opcode.Jz t | Opcode.Jnz t when t <= pc ->
            bad "conditional backward jump at %d (%s)" pc (disasm pc)
        | Opcode.Jmp t when t <= pc -> (
            match Hashtbl.find_opt certs pc with
            | Some c -> check_window pc t c
            | None ->
                bad "backward jump at %d (%s) without a loop-bound certificate"
                  pc (disasm pc))
        | _ -> ())
      p.code;
    Ok ()
  with Bad msg -> Error msg

let verify ?(bounded = false) (p : Program.t) : (unit, string) result =
  let ncode = Array.length p.code in
  let nfuncs = Array.length p.funcs in
  let narrays = Array.length p.arrays in
  let nexterns = Array.length p.host in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt in
  (* Static tables. *)
  let check_tables () =
    if Array.length p.ext_arity <> nexterns then
      bad "extern arity table length mismatch";
    if Array.length p.ext_names <> nexterns then
      bad "extern name table length mismatch";
    (* Helper-named externs must match the typed helper table: every
       verifier holds grafts to the same helper ABI. *)
    Array.iteri
      (fun i name ->
        match Graft_analysis.Helpers.find name with
        | Some h when p.ext_arity.(i) <> h.Graft_analysis.Helpers.h_arity ->
            bad "extern %d (%s): arity %d does not match helper signature %d" i
              name p.ext_arity.(i) h.Graft_analysis.Helpers.h_arity
        | _ -> ())
      p.ext_names;
    Array.iteri
      (fun i (f : Program.funcdesc) ->
        if f.Program.entry < 0 || f.Program.entry > f.Program.code_end
           || f.Program.code_end > ncode then
          bad "function %d (%s): bad code extent" i f.Program.name;
        if f.Program.nargs < 0 || f.Program.nargs > f.Program.nlocals then
          bad "function %d (%s): more args than locals" i f.Program.name;
        if f.Program.nlocals > max_locals then
          bad "function %d (%s): too many locals" i f.Program.name)
      p.funcs;
    Array.iteri
      (fun i (a : Program.arrdesc) ->
        if a.Program.base < 0 || a.Program.len < 0
           || a.Program.base + a.Program.len > Array.length p.cells then
          bad "array %d: descriptor outside the address space" i)
      p.arrays
  in
  (* Per-function stack-height dataflow. *)
  let check_func fi (f : Program.funcdesc) =
    let lo = f.Program.entry and hi = f.Program.code_end in
    let heights = Array.make (hi - lo) (-1) in
    let worklist = Queue.create () in
    let schedule pc h =
      if pc < lo || pc >= hi then
        bad "function %d (%s): jump target %d outside [%d,%d)" fi
          f.Program.name pc lo hi;
      let cur = heights.(pc - lo) in
      if cur = -1 then begin
        heights.(pc - lo) <- h;
        Queue.add pc worklist
      end
      else if cur <> h then
        bad "function %d (%s): inconsistent stack height at %d (%d vs %d)" fi
          f.Program.name pc cur h
    in
    schedule lo 0;
    while not (Queue.is_empty worklist) do
      let pc = Queue.pop worklist in
      let h = heights.(pc - lo) in
      let instr = p.code.(pc) in
      let pops, pushes =
        match instr with
        | Opcode.Call target ->
            if target < 0 || target >= nfuncs then
              bad "function %d (%s): call to invalid function %d" fi
                f.Program.name target;
            (p.funcs.(target).Program.nargs, 1)
        | Opcode.Callext target ->
            if target < 0 || target >= nexterns then
              bad "function %d (%s): call to invalid extern %d" fi
                f.Program.name target;
            (p.ext_arity.(target), 1)
        | op -> Opcode.effect op
      in
      if h < pops then
        bad "function %d (%s): stack underflow at %d (%s)" fi f.Program.name
          pc (Opcode.to_string instr);
      let h' = h - pops + pushes in
      if h' > max_stack then
        bad "function %d (%s): stack overflow at %d" fi f.Program.name pc;
      (* Operand validity. *)
      (match instr with
      | Opcode.Load_local n | Opcode.Store_local n ->
          if n < 0 || n >= f.Program.nlocals then
            bad "function %d (%s): local %d out of range at %d" fi
              f.Program.name n pc
      | Opcode.Load_global a | Opcode.Store_global a ->
          if a < 0 || a >= Array.length p.cells then
            bad "function %d (%s): global address %d out of range" fi
              f.Program.name a
      | Opcode.Aload a | Opcode.Astore a | Opcode.Aload_u a
      | Opcode.Astore_u a ->
          if a < 0 || a >= narrays then
            bad "function %d (%s): array id %d out of range" fi f.Program.name a
      | Opcode.Mlookup m | Opcode.Mupdate m | Opcode.Mlookup_u m
      | Opcode.Mupdate_u m ->
          if m < 0 || m >= Array.length p.maps then
            bad "function %d (%s): map id %d out of range at %d (%s)" fi
              f.Program.name m pc (Opcode.to_string instr)
      | Opcode.Halt ->
          bad "function %d (%s): reachable halt at %d (unpatched jump?)" fi
            f.Program.name pc
      | _ -> ());
      (* Successors. *)
      (match instr with
      | Opcode.Jmp t -> schedule t h'
      | Opcode.Jz t | Opcode.Jnz t ->
          schedule t h';
          schedule (pc + 1) h'
      | Opcode.Ret -> ()
      | _ ->
          if pc + 1 >= hi then
            bad "function %d (%s): control falls off the end" fi f.Program.name;
          schedule (pc + 1) h')
    done
  in
  match
    try
      check_tables ();
      Array.iteri check_func p.funcs;
      Ok ()
    with Bad msg -> Error msg
  with
  | Error _ as e -> e
  | Ok () -> (
      match if bounded then check_bounds p else Ok () with
      | Error _ as e -> e
      | Ok () -> check_elisions p)

