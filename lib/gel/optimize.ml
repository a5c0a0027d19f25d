(** IR-level optimizer: constant folding, algebraic identities, branch
    pruning, and dead-code elimination.

    Every rewrite is fault-preserving: expressions that can fault at
    runtime (division/modulo with a non-constant or zero divisor, array
    loads, calls) are never deleted or folded past. Fuel consumption is
    an execution budget, not observable semantics, so optimized
    programs may run on less fuel.

    The cross-engine fuzzer (test/test_fuzz.ml) checks optimized
    programs against unoptimized ones on the AST interpreter and the
    bytecode VM. *)

(* An expression is pure when evaluating it can neither fault nor have
   effects — only those may be deleted or duplicated. *)
let rec pure (e : Ir.expr) =
  match e with
  | Ir.Const _ | Ir.Local _ | Ir.Global _ -> true
  | Ir.Arith (_, (Ir.Div | Ir.Mod), a, b) -> (
      pure a && match b with Ir.Const n -> n <> 0 | _ -> false)
  | Ir.Arith (_, _, a, b) | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      pure a && pure b
  | Ir.Not a | Ir.Bnot (_, a) | Ir.Neg (_, a) | Ir.ToWord a | Ir.ToBool a ->
      pure a
  | Ir.Load _ (* may fault *) | Ir.Call _ | Ir.CallExt _ -> false

let rec expr (e : Ir.expr) : Ir.expr =
  match e with
  | Ir.Const _ | Ir.Local _ | Ir.Global _ -> e
  | Ir.Load (a, i) -> Ir.Load (a, expr i)
  | Ir.Arith (kind, op, a, b) -> arith kind op (expr a) (expr b)
  | Ir.Cmp (c, a, b) -> (
      let a = expr a and b = expr b in
      match (a, b) with
      | Ir.Const x, Ir.Const y -> Ir.Const (Interp.compare_vals c x y)
      | _ -> Ir.Cmp (c, a, b))
  | Ir.Not a -> (
      match expr a with
      | Ir.Const n -> Ir.Const (if n = 0 then 1 else 0)
      | Ir.Not b -> b (* operands of Not are bool-typed: 0/1 *)
      | a -> Ir.Not a)
  | Ir.Bnot (k, a) -> (
      match expr a with
      | Ir.Const n ->
          Ir.Const (if k = Ir.Kword then Wordops.bnot n else lnot n)
      | a -> Ir.Bnot (k, a))
  | Ir.Neg (k, a) -> (
      match expr a with
      | Ir.Const n -> Ir.Const (if k = Ir.Kword then Wordops.neg n else -n)
      | a -> Ir.Neg (k, a))
  | Ir.And (a, b) -> (
      match expr a with
      | Ir.Const 0 -> Ir.Const 0
      | Ir.Const _ -> expr b (* b is bool-typed *)
      | a -> Ir.And (a, expr b))
  | Ir.Or (a, b) -> (
      match expr a with
      | Ir.Const 0 -> expr b
      | Ir.Const _ -> Ir.Const 1
      | a -> Ir.Or (a, expr b))
  | Ir.Call (f, args) -> Ir.Call (f, Array.map expr args)
  | Ir.CallExt (f, args) -> Ir.CallExt (f, Array.map expr args)
  | Ir.ToWord a -> (
      match expr a with
      | Ir.Const n -> Ir.Const (Wordops.of_int n)
      | a -> Ir.ToWord a)
  | Ir.ToBool a -> (
      match expr a with
      | Ir.Const n -> Ir.Const (if n = 0 then 0 else 1)
      | (Ir.Cmp _ | Ir.Not _ | Ir.And _ | Ir.Or _ | Ir.ToBool _) as b ->
          b (* already 0/1 *)
      | a -> Ir.ToBool a)

and arith kind op a b =
  match (a, b) with
  | Ir.Const x, Ir.Const y -> (
      (* Fold through the interpreter's own semantics so engines and
         optimizer cannot drift; never fold a faulting division. *)
      match Interp.arith kind op x y with
      | v -> Ir.Const v
      | exception Graft_mem.Fault.Fault _ -> Ir.Arith (kind, op, a, b))
  | _ -> (
      (* Canonicalize the constant of a commutative operator to the
         right, so the stack VM sees one [operand; Const k; op] shape.
         Constant evaluation has no effects, so reordering it past the
         other operand is unobservable. *)
      let a, b =
        match (op, a, b) with
        | (Ir.Add | Ir.Mul | Ir.Band | Ir.Bor | Ir.Bxor), (Ir.Const _ as c), e
          ->
            (e, c)
        | _ -> (a, b)
      in
      (* Algebraic identities. Forms that would delete a subexpression
         require it to be pure. *)
      match (op, a, b) with
      | Ir.Add, Ir.Const 0, e | Ir.Add, e, Ir.Const 0 -> e
      | Ir.Sub, e, Ir.Const 0 -> e
      | Ir.Mul, Ir.Const 1, e | Ir.Mul, e, Ir.Const 1 -> e
      | Ir.Mul, Ir.Const 0, e when pure e -> Ir.Const 0
      | Ir.Mul, e, Ir.Const 0 when pure e -> Ir.Const 0
      | Ir.Bor, Ir.Const 0, e | Ir.Bor, e, Ir.Const 0 -> e
      | Ir.Bxor, Ir.Const 0, e | Ir.Bxor, e, Ir.Const 0 -> e
      | Ir.Band, Ir.Const 0, e when pure e -> Ir.Const 0
      | Ir.Band, e, Ir.Const 0 when pure e -> Ir.Const 0
      | (Ir.Shl | Ir.Shr), e, Ir.Const 0 -> e
      (* [e >>> 0] is NOT the identity on int: int_lshr masks the sign
         bit ([a land max_int]) before shifting. Word values are
         nonnegative, so at Kword the identity holds. *)
      | Ir.Lshr, e, Ir.Const 0 when kind = Ir.Kword -> e
      | Ir.Div, e, Ir.Const 1 -> e
      | _ -> Ir.Arith (kind, op, a, b))

let rec stmt (s : Ir.stmt) : Ir.stmt list =
  match s with
  | Ir.Set_local (slot, e) -> [ Ir.Set_local (slot, expr e) ]
  | Ir.Set_global (slot, e) -> [ Ir.Set_global (slot, expr e) ]
  | Ir.Store (a, i, v) -> [ Ir.Store (a, expr i, expr v) ]
  | Ir.If (c, t, f) -> (
      match expr c with
      | Ir.Const 0 -> block f
      | Ir.Const _ -> block t
      | c -> [ Ir.If (c, block t, block f) ])
  | Ir.While (c, body, step) -> (
      match expr c with
      | Ir.Const 0 -> []
      | c -> [ Ir.While (c, block body, block step) ])
  | Ir.Return e -> [ Ir.Return (Option.map expr e) ]
  | Ir.Break | Ir.Continue -> [ s ]
  | Ir.Eval e ->
      let e = expr e in
      if pure e then [] else [ Ir.Eval e ]
  | Ir.At (pos, s) -> List.map (fun s' -> Ir.At (pos, s')) (stmt s)

and block stmts =
  (* Statements after an always-taken Return/Break/Continue are dead. *)
  let rec go = function
    | [] -> []
    | s :: rest -> (
        let out = stmt s in
        match List.rev out with
        | (Ir.Return _ | Ir.Break | Ir.Continue) :: _ -> out
        | _ -> out @ go rest)
  in
  go stmts

(* ------------------------------------------------------------------ *)
(* Dead-store elimination.                                             *)
(* ------------------------------------------------------------------ *)

(* Does evaluating [e] read local slot [s]? Calls cannot: locals are
   function-private, so a call can neither read nor write the caller's
   slots. (Globals get no such pass — a call may read any global, so a
   global store is only provably dead with interprocedural analysis.) *)
let rec reads_local s (e : Ir.expr) =
  match e with
  | Ir.Local s' -> s = s'
  | Ir.Const _ | Ir.Global _ -> false
  | Ir.Load (_, i) -> reads_local s i
  | Ir.Arith (_, _, a, b) | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      reads_local s a || reads_local s b
  | Ir.Not a | Ir.Bnot (_, a) | Ir.Neg (_, a) | Ir.ToWord a | Ir.ToBool a ->
      reads_local s a
  | Ir.Call (_, args) | Ir.CallExt (_, args) ->
      Array.exists (reads_local s) args

(* A store to a local that the very next statement overwrites without
   reading is dead, provided evaluating the dead value cannot fault.
   Straight-line adjacency keeps the analysis trivially sound: nothing
   can observe the slot between the two stores. *)
let rec dse_block (stmts : Ir.stmt list) : Ir.stmt list =
  match stmts with
  | Ir.Set_local (s, e) :: (Ir.Set_local (s', e') :: _ as rest)
    when s = s' && pure e && not (reads_local s e') ->
      dse_block rest
  | s :: rest -> dse_stmt s :: dse_block rest
  | [] -> []

and dse_stmt = function
  | Ir.If (c, t, f) -> Ir.If (c, dse_block t, dse_block f)
  | Ir.While (c, body, step) -> Ir.While (c, dse_block body, dse_block step)
  | Ir.At (pos, s) -> Ir.At (pos, dse_stmt s)
  | s -> s

let func (f : Ir.func) = { f with Ir.body = dse_block (block f.Ir.body) }

(* ------------------------------------------------------------------ *)
(* Leaf-call inlining.                                                 *)
(* ------------------------------------------------------------------ *)

(* A callee is inlinable when its whole body is [return e] with [e]
   call-free, small, and reading only its parameters. Substituting the
   body at the call site removes a frame push/pop and the argument
   shuffle per call, and exposes the body to the caller's constant
   folding and, downstream, bytecode fusion. The size cap bounds code
   growth. *)
let inline_cap = 24

let rec esize = function
  | Ir.Const _ | Ir.Local _ | Ir.Global _ -> 1
  | Ir.Load (_, e)
  | Ir.Not e
  | Ir.Bnot (_, e)
  | Ir.Neg (_, e)
  | Ir.ToWord e
  | Ir.ToBool e ->
      1 + esize e
  | Ir.Arith (_, _, a, b) | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      1 + esize a + esize b
  | Ir.Call (_, args) | Ir.CallExt (_, args) ->
      Array.fold_left (fun n e -> n + esize e) 1 args

let rec call_free = function
  | Ir.Call _ | Ir.CallExt _ -> false
  | Ir.Const _ | Ir.Local _ | Ir.Global _ -> true
  | Ir.Load (_, e)
  | Ir.Not e
  | Ir.Bnot (_, e)
  | Ir.Neg (_, e)
  | Ir.ToWord e
  | Ir.ToBool e ->
      call_free e
  | Ir.Arith (_, _, a, b) | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      call_free a && call_free b

let rec locals_below n = function
  | Ir.Local i -> i < n
  | Ir.Const _ | Ir.Global _ -> true
  | Ir.Load (_, e)
  | Ir.Not e
  | Ir.Bnot (_, e)
  | Ir.Neg (_, e)
  | Ir.ToWord e
  | Ir.ToBool e ->
      locals_below n e
  | Ir.Arith (_, _, a, b) | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      locals_below n a && locals_below n b
  | Ir.Call (_, args) | Ir.CallExt (_, args) ->
      Array.for_all (locals_below n) args

let inline_candidate (f : Ir.func) =
  match f.Ir.body with
  | [ Ir.Return (Some e) ]
    when call_free e && esize e <= inline_cap
         && locals_below (List.length f.Ir.fparams) e ->
      Some e
  | _ -> None

(* Replace parameter reads with the caller-side expressions. Candidates
   are call-free, so the Call cases are unreachable. *)
let rec subst env (e : Ir.expr) : Ir.expr =
  match e with
  | Ir.Local i -> env.(i)
  | Ir.Const _ | Ir.Global _ -> e
  | Ir.Load (a, i) -> Ir.Load (a, subst env i)
  | Ir.Arith (k, op, a, b) -> Ir.Arith (k, op, subst env a, subst env b)
  | Ir.Cmp (c, a, b) -> Ir.Cmp (c, subst env a, subst env b)
  | Ir.Not a -> Ir.Not (subst env a)
  | Ir.Bnot (k, a) -> Ir.Bnot (k, subst env a)
  | Ir.Neg (k, a) -> Ir.Neg (k, subst env a)
  | Ir.And (a, b) -> Ir.And (subst env a, subst env b)
  | Ir.Or (a, b) -> Ir.Or (subst env a, subst env b)
  | Ir.ToWord a -> Ir.ToWord (subst env a)
  | Ir.ToBool a -> Ir.ToBool (subst env a)
  | Ir.Call _ | Ir.CallExt _ -> assert false

(* Inline candidate calls throughout [p].

   A pure argument is substituted directly into the body (pure
   duplication is free of observable effects); an impure one must be
   evaluated exactly once, in order, so it is bound to a fresh temp
   local in a prelude statement hoisted in front of the enclosing
   statement. Hoisting is sound only when [ok] (the expression is not
   re-evaluated: not a while condition, not the short-circuited side of
   and/or) and when everything the statement evaluates before the call
   is pure ([psf]) — otherwise the call is simply kept. *)
let inline_program (p : Ir.program) : Ir.program =
  let candidates = Array.map inline_candidate p.Ir.funcs in
  let rewrite fi (f : Ir.func) =
    let nlocals = ref f.Ir.nlocals in
    let rec ex ~ok prel psf (e : Ir.expr) : Ir.expr =
      let psf_before = !psf in
      let e' =
        match e with
        | Ir.Const _ | Ir.Local _ | Ir.Global _ -> e
        | Ir.Load (a, i) -> Ir.Load (a, ex ~ok prel psf i)
        | Ir.Arith (k, op, a, b) ->
            let a = ex ~ok prel psf a in
            Ir.Arith (k, op, a, ex ~ok prel psf b)
        | Ir.Cmp (c, a, b) ->
            let a = ex ~ok prel psf a in
            Ir.Cmp (c, a, ex ~ok prel psf b)
        | Ir.Not a -> Ir.Not (ex ~ok prel psf a)
        | Ir.Bnot (k, a) -> Ir.Bnot (k, ex ~ok prel psf a)
        | Ir.Neg (k, a) -> Ir.Neg (k, ex ~ok prel psf a)
        | Ir.ToWord a -> Ir.ToWord (ex ~ok prel psf a)
        | Ir.ToBool a -> Ir.ToBool (ex ~ok prel psf a)
        | Ir.And (a, b) ->
            let a = ex ~ok prel psf a in
            Ir.And (a, ex ~ok:false prel psf b)
        | Ir.Or (a, b) ->
            let a = ex ~ok prel psf a in
            Ir.Or (a, ex ~ok:false prel psf b)
        | Ir.CallExt (g, args) ->
            Ir.CallExt (g, Array.map (ex ~ok prel psf) args)
        | Ir.Call (g, args) -> (
            let args = Array.map (ex ~ok prel psf) args in
            match candidates.(g) with
            | Some body when g <> fi ->
                if Array.for_all pure args then subst args body
                else if ok && psf_before && !nlocals + Array.length args < 4000
                then
                  let env =
                    Array.map
                      (fun a ->
                        if pure a then a
                        else begin
                          let t = !nlocals in
                          incr nlocals;
                          prel := Ir.Set_local (t, a) :: !prel;
                          Ir.Local t
                        end)
                      args
                  in
                  subst env body
                else Ir.Call (g, args)
            | _ -> Ir.Call (g, args))
      in
      if not (pure e') then psf := false;
      e'
    in
    let rec stmt s =
      match s with
      | Ir.At (pos, s) -> List.map (fun s' -> Ir.At (pos, s')) (stmt s)
      | _ ->
      let prel = ref [] and psf = ref true in
      let s' =
        match s with
        | Ir.At _ -> s (* handled above *)
        | Ir.Set_local (n, e) -> Ir.Set_local (n, ex ~ok:true prel psf e)
        | Ir.Set_global (n, e) -> Ir.Set_global (n, ex ~ok:true prel psf e)
        | Ir.Store (a, i, v) ->
            let i = ex ~ok:true prel psf i in
            Ir.Store (a, i, ex ~ok:true prel psf v)
        | Ir.If (c, t, f) ->
            let c = ex ~ok:true prel psf c in
            Ir.If (c, blk t, blk f)
        | Ir.While (c, body, step) ->
            (* The condition re-evaluates every iteration; nothing may
               be hoisted out of it. *)
            Ir.While (ex ~ok:false prel psf c, blk body, blk step)
        | Ir.Return (Some e) -> Ir.Return (Some (ex ~ok:true prel psf e))
        | Ir.Return None | Ir.Break | Ir.Continue -> s
        | Ir.Eval e -> Ir.Eval (ex ~ok:true prel psf e)
      in
      List.rev (s' :: !prel)
    and blk ss = List.concat_map stmt ss in
    let body = blk f.Ir.body in
    { f with Ir.nlocals = !nlocals; Ir.body = body }
  in
  { p with Ir.funcs = Array.mapi rewrite p.Ir.funcs }

(** Optimize every function of a program. The layout (globals, arrays,
    externs) is untouched, so an optimized program links and runs
    against the same memory image. Folding runs before inlining (so
    constant arguments are visible as constants) and again after (to
    simplify the substituted bodies). *)
let program (p : Ir.program) =
  let fold p = { p with Ir.funcs = Array.map func p.Ir.funcs } in
  fold (inline_program (fold p))
