(** Instruction set of the stack bytecode VM, the paper's "Java"
    technology: a compact stack machine executed by a software
    interpreter, with a load-time verifier.

    All values are integers; word (unsigned 32-bit) operations have
    dedicated opcodes that re-mask their result, preserving the
    invariant that word values stay in [0, 2^32). Array opcodes carry
    the array id; bases, lengths and writability live in the program's
    array table so the verifier can reason about them. *)

type t =
  | Const of int
  | Load_local of int
  | Store_local of int
  | Load_global of int  (** absolute cell address *)
  | Store_global of int
  | Aload of int  (** array id; pops index, pushes value *)
  | Astore of int  (** array id; pops value then index *)
  (* Unchecked variants, emitted by the compiler only where static
     analysis proved the check redundant. Each carries a proof
     obligation in the program's manifest that the load-time verifier
     re-establishes independently (see [Verify]); the interpreter runs
     them with no bounds or zero test at all. *)
  | Aload_u of int
  | Astore_u of int
  (* Graft-map access (map id into the program's map table).
     [Mlookup] pops a key and pushes the value; [Mupdate] pops value
     then key, stores, and pushes the success flag. The [_u] variants
     are the check-elided forms for array maps with a verified key
     interval, exactly parallel to [Aload_u]/[Astore_u]. *)
  | Mlookup of int
  | Mupdate of int
  | Mlookup_u of int
  | Mupdate_u of int
  (* int arithmetic *)
  | Add | Sub | Mul | Div | Mod
  | Div_u | Mod_u  (** unchecked: divisor proven non-zero *)
  | Shl | Shr | Lshr
  | Band | Bor | Bxor | Bnot | Neg
  (* word (32-bit wrapping) variants *)
  | Wadd | Wsub | Wmul
  | Wshl | Wshr
  | Wbnot | Wneg
  | Wmask  (** int -> word cast *)
  (* comparisons: push 0/1 *)
  | Lt | Le | Gt | Ge | Eq | Ne
  | Tobool  (** v <> 0 -> 1 | 0 *)
  | Not  (** boolean negation *)
  (* control *)
  | Jmp of int
  | Jz of int  (** jump when popped value = 0 *)
  | Jnz of int
  | Call of int  (** function index; pops the callee's args *)
  | Callext of int  (** extern index *)
  | Ret  (** pops return value, pops frame *)
  | Pop
  | Dup
  | Halt  (** only reachable on compiler bugs; faults *)

(** Stack effect (pops, pushes), with call effects resolved by the
    caller since they depend on the function table. *)
let effect = function
  | Const _ | Load_local _ | Load_global _ -> (0, 1)
  | Store_local _ | Store_global _ -> (1, 0)
  | Aload _ | Aload_u _ | Mlookup _ | Mlookup_u _ -> (1, 1)
  | Astore _ | Astore_u _ -> (2, 0)
  | Mupdate _ | Mupdate_u _ -> (2, 1)
  | Add | Sub | Mul | Div | Mod | Div_u | Mod_u
  | Shl | Shr | Lshr | Band | Bor | Bxor
  | Wadd | Wsub | Wmul | Wshl | Wshr
  | Lt | Le | Gt | Ge | Eq | Ne ->
      (2, 1)
  | Bnot | Neg | Wbnot | Wneg | Wmask | Tobool | Not -> (1, 1)
  | Jmp _ -> (0, 0)
  | Jz _ | Jnz _ -> (1, 0)
  | Call _ | Callext _ -> (0, 0) (* resolved by caller *)
  | Ret -> (1, 0)
  | Pop -> (1, 0)
  | Dup -> (1, 2)
  | Halt -> (0, 0)

(* ------------------------------------------------------------------ *)
(* Opcode classes for the profiler.                                    *)
(* ------------------------------------------------------------------ *)

(** Dense opcode-class index (operands ignored), for profiler counter
    arrays; indexes {!class_names}. *)
let index = function
  | Const _ -> 0
  | Load_local _ -> 1
  | Store_local _ -> 2
  | Load_global _ -> 3
  | Store_global _ -> 4
  | Aload _ -> 5
  | Astore _ -> 6
  | Aload_u _ -> 7
  | Astore_u _ -> 8
  | Add -> 9 | Sub -> 10 | Mul -> 11 | Div -> 12 | Mod -> 13
  | Div_u -> 14 | Mod_u -> 15
  | Shl -> 16 | Shr -> 17 | Lshr -> 18
  | Band -> 19 | Bor -> 20 | Bxor -> 21 | Bnot -> 22 | Neg -> 23
  | Wadd -> 24 | Wsub -> 25 | Wmul -> 26
  | Wshl -> 27 | Wshr -> 28
  | Wbnot -> 29 | Wneg -> 30 | Wmask -> 31
  | Lt -> 32 | Le -> 33 | Gt -> 34 | Ge -> 35 | Eq -> 36 | Ne -> 37
  | Tobool -> 38 | Not -> 39
  | Jmp _ -> 40
  | Jz _ -> 41
  | Jnz _ -> 42
  | Call _ -> 43
  | Callext _ -> 44
  | Ret -> 45
  | Pop -> 46
  | Dup -> 47
  | Halt -> 48
  | Mlookup _ -> 49
  | Mupdate _ -> 50
  | Mlookup_u _ -> 51
  | Mupdate_u _ -> 52

(** One display name per {!index} slot. *)
let class_names =
  [|
    "const"; "lload"; "lstore"; "gload"; "gstore";
    "aload"; "astore"; "aload.u"; "astore.u";
    "add"; "sub"; "mul"; "div"; "mod"; "div.u"; "mod.u";
    "shl"; "shr"; "lshr"; "band"; "bor"; "bxor"; "bnot"; "neg";
    "wadd"; "wsub"; "wmul"; "wshl"; "wshr"; "wbnot"; "wneg"; "wmask";
    "lt"; "le"; "gt"; "ge"; "eq"; "ne"; "tobool"; "not";
    "jmp"; "jz"; "jnz"; "call"; "callext"; "ret"; "pop"; "dup"; "halt";
    "mlookup"; "mupdate"; "mlookup.u"; "mupdate.u";
  |]

let to_string = function
  | Const n -> Printf.sprintf "const %d" n
  | Load_local n -> Printf.sprintf "lload %d" n
  | Store_local n -> Printf.sprintf "lstore %d" n
  | Load_global a -> Printf.sprintf "gload @%d" a
  | Store_global a -> Printf.sprintf "gstore @%d" a
  | Aload a -> Printf.sprintf "aload #%d" a
  | Astore a -> Printf.sprintf "astore #%d" a
  | Aload_u a -> Printf.sprintf "aload.u #%d" a
  | Astore_u a -> Printf.sprintf "astore.u #%d" a
  | Mlookup m -> Printf.sprintf "mlookup $%d" m
  | Mupdate m -> Printf.sprintf "mupdate $%d" m
  | Mlookup_u m -> Printf.sprintf "mlookup.u $%d" m
  | Mupdate_u m -> Printf.sprintf "mupdate.u $%d" m
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Div_u -> "div.u" | Mod_u -> "mod.u"
  | Shl -> "shl" | Shr -> "shr" | Lshr -> "lshr"
  | Band -> "band" | Bor -> "bor" | Bxor -> "bxor" | Bnot -> "bnot"
  | Neg -> "neg"
  | Wadd -> "wadd" | Wsub -> "wsub" | Wmul -> "wmul"
  | Wshl -> "wshl" | Wshr -> "wshr"
  | Wbnot -> "wbnot" | Wneg -> "wneg" | Wmask -> "wmask"
  | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne"
  | Tobool -> "tobool" | Not -> "not"
  | Jmp t -> Printf.sprintf "jmp %d" t
  | Jz t -> Printf.sprintf "jz %d" t
  | Jnz t -> Printf.sprintf "jnz %d" t
  | Call f -> Printf.sprintf "call fn%d" f
  | Callext e -> Printf.sprintf "callext ext%d" e
  | Ret -> "ret"
  | Pop -> "pop"
  | Dup -> "dup"
  | Halt -> "halt"
