(** Front door for the stack bytecode VM (the paper's "Java"
    technology): compile a linked GEL image to bytecode, verify it, and
    execute it.

    {[
      let prog = Stackvm.load_exn image in
      Stackvm.Vm.run prog ~entry:"main" ~args:[||] ~fuel:1_000_000
    ]} *)

module Opcode = Opcode
module Program = Program
module Compile = Compile
module Verify = Verify
module Vm = Vm
module Disasm = Disasm

(* Graftgate front checks shared by every loader: helper-named externs
   must match the typed helper table before anything is compiled, and
   bounded loading refuses loops the certificate derivation cannot
   cover (raised as [Invalid_argument] by [Compile ~bounds]). *)
let gate ~bounded image k =
  match Graft_analysis.Helpers.check_externs image.Graft_gel.Link.prog with
  | Error msg -> Error msg
  | Ok () -> (
      match k () with
      | p -> (
          match Verify.verify ~bounded p with
          | Ok () -> Ok p
          | Error msg -> Error msg)
      | exception Invalid_argument msg -> Error msg)

(** Compile and verify a linked image; refuses unverifiable code as the
    kernel's loader would. [maps] attaches graft maps (and lowers
    helper calls with constant map ids to map opcodes); [bounded]
    switches on Graftgate loading, where every loop needs a
    re-derivable bound certificate. *)
let load ?maps ?(bounded = false) (image : Graft_gel.Link.image) :
    (Program.t, string) result =
  gate ~bounded image (fun () -> Compile.compile ?maps ~bounds:bounded image)

let load_exn ?maps ?bounded image =
  match load ?maps ?bounded image with
  | Ok p -> p
  | Error msg -> failwith msg

(** The statically-checked tier's loader (the paper's "Modula-3 + static
    checks" column): run the abstract interpretation over the image's
    IR ({!Graft_analysis.Analyze}), compile provably safe accesses and
    divisions to unchecked opcodes with their proving intervals
    attached, then re-verify — the verifier derives its own intervals
    from the bytecode and rejects any elision it cannot re-establish,
    so the analysis never joins the trusted base. *)
let load_static ?maps ?(bounded = false) (image : Graft_gel.Link.image) :
    (Program.t, string) result =
  let metas =
    Option.map
      (Array.map (fun m ->
           {
             Graft_analysis.Helpers.mm_array = Graft_kernel.Graftmap.is_array m;
             mm_max = Graft_kernel.Graftmap.max_entries m;
           }))
      maps
  in
  let facts =
    Graft_analysis.Analyze.facts_for_image ?maps:metas image.Graft_gel.Link.prog
      ~arr_len:image.Graft_gel.Link.arr_len
      ~arr_writable:image.Graft_gel.Link.arr_writable
  in
  gate ~bounded image (fun () -> Compile.compile ~facts ?maps ~bounds:bounded image)

let load_static_exn ?maps ?bounded image =
  match load_static ?maps ?bounded image with
  | Ok p -> p
  | Error msg -> failwith msg

(** (elided, total) counts of check sites — array accesses, divisions,
    and map accesses — in a program, for the [-O]/[--dump] report and
    the elision-rate experiments. *)
let elision_stats (p : Program.t) : int * int =
  Array.fold_left
    (fun (elided, total) op ->
      match op with
      | Opcode.Aload_u _ | Opcode.Astore_u _ | Opcode.Div_u | Opcode.Mod_u
      | Opcode.Mlookup_u _ | Opcode.Mupdate_u _ ->
          (elided + 1, total + 1)
      | Opcode.Aload _ | Opcode.Astore _ | Opcode.Div | Opcode.Mod
      | Opcode.Mlookup _ | Opcode.Mupdate _ ->
          (elided, total + 1)
      | _ -> (elided, total))
    (0, 0) p.Program.code
