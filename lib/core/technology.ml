(** The extension technologies under comparison, one per column of the
    paper's tables plus the ablation variants DESIGN.md calls out. *)

type trust_model =
  | No_protection  (** unsafe code linked into the kernel *)
  | Hardware  (** user-level server reached by upcall *)
  | Software_checks  (** safe-language compiled checks *)
  | Software_isolation  (** SFI masking *)
  | Interpretation  (** a virtual machine enforces safety *)

type t =
  | Unsafe_c  (** paper: "C" — native, unchecked *)
  | Upcall_server  (** paper: user-level server (hardware protection) *)
  | Safe_lang  (** paper: "Modula-3" — native, checked, trap-based NIL *)
  | Safe_lang_nil  (** ablation A1: explicit NIL checks (paper's Linux) *)
  | Sfi_write_jump  (** paper: "Omniware" beta — stores masked *)
  | Sfi_full  (** ablation A2: full read+write+jump SFI *)
  | Bytecode_vm  (** paper: "Java" — stack bytecode interpreter *)
  | Safe_lang_static
      (** the statically-checked tier: abstract interpretation over the
          IR proves bounds and divisors, the bytecode carries the
          proofs, and the load-time verifier re-derives them before
          admitting the unchecked opcodes — the compile-time half of
          the paper's Modula-3 safety story *)
  | Jit
      (** Graftjit: the statically-checked bytecode compiled to
          closure-threaded native code at load time — the measured
          replacement for the "Java+JIT" column the paper could only
          project *)
  | Ast_interp  (** ablation A3: AST-walking interpreter *)
  | Source_interp  (** paper: "Tcl" — string-based source interpreter *)
  | Specialized_vm
      (** ablation A6: a BPF-like domain-specific filter VM — fast and
          safe by construction but unable to express general grafts
          (the paper's HiPEC/packet-filter expressiveness point) *)

let all =
  [
    Unsafe_c; Upcall_server; Safe_lang; Safe_lang_nil; Sfi_write_jump;
    Sfi_full; Bytecode_vm; Safe_lang_static; Jit; Ast_interp; Source_interp;
    Specialized_vm;
  ]

(** The five technologies the paper's tables print, in column order. *)
let paper_columns = [ Unsafe_c; Bytecode_vm; Safe_lang; Sfi_write_jump; Source_interp ]

let name = function
  | Unsafe_c -> "unsafe-c"
  | Upcall_server -> "upcall"
  | Safe_lang -> "safe-lang"
  | Safe_lang_nil -> "safe-lang-nil"
  | Sfi_write_jump -> "sfi-wj"
  | Sfi_full -> "sfi-full"
  | Bytecode_vm -> "bytecode-vm"
  | Safe_lang_static -> "safe-lang-static"
  | Jit -> "jit"
  | Ast_interp -> "ast-interp"
  | Source_interp -> "source-interp"
  | Specialized_vm -> "pf-vm"

(** The paper column this technology reproduces. *)
let paper_name = function
  | Unsafe_c -> "C"
  | Upcall_server -> "C (user-level server)"
  | Safe_lang -> "Modula-3"
  | Safe_lang_nil -> "Modula-3 (Linux NIL checks)"
  | Sfi_write_jump -> "Omniware"
  | Sfi_full -> "SFI (full protection)"
  | Bytecode_vm -> "Java"
  | Safe_lang_static -> "Modula-3 + static checks"
  | Jit -> "Java+JIT (measured)"
  | Ast_interp -> "AST interpreter"
  | Source_interp -> "Tcl"
  | Specialized_vm -> "BPF-like filter VM"

let trust = function
  | Unsafe_c -> No_protection
  | Upcall_server -> Hardware
  | Safe_lang | Safe_lang_nil | Safe_lang_static -> Software_checks
  | Sfi_write_jump | Sfi_full -> Software_isolation
  | Bytecode_vm | Jit | Ast_interp | Source_interp | Specialized_vm ->
      Interpretation

let trust_name = function
  | No_protection -> "none"
  | Hardware -> "hardware"
  | Software_checks -> "software checks"
  | Software_isolation -> "software fault isolation"
  | Interpretation -> "interpretation"

(** Can a fault in the extension crash the kernel? Only for unsafe
    code; every other technology contains it (paper section 4). *)
let can_crash_kernel t = trust t = No_protection

let of_name s = List.find_opt (fun t -> name t = s) all
