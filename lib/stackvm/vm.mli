(** The stack bytecode interpreter: a software virtual machine in the
    style of the 1995 Java VM the paper measured — switch dispatch over
    a bytecode array, an operand stack, per-call local frames, and a
    fuel counter decremented on every instruction so the kernel can
    preempt runaway grafts. *)

val max_frames : int
val stack_size : int

(** A session holds the operand stack and frame table so a resident
    graft pays no allocation on each kernel-to-graft entry. Sessions
    are single-threaded and reusable across calls, not reentrant. *)
type session

(** [create_session ?profile p] — when [profile] is given, the
    dispatch loop counts every executed opcode and each entry's fuel
    into it (see {!Graft_trace.Opprof}). *)
val create_session : ?profile:Graft_trace.Opprof.t -> Program.t -> session

val run_session :
  session ->
  entry:string ->
  args:int array ->
  fuel:int ->
  (int, [ `Fault of Graft_mem.Fault.t | `Bad_entry of string ]) result

(** One-shot convenience; resident grafts should keep a session. *)
val run :
  Program.t ->
  entry:string ->
  args:int array ->
  fuel:int ->
  (int, [ `Fault of Graft_mem.Fault.t | `Bad_entry of string ]) result
