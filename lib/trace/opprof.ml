(** Per-opcode execution profile for the VM dispatch loops.

    A profile is a pair of flat arrays indexed by opcode class — one
    execution count, one fuel total — plus a log2 histogram of fuel
    consumed per VM entry. [hit] is two unchecked array updates, cheap
    enough to sit inside the dispatch loop behind a [match ... with
    None] guard; everything else runs at reporting time.

    [hit] records the fuel each opcode charges (one unit on every VM
    today), so a profile's fuel total equals the fuel the session
    actually consumed — a cross-check the tests exercise on the
    interpreter, the JIT and the register VM. *)

type t = {
  names : string array;  (** opcode-class names, indexed like counts *)
  counts : int array;
  fuel : int array;
  runs : Histo.t;  (** fuel consumed per VM entry *)
}

let create ~names =
  let n = Array.length names in
  { names; counts = Array.make n 0; fuel = Array.make n 0; runs = Histo.create () }

(* The dispatch-loop fast path: [i] comes from the VM's own opcode
   index table, so it is always in range. *)
let hit p i width =
  Array.unsafe_set p.counts i (Array.unsafe_get p.counts i + 1);
  Array.unsafe_set p.fuel i (Array.unsafe_get p.fuel i + width)

(** Record one completed VM entry and the fuel it consumed. *)
let run_done p ~fuel = Histo.add p.runs fuel

let reset p =
  Array.fill p.counts 0 (Array.length p.counts) 0;
  Array.fill p.fuel 0 (Array.length p.fuel) 0;
  Histo.reset p.runs

let total_count p = Array.fold_left ( + ) 0 p.counts
let total_fuel p = Array.fold_left ( + ) 0 p.fuel
let runs p = p.runs

(** Executed opcode classes as (name, count, fuel), largest fuel
    first, at most [n] rows. *)
let top p ~n =
  let rows = ref [] in
  Array.iteri
    (fun i c -> if c > 0 then rows := (p.names.(i), c, p.fuel.(i)) :: !rows)
    p.counts;
  let sorted =
    List.sort (fun (_, _, a) (_, _, b) -> compare b a) !rows
  in
  List.filteri (fun i _ -> i < n) sorted
