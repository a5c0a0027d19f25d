(** The benchmark's one clock: CLOCK_MONOTONIC in nanoseconds, read
    through bechamel's allocation-free stub. Unlike the wall clock it
    never jumps, and it resolves single nanoseconds, so even a span of
    one sub-microsecond call is a measurement rather than a clock step.
    A read costs a few tens of ns, which every span includes once. *)

let now () = Int64.to_int (Monotonic_clock.now ())
