(** The wall clock every timing in this library reads.

    {b Clock injection.} The default clock is [Unix.gettimeofday]. The
    image this library targets has no monotonic-clock binding in the
    standard library, so a harness that links one injects it with
    {!set_clock}; everything downstream — duration histograms
    ({!Histo.time}), spans, trace timestamps, manifests — then uses it.
    The harnesses do exactly that: [bin/obs_cli.ml] (all the [bin/*]
    tools), [bin/sffabric.ml] and [bench/main.ml] install bechamel's
    [clock_gettime(CLOCK_MONOTONIC)] stub at session start, so phase
    timings there never depend on [Unix.gettimeofday]. Timings are
    measurements, never test assertions, so library code running
    without a harness (unit tests) still gets correct-enough wall
    clock from the default. *)

val set_clock : (unit -> float) -> unit
(** Replace the clock (seconds as a float; only differences are
    used). Affects every duration histogram, {!Span} and {!Trace}
    timestamp. *)

val now_s : unit -> float
(** Read the current clock. *)
