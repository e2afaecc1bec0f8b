(** The recordable benchmark suite — the single source of truth for
    what gets timed.

    Two producers feed the trajectory:

    - {!tests}: the bechamel microbenchmarks of the hot paths behind
      the experiment tables (generation, search, simulation, exact
      math). [bench/main.exe] renders their OLS estimates; [sfbench
      record] keeps the {e raw} samples.
    - {!run_phases}: the experiment phase timings — each registry
      experiment's wall time over repeated full passes, the quantity
      the per-experiment [%.1fs] stamps of the bench harness show.

    Both return plain [(name, samples)] pairs in nanoseconds so
    {!Bench_file} can persist them and {!Compare} can re-analyse them
    later. *)

val tests : quick:bool -> Bechamel.Test.t list
(** The microbenchmark set, identical between [bench/main.exe] and
    [sfbench record]. [quick] divides the input sizes by 8. *)

val micro_cfg : quick:bool -> Bechamel.Benchmark.configuration
(** The shared bechamel configuration: 200-sample limit, 0.25 s
    ([quick]) or 1 s quota, GC stabilisation on. *)

val run_micro : quick:bool -> unit -> (string * float array) list
(** Run every microbenchmark; per benchmark, one ns-per-run sample per
    raw bechamel measurement (total time of a batch divided by its run
    count). Sorted by name (["sf/..."]). *)

val run_phases : quick:bool -> seed:int -> repeats:int -> (string * float array) list
(** Run the full experiment registry [repeats] times on the default
    pool; per experiment, the wall-clock ns of each pass, named
    ["exp.<id>"]. Results and observability side effects are the
    deterministic ones of {!Sf_experiments.Registry.run_all}; only the
    timings vary. Sorted by name.
    @raise Invalid_argument if [repeats < 1]. *)
