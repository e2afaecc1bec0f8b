(* One domain's observability output for one parallel task, composed
   from the per-primitive capture layers.  The pool brackets every task
   in [capture] and folds the shards back with [merge] in task-index
   order at the join barrier — that fixed fold order is what makes
   metric totals and the event stream deterministic for a fixed seed
   at any job count (doc/PARALLELISM.md). *)

type t = {
  counters : Counter.deltas;
  histos : Histo.deltas;
  gauges : Registry.gauge_deltas;
  events : Trace.event list;
}

type frame = {
  f_counters : Counter.frame;
  f_histos : Histo.frame;
  f_gauges : Registry.gauge_frame;
  f_events : Trace.frame;
}

let capturing = Trace.capturing

let capture_begin () =
  {
    f_counters = Counter.capture_begin ();
    f_histos = Histo.capture_begin ();
    f_gauges = Registry.gauge_capture_begin ();
    f_events = Trace.capture_begin ();
  }

let capture_end fr =
  {
    counters = Counter.capture_end fr.f_counters;
    histos = Histo.capture_end fr.f_histos;
    gauges = Registry.gauge_capture_end fr.f_gauges;
    events = Trace.capture_end fr.f_events;
  }

let capture f =
  let fr = capture_begin () in
  match f () with
  | v -> (v, capture_end fr)
  | exception exn ->
    (* a failed task's observations are discarded: merging a partial
       shard would make totals depend on where the exception struck *)
    let bt = Printexc.get_raw_backtrace () in
    ignore (capture_end fr);
    Printexc.raise_with_backtrace exn bt

let merge s =
  Counter.apply s.counters;
  Histo.apply s.histos;
  Registry.apply_gauges s.gauges;
  Trace.replay s.events

(* The cross-process sibling of [merge]: what a fabric worker relays
   over the control socket is a named-counter delta list plus its
   buffered events (Sf_fabric.Relay), not a full shard — histograms
   stay process-local, and exact totals are reconciled from checkpoints
   at the end of the run (Sf_fabric.Coordinator). *)
let merge_remote ~proc ~counters ~events =
  List.iter
    (fun (name, v) -> if v > 0 then Counter.add (Registry.counter name) v)
    counters;
  Trace.replay (Trace_export.tag ~proc events)
