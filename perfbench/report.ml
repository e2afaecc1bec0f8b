(* What a workload run hands back to the driver in perfbench.ml. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

type t = {
  correct : bool;  (** every output check passed *)
  attempted : int;
  failed : int;  (** errors, missing replies, lost or re-run work *)
  end_to_end : metric list;
  per_layer : metric list;  (** empty unless traced *)
  params : (string * string) list;  (** workload parameters, JSON values *)
  notes : string list;  (** human-readable lines printed before the result *)
  spans : Spans.t option;
}

let m ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* Every per-layer metric, in report order, with its unit. A workload
   that does not exercise a layer reports it as 0 with no samples. *)
let per_layer_units =
  [
    ("search.oracle_start_us.weak", "us");
    ("search.oracle_start_us.strong", "us");
    ("search.run_ns_per_request.high-degree", "ns");
    ("search.run_ns_per_request.bfs", "ns");
    ("search.run_ns_per_request.rand-walk", "ns");
    ("search.run_ns_per_request.s-high-degree", "ns");
    ("search.setup_share", "ratio");
    ("search.setup_share.base_ms", "ms");
    ("search.requests", "count");
    ("search.discovered", "count");
    ("gen.graph_giant_s", "s");
    ("gen.ns_per_vertex", "ns");
    ("graph.csr_bytes", "bytes");
    ("store.write_s", "s");
    ("store.map_s", "s");
    ("store.file_bytes", "bytes");
    ("serve.wire.encode_ns", "ns");
    ("serve.wire.decode_ns", "ns");
    ("serve.ping_rtt_us", "us");
    ("serve.stage.queue_us", "us");
    ("serve.stage.batch_us", "us");
    ("serve.stage.search_us", "us");
    ("serve.stage.reply_us", "us");
    ("serve.unaccounted_us", "us");
    ("load.send_lag_ms", "ms");
    ("parallel.busy_share", "ratio");
    ("core.task_s.p50", "s");
    ("core.task_s.max", "s");
    ("fabric.shard_s.p50", "s");
    ("fabric.shard_s.max", "s");
    ("fabric.tail_s", "s");
    ("fabric.merge_s", "s");
    ("fabric.spawned", "count");
    ("fabric.deaths", "count");
    ("fabric.reassigned", "count");
  ]

let complete_per_layer measured =
  List.iter
    (fun x ->
      match List.assoc_opt x.name per_layer_units with
      | Some u when u = x.unit_ -> ()
      | _ -> invalid_arg ("undeclared per-layer metric " ^ x.name ^ " " ^ x.unit_))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x -> x
      | None -> m ~samples:0 name unit_ 0.)
    per_layer_units
