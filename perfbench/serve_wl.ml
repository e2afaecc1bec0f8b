(* The serve-large and serve-small workloads: a generated Móri graph
   written as SFGB-v2 and served by a spawned [sfserve --graph FILE
   --jobs 2], loaded first by an open-loop Poisson phase at a fixed
   rate and then by a closed-loop phase with one request in flight on
   each of the two connections. *)

open Sf_serve
module Rng = Sf_prng.Rng
module Sm = Sf_stats.Summary
module Ugraph = Sf_graph.Ugraph
module Strategy = Sf_search.Strategy

type params = {
  name : string;
  n : int;
  rate : float;  (** open-loop arrivals per second, about half of saturation *)
  graphs : int;  (** graphs served in turn per run; setup_s is the median of their set-ups *)
  warmup : int;  (** requests of the unmeasured closed loop on each new server *)
  verify_ids : int;  (** open-loop ids recomputed in-process in every run *)
  replay_ids : int;  (** open-loop ids replayed with spans in the traced run *)
}

(* serve-large: a budget-10 request pays 10 oracle requests but
   Oracle.start clears O(n) state, so service time is search set-up.
   serve-small: search is a small part of the per-request time, so the
   serve layer does most of the work. *)
let large =
  { name = "serve-large"; n = 1_000_000; rate = 6.; graphs = 4; warmup = 50; verify_ids = 24; replay_ids = 96 }

let small =
  { name = "serve-small"; n = 10_000; rate = 400.; graphs = 8; warmup = 800; verify_ids = 1000; replay_ids = 4000 }

let toy p =
  { p with n = p.n / 50; rate = p.rate /. 4.; graphs = 2; warmup = 10; verify_ids = 24; replay_ids = 48 }

let mix = [| "high-degree"; "bfs"; "rand-walk"; "s-high-degree" |]
let budget = 10
let jobs = 2
let connections = 2
let open_share = 0.8 (* of --seconds; the closed loop gets the rest *)
let warmup_seed_offset = 1_000_000_000
let reply_timeout = 30.

let strategy name =
  List.find
    (fun s -> s.Strategy.name = name)
    (Sf_search.Strategies.weak_portfolio () @ Sf_search.Strategies.strong_portfolio ())

let graph_rng seed = Rng.split_at (Rng.of_seed seed) 1

(* Graph g of a run, and everything served from it (the server's
   master seed, the request plan, the arrival gaps), derives from
   [seed * 1000 + g]. A run serves several graphs in turn, so the
   graph-to-graph spread of hub degrees, which sets the cost of the
   strong searches, is averaged within the run. *)
let graph_seed seed g = (seed * 1000) + g

(* Request [id] is a pure function of (seed, id). Strategies rotate
   through the mix by id, which realises the 1:1:1:1 weights exactly in
   every window of four; targets are uniform over 1..n. *)
let request ~n ~seed id =
  let r = Rng.split_at (Rng.split_at (Rng.of_seed seed) 2) id in
  {
    Wire.id;
    strategy = mix.(id mod Array.length mix);
    source = None;
    target = Some (1 + Rng.int r n);
    budget = Some budget;
    stop_at_neighbor = false;
    ctx = None;
  }

(* What the server must answer for [req], recomputed in-process through
   the public API: Rng.split_at of the server's master stream
   (doc/SERVING.md), then Oracle.start, then Runner.run. Returns the
   reply with the start and run times. *)
let recompute ~graph ~seed (req : Wire.search) =
  let target = Option.get req.Wire.target in
  let source = if target = 1 then 2 else 1 in
  let s = strategy req.Wire.strategy in
  let rng = Rng.split_at (Rng.of_seed seed) req.Wire.id in
  let t0 = Bstat.now () in
  let oracle = Sf_search.Oracle.start ~rng s.Strategy.model graph ~source ~target in
  let t1 = Bstat.now () in
  let o =
    Sf_search.Runner.run ?budget:req.Wire.budget ~stop_at:Sf_search.Runner.At_target ~rng s oracle
  in
  let t2 = Bstat.now () in
  let path_len =
    if Sf_search.Oracle.target_found oracle then
      List.length (Sf_search.Oracle.discovery_path oracle target) - 1
    else 0
  in
  let reply =
    Wire.Search_reply
      {
        Wire.sr_id = req.Wire.id;
        sr_total_requests = o.Sf_search.Runner.total_requests;
        sr_to_target = o.Sf_search.Runner.to_target;
        sr_to_neighbor = o.Sf_search.Runner.to_neighbor;
        sr_discovered = o.Sf_search.Runner.discovered;
        sr_gave_up = o.Sf_search.Runner.gave_up;
        sr_path_len = path_len;
      }
  in
  (reply, o, t0, t1, t2)

(* ---- the server process ---- *)

type server = { pid : int; sock : string; conns : Client.t array }

let stats c =
  match Client.call c (Wire.Stats 0) with
  | Wire.Stats_reply s -> s
  | r -> failwith ("sfserve: unexpected reply to Stats: " ^ Wire.encode_response r)

let connect_when_ready ~pid sock =
  let deadline = Bstat.now () +. 120. in
  let rec go () =
    match Client.connect (Wire.Unix_path sock) with
    | c -> c
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "sfserve exited before listening (see its log)");
      if Bstat.now () > deadline then failwith "sfserve did not listen within 120 s";
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let stop_server srv =
  (try ignore (Client.call srv.conns.(0) (Wire.Shutdown 0)) with _ -> ());
  Array.iter Client.close srv.conns;
  ignore (Child.reap ~timeout:20. srv.pid)

(* One set-up: generate, write, spawn the server, wait for its first
   Stats reply. setup_s is the time from the start of generation to
   that reply; the server's own mapped read with CRC check lies in
   between. *)
let setup_once ~spans ~p ~seed ~work ~sfserve =
  let path = Filename.concat work "graph.sfgb" and sock = Filename.concat work "s.sock" in
  Spans.opt_with_span spans "setup" @@ fun parent ->
  let t0 = Bstat.now () in
  let graph =
    Spans.opt_with_span spans ~parent "gen.graph_giant" (fun _ ->
        Sf_gen.Mori.graph_giant (graph_rng seed) ~p:0.5 ~m:1 ~n:p.n)
  in
  let t_gen = Bstat.now () in
  Spans.opt_with_span spans ~parent "store.write" (fun _ ->
      Sf_store.Csr_codec.write_ugraph_file graph ~path);
  let t_write = Bstat.now () in
  let srv =
    Spans.opt_with_span spans ~parent "serve.spawn" (fun _ ->
        let pid =
          Child.spawn ~log:(Filename.concat work "sfserve.log")
            [|
              sfserve; "--graph"; path; "--jobs"; string_of_int jobs; "--listen"; "unix:" ^ sock;
              "--seed"; string_of_int seed;
            |]
        in
        let conns = Array.init connections (fun _ -> connect_when_ready ~pid sock) in
        ignore (stats conns.(0));
        { pid; sock; conns })
  in
  let t_ready = Bstat.now () in
  (graph, path, srv, (t_ready -. t0, t_gen -. t0, t_write -. t_gen))

(* ---- load ---- *)

type stage = { served : int; errors : int; queue : int; batch : int; search : int; reply : int }

let stage_of (s : Wire.server_stats) =
  {
    served = s.Wire.ss_served;
    errors = s.Wire.ss_errors;
    queue = s.Wire.ss_stage_queue_us;
    batch = s.Wire.ss_stage_batch_us;
    search = s.Wire.ss_stage_search_us;
    reply = s.Wire.ss_stage_reply_us;
  }

let stage_delta a b =
  {
    served = b.served - a.served;
    errors = b.errors - a.errors;
    queue = b.queue - a.queue;
    batch = b.batch - a.batch;
    search = b.search - a.search;
    reply = b.reply - a.reply;
  }

type open_loop = {
  reqs : Wire.search array;
  sched : float array;
  sent : float array;
  recv : float array;
  replies : Wire.response option array;
}

(* The open loop: arrivals on a Poisson schedule fixed before the phase
   starts, request i on connection i mod 2, one receiver thread per
   connection. Latency is taken from each request's scheduled send,
   so a stalled generator or server is charged to every request that
   should have gone out meanwhile; the actual send time is kept to
   report how late the generator ran. *)
let run_open_loop ~spans ~conns ~reqs ~rate ~seed =
  let k = Array.length reqs in
  let sched = Array.make k 0. and sent = Array.make k nan and recv = Array.make k nan in
  let replies = Array.make k None in
  let gaps = Rng.split_at (Rng.of_seed seed) 3 in
  let t = ref (Bstat.now () +. 0.05) in
  for i = 0 to k - 1 do
    sched.(i) <- !t;
    t := !t -. (log (1. -. Rng.unit_float gaps) /. rate)
  done;
  let receiver c () =
    let expected = ref 0 in
    Array.iteri (fun i _ -> if i mod connections = c then incr expected) reqs;
    try
      for _ = 1 to !expected do
        let r = Client.recv conns.(c) in
        let at = Bstat.now () in
        let i = Wire.response_id r in
        if i >= 0 && i < k && replies.(i) = None then begin
          recv.(i) <- at;
          replies.(i) <- Some r
        end
      done
    with _ -> ()
  in
  Array.iter (fun c -> Client.set_receive_timeout c reply_timeout) conns;
  let threads = Array.init connections (fun c -> Thread.create (receiver c) ()) in
  for i = 0 to k - 1 do
    let d = sched.(i) -. Bstat.now () in
    if d > 0. then Unix.sleepf d;
    sent.(i) <- Bstat.now ();
    try Client.send conns.(i mod connections) (Wire.Search reqs.(i)) with _ -> ()
  done;
  Array.iter Thread.join threads;
  (match spans with
  | None -> ()
  | Some r ->
    Array.iteri
      (fun i s ->
        if not (Float.is_nan recv.(i)) then begin
          let parent = Spans.add r ~rid:s.Wire.id "load.request" sched.(i) recv.(i) in
          ignore (Spans.add r ~parent ~rid:s.Wire.id "load.send_lag" sched.(i) sent.(i))
        end)
      reqs);
  { reqs; sched; sent; recv; replies }

(* The closed loop, and the warm-up, through Sf_serve.Load: the engine
   sfload probes saturation with. Rate 0, one request in flight per
   connection, the same mix, targets and budget as the open loop. Its
   plan is Load's own (weighted picks off [seed]), not [request]. *)
let closed_loop ~(srv : server) ~seed ~requests =
  Load.run
    (Load.config ~connections ~concurrency:connections
       ~mix:(Array.to_list (Array.map (fun s -> (s, 1.)) mix))
       ~target:Load.Uniform_target ~budget ~timeout:reply_timeout ~seed ~requests
       (Wire.Unix_path srv.sock))

(* Each freshly started server first runs a closed loop, unmeasured:
   its first requests pay page faults on the mapped graph and heap
   growth, which would otherwise land in every graph's latency tail.
   The first server of a run warms up four times longer: it touches
   memory no process of the run has used yet, and without the longer
   warm-up its open loop shows a tail twice that of later servers. *)
let warmup ~p ~srv ~seed ~first =
  closed_loop ~srv ~seed:(seed + warmup_seed_offset)
    ~requests:(if first then 4 * p.warmup else p.warmup)

(* ---- output checks ---- *)

let digest replies =
  Array.fold_left
    (fun crc r ->
      match r with
      | Some r -> Sf_store.Crc32.string ~init:crc (Wire.encode_response r)
      | None -> crc)
    0l replies

(* The digest of the open-loop replies must be identical across runs at
   a fixed seed: the first run in a checkout records it, later runs
   compare. *)
let check_digest ~results ~p ~seed ~k d =
  let file =
    Filename.concat results
      (Printf.sprintf "digest-%s-n%d-g%d-seed%d-k%d.txt" p.name p.n p.graphs seed k)
  in
  let hex = Printf.sprintf "%08lx" d in
  if Sys.file_exists file then begin
    let ic = open_in file in
    let prev = input_line ic in
    close_in ic;
    (prev = hex, Printf.sprintf "reply digest %s (recorded %s)" hex prev)
  end
  else begin
    let oc = open_out file in
    output_string oc (hex ^ "\n");
    close_out oc;
    (true, Printf.sprintf "reply digest %s (first run at this seed)" hex)
  end

(* ---- traced-run extras ---- *)

let wire_micro ~spans ~reqs ~replies =
  let iters = 20_000 in
  let k = Array.length reqs in
  let enc =
    Spans.with_span spans "serve.wire.encode" (fun _ ->
        let t0 = Bstat.now () in
        for i = 0 to iters - 1 do
          ignore (Sys.opaque_identity (Wire.encode_request (Wire.Search reqs.(i mod k))))
        done;
        (Bstat.now () -. t0) /. float_of_int iters)
  in
  let payloads = Array.of_list (List.filter_map (Option.map Wire.encode_response) (Array.to_list replies)) in
  let kp = Array.length payloads in
  let dec =
    Spans.with_span spans "serve.wire.decode" (fun _ ->
        let t0 = Bstat.now () in
        for i = 0 to iters - 1 do
          ignore (Sys.opaque_identity (Wire.decode_response payloads.(i mod kp)))
        done;
        (Bstat.now () -. t0) /. float_of_int iters)
  in
  (enc *. 1e9, dec *. 1e9)

let ping_rtt ~spans conn =
  Array.init 500 (fun i ->
      let t0 = Bstat.now () in
      (match Client.call conn (Wire.Ping i) with Wire.Pong _ -> () | _ -> failwith "ping: bad reply");
      let t1 = Bstat.now () in
      ignore (Spans.add spans ~rid:i "serve.ping" t0 t1);
      (t1 -. t0) *. 1e6)

type replayed = {
  r_req : Wire.search;
  r_ok : bool;  (** matches the server's reply *)
  r_start : float;
  r_run : float;
  r_requests : int;
  r_discovered : int;
}

(* Replay the first open-loop requests in-process, in batches of the
   closed-loop window on a two-domain Pool, with one span per request
   and one per layer call. parallel.busy_share is the summed task time
   over jobs x batch wall. *)
let replay ~spans ~graph ~seed ~(ol : open_loop) count =
  let count = min count (Array.length ol.reqs) in
  let pool = Sf_parallel.Pool.create ~jobs () in
  let window = connections in
  let out = Array.make count None in
  let busy = ref 0. and wall = ref 0. in
  Fun.protect ~finally:(fun () -> Sf_parallel.Pool.shutdown pool) @@ fun () ->
  let b = ref 0 in
  while !b * window < count do
    let lo = !b * window in
    let w = min window (count - lo) in
    let t0 = Bstat.now () in
    let times =
      Spans.with_span spans ~rid:!b "parallel.batch" (fun parent ->
          Sf_parallel.Pool.mapi pool w (fun j ->
              let i = lo + j in
              let req = ol.reqs.(i) in
              let ts = Bstat.now () in
              let reply, o, t0, t1, t2 = recompute ~graph ~seed req in
              let te = Bstat.now () in
              let id = req.Wire.id in
              let sp = Spans.add spans ~parent ~rid:id "search.request" ts te in
              ignore (Spans.add spans ~parent:sp ~rid:id "search.oracle_start" t0 t1);
              ignore (Spans.add spans ~parent:sp ~rid:id "search.run" t1 t2);
              let ok =
                match ol.replies.(i) with
                | Some r -> Wire.encode_response r = Wire.encode_response reply
                | None -> false
              in
              out.(i) <-
                Some
                  {
                    r_req = req;
                    r_ok = ok;
                    r_start = t1 -. t0;
                    r_run = t2 -. t1;
                    r_requests = o.Sf_search.Runner.total_requests;
                    r_discovered = o.Sf_search.Runner.discovered;
                  };
              te -. ts))
    in
    wall := !wall +. (Bstat.now () -. t0);
    busy := !busy +. Sm.(total (of_array times));
    incr b
  done;
  (Array.map Option.get out, !busy /. (float_of_int jobs *. !wall))

(* ---- the run ---- *)

type served = {
  setup : float * float * float;  (** total, generation, file write *)
  wu : Load.outcome;  (** the warm-up: counted in attempts and failures only *)
  ol : open_loop;
  cl : Load.outcome;
  d_open : stage;
  d_closed : stage;
  rss_kb : int;
  mismatches : int;
  verified : int;
}

(* Serve one graph: set up, warm up, open loop, closed loop, then check
   the first replies against the in-process recomputation. [extras]
   runs last, while the server is still up. *)
let serve_one ~spans ~p ~seed ~work ~sfserve ~first ~open_s ~closed_s ~verify ~extras =
  let graph, path, srv, setup = setup_once ~spans ~p ~seed ~work ~sfserve in
  Fun.protect ~finally:(fun () -> stop_server srv) @@ fun () ->
  (* collect generation garbage now, not as GC slices that would stall
     this process's sender and receivers during the open loop *)
  Gc.compact ();
  let conns = srv.conns in
  let wu = warmup ~p ~srv ~seed ~first in
  let k = int_of_float (Float.ceil (p.rate *. open_s)) in
  let reqs = Array.init k (request ~n:p.n ~seed) in
  let st0 = stage_of (stats conns.(0)) in
  let ol = run_open_loop ~spans ~conns ~reqs ~rate:p.rate ~seed in
  let st1 = stage_of (stats conns.(0)) in
  (* sized from the warm-up's rate to last about [closed_s] *)
  let requests = max 1 (int_of_float (wu.Load.o_achieved_rate *. closed_s)) in
  let cl = Spans.opt_with_span spans "load.closed" (fun _ -> closed_loop ~srv ~seed ~requests) in
  let st2 = stage_of (stats conns.(0)) in
  let rss_kb = Option.value (Child.vm_hwm_kb srv.pid) ~default:0 in
  let verified = min verify k in
  let mismatches = ref 0 in
  for i = 0 to verified - 1 do
    let reply, _, _, _, _ = recompute ~graph ~seed reqs.(i) in
    match ol.replies.(i) with
    | Some r when Wire.encode_response r = Wire.encode_response reply -> ()
    | _ -> incr mismatches
  done;
  let x = extras ~graph ~path ~srv ~ol in
  ( {
      setup;
      wu;
      ol;
      cl;
      d_open = stage_delta st0 st1;
      d_closed = stage_delta st1 st2;
      rss_kb;
      mismatches = !mismatches;
      verified;
    },
    x )

let run ~p ~seed ~seconds ~traced ~work ~results ~sfserve =
  let spans = if traced then Some (Spans.create ()) else None in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let correct = ref true in
  let check ok fmt =
    Printf.ksprintf
      (fun s ->
        if not ok then correct := false;
        note "check %s: %s" (if ok then "ok" else "FAILED") s)
      fmt
  in
  let g_n = p.graphs in
  let open_s = open_share *. seconds /. float_of_int g_n in
  let closed_s = (1. -. open_share) *. seconds /. float_of_int g_n in
  let verify = max 1 (p.verify_ids / g_n) in
  (* the traced run's layer probes, on the last graph *)
  let probes ~graph ~path ~srv ~ol =
    match spans with
    | None -> []
    | Some sp ->
      let gseed = graph_seed seed (g_n - 1) in
      let valid =
        Spans.with_span sp "graph.csr_validate" (fun _ -> Sf_graph.Csr.validate (Ugraph.csr graph))
      in
      check (valid = Ok ()) "generated graph passes Csr.validate";
      let mapped, map_s =
        Spans.with_span sp "store.map" (fun _ ->
            let t0 = Bstat.now () in
            let g = Sf_store.Csr_codec.map_ugraph_file ~verify:true ~path () in
            (g, Bstat.now () -. t0))
      in
      check (Ugraph.n_edges mapped = Ugraph.n_edges graph) "mapped graph has the written edge count";
      let enc_ns, dec_ns = wire_micro ~spans:sp ~reqs:ol.reqs ~replies:ol.replies in
      let pings = ping_rtt ~spans:sp srv.conns.(0) in
      let rep, busy = replay ~spans:sp ~graph ~seed:gseed ~ol p.replay_ids in
      let bad = Array.fold_left (fun a r -> if r.r_ok then a else a + 1) 0 rep in
      check (bad = 0) "%d of %d replayed requests differ from the server's replies" bad
        (Array.length rep);
      let self = Spans.self_times sp in
      let run_self = Hashtbl.create 8 in
      List.iter (fun s -> Hashtbl.replace run_self s.Spans.rid (self s)) (Spans.named sp "search.run");
      let starts model =
        Array.of_list
          (List.filter_map
             (fun r ->
               if (strategy r.r_req.Wire.strategy).Strategy.model = model then Some (r.r_start *. 1e6)
               else None)
             (Array.to_list rep))
      in
      let ns_per_req name =
        let t = ref 0. and q = ref 0 in
        Array.iter
          (fun r ->
            if r.r_req.Wire.strategy = name then begin
              t := !t +. Hashtbl.find run_self r.r_req.Wire.id;
              q := !q + r.r_requests
            end)
          rep;
        ((if !q = 0 then 0. else !t *. 1e9 /. float_of_int !q), !q)
      in
      let start_sum = Array.fold_left (fun a r -> a +. r.r_start) 0. rep in
      let run_sum = Array.fold_left (fun a r -> a +. r.r_run) 0. rep in
      let isum f = Array.fold_left (fun a r -> a + f r) 0 rep in
      let weak = starts Sf_search.Oracle.Weak and strong = starts Sf_search.Oracle.Strong in
      let nrep = Array.length rep in
      Report.
        ([
           m ~samples:(Array.length weak) "search.oracle_start_us.weak" "us" (Bstat.quantile weak 0.5);
           m ~samples:(Array.length strong) "search.oracle_start_us.strong" "us" (Bstat.quantile strong 0.5);
         ]
        @ List.map
            (fun name ->
              let v, q = ns_per_req name in
              m ~samples:q ("search.run_ns_per_request." ^ name) "ns" v)
            (Array.to_list mix)
        @ [
            m ~samples:nrep "search.setup_share" "ratio" (start_sum /. (start_sum +. run_sum));
            m ~samples:nrep "search.setup_share.base_ms" "ms" ((start_sum +. run_sum) *. 1e3);
            m ~samples:nrep "search.requests" "count" (float_of_int (isum (fun r -> r.r_requests)));
            m ~samples:nrep "search.discovered" "count" (float_of_int (isum (fun r -> r.r_discovered)));
            m "graph.csr_bytes" "bytes" (float_of_int (Ugraph.memory_bytes graph));
            m "store.map_s" "s" map_s;
            m "store.file_bytes" "bytes" (float_of_int (Unix.stat path).Unix.st_size);
            m "serve.wire.encode_ns" "ns" enc_ns;
            m "serve.wire.decode_ns" "ns" dec_ns;
            m ~samples:(Array.length pings) "serve.ping_rtt_us" "us" (Bstat.quantile pings 0.5);
            m ~samples:nrep "parallel.busy_share" "ratio" busy;
          ])
  in
  let runs =
    List.init g_n (fun g ->
        let extras = if g = g_n - 1 then probes else fun ~graph:_ ~path:_ ~srv:_ ~ol:_ -> [] in
        serve_one ~spans ~p ~seed:(graph_seed seed g) ~work ~sfserve ~first:(g = 0) ~open_s ~closed_s
          ~verify ~extras)
  in
  let served = List.map fst runs and probed = List.concat_map snd runs in
  (* failures and output checks *)
  let sumi f = List.fold_left (fun a x -> a + f x) 0 served in
  let k = sumi (fun x -> Array.length x.ol.reqs) in
  let answered = ref 0 and errors = ref 0 in
  List.iter
    (fun x ->
      Array.iteri
        (fun i r ->
          match r with
          | Some (Wire.Search_reply s) when s.Wire.sr_id = i -> incr answered
          | Some _ -> incr errors
          | None -> ())
        x.ol.replies)
    served;
  let loads f = sumi (fun x -> f x.cl + f x.wu) in
  let missing = k - !answered - !errors + loads (fun o -> o.Load.o_missing) in
  let errors = !errors + loads (fun o -> o.Load.o_errors) in
  let attempted = k + loads (fun o -> o.Load.o_requests) in
  let failed = errors + missing in
  let proto_errors = sumi (fun x -> x.d_open.errors + x.d_closed.errors) in
  let open_served = sumi (fun x -> x.d_open.served) in
  check (proto_errors = 0) "server protocol errors %d" proto_errors;
  check (open_served = k) "servers counted %d open-loop searches for %d sent" open_served k;
  check
    (sumi (fun x -> x.mismatches) = 0)
    "%d of %d checked replies differ from the in-process recomputation"
    (sumi (fun x -> x.mismatches))
    (sumi (fun x -> x.verified));
  if failed = 0 then begin
    let d =
      List.fold_left
        (fun crc x -> Int32.logxor (Int32.mul crc 31l) (digest x.ol.replies))
        0l served
    in
    let ok, msg = check_digest ~results ~p ~seed ~k d in
    check ok "%s" msg
  end;
  (* end-to-end metrics: samples pooled over the graphs *)
  let pool f = Array.concat (List.map f served) in
  (* ms from scheduled send to reply, answered requests only *)
  let latencies x =
    Array.of_list
      (List.filter_map
         (fun i ->
           if Float.is_nan x.ol.recv.(i) then None
           else Some ((x.ol.recv.(i) -. x.ol.sched.(i)) *. 1e3))
         (List.init (Array.length x.ol.reqs) Fun.id))
  in
  let lat = pool latencies in
  let lag = pool (fun x -> Array.map2 (fun a b -> (a -. b) *. 1e3) x.ol.sent x.ol.sched) in
  let nl = Array.length lat in
  let per_graph_p99 = List.map (fun x -> Bstat.quantile (latencies x) 0.99) served in
  (* Load's achieved rate, pooled over the graphs *)
  let c_replies = sumi (fun x -> x.cl.Load.o_replies) in
  let c_elapsed = List.fold_left (fun a x -> a +. x.cl.Load.o_elapsed_s) 0. served in
  let throughput = float_of_int c_replies /. c_elapsed in
  let setups = Array.of_list (List.map (fun x -> let a, _, _ = x.setup in a) served) in
  let rss_kb = List.fold_left (fun a x -> max a x.rss_kb) 0 served in
  let e2e =
    Report.
      [
        m ~samples:g_n "setup_s" "s" (Bstat.quantile setups 0.5);
        m ~samples:c_replies "throughput_rps" "req/s" throughput;
        m ~samples:nl "latency_p50_ms" "ms" (Bstat.quantile lat 0.5);
        m ~samples:g_n "rss_peak_mb" "MB" (float_of_int rss_kb /. 1024.);
      ]
  in
  note "open loop: %d requests at %.0f req/s offered over %d graphs, %d answered" k p.rate g_n nl;
  note "latency_p99_ms %.6g ms n=%d, %d beyond (not gated: see README.md); per graph %s ms"
    (Bstat.quantile lat 0.99) nl (Bstat.beyond lat 0.99)
    (String.concat ", " (List.map (Printf.sprintf "%.3f") per_graph_p99));
  note "generator send lag: p50 %.3f ms, p99 %.3f ms, max %.3f ms (n=%d)" (Bstat.quantile lag 0.5)
    (Bstat.quantile lag 0.99) Sm.(max_value (of_array lag)) k;
  note "closed loop: %d sent, %d replies in %.3f s" (sumi (fun x -> x.cl.Load.o_sent)) c_replies c_elapsed;
  note "failed_share %.6f (%d errors, %d missing of %d attempted)"
    (float_of_int failed /. float_of_int (max 1 attempted))
    errors missing attempted;
  let tot f = sumi (fun x -> f x.d_open) in
  let open_n = max 1 open_served in
  let stage f = float_of_int (tot f) /. float_of_int open_n in
  let q = stage (fun d -> d.queue) and b = stage (fun d -> d.batch) in
  let se = stage (fun d -> d.search) and r = stage (fun d -> d.reply) in
  note "server stages per open-loop search: queue %.1f us, batch %.1f us, search %.1f us, reply %.1f us"
    q b se r;
  let per_layer =
    match spans with
    | None -> []
    | Some _ ->
      let gen_s = List.fold_left (fun a x -> let _, g, _ = x.setup in a +. g) 0. served /. float_of_int g_n in
      let write_s = List.fold_left (fun a x -> let _, _, w = x.setup in a +. w) 0. served /. float_of_int g_n in
      probed
      @ Report.
          [
            m ~samples:g_n "gen.graph_giant_s" "s" gen_s;
            m ~samples:g_n "gen.ns_per_vertex" "ns" (gen_s *. 1e9 /. float_of_int p.n);
            m ~samples:g_n "store.write_s" "s" write_s;
            m ~samples:open_served "serve.stage.queue_us" "us" q;
            m ~samples:open_served "serve.stage.batch_us" "us" b;
            m ~samples:open_served "serve.stage.search_us" "us" se;
            m ~samples:open_served "serve.stage.reply_us" "us" r;
            m ~samples:nl "serve.unaccounted_us" "us" ((Bstat.quantile lat 0.5 *. 1e3) -. (q +. b +. se +. r));
            m ~samples:k "load.send_lag_ms" "ms" (Bstat.quantile lag 0.99);
          ]
  in
  {
    Report.correct = !correct;
    attempted;
    failed;
    end_to_end = e2e;
    per_layer;
    params =
      [
        ("n", string_of_int p.n);
        ("model", "\"mori m=1 p=0.5\"");
        ("mix", "\"" ^ String.concat "," (Array.to_list (Array.map (fun s -> s ^ ":1") mix)) ^ "\"");
        ("budget", string_of_int budget);
        ("targets", "\"uniform\"");
        ("server_jobs", string_of_int jobs);
        ("connections", string_of_int connections);
        ("graphs", string_of_int g_n);
        ("graph_seeds", Printf.sprintf "\"%d..%d\"" (graph_seed seed 0) (graph_seed seed (g_n - 1)));
        ("open_loop_rate", Printf.sprintf "%g" p.rate);
        ("open_loop_requests", string_of_int k);
        ("closed_loop_window", string_of_int connections);
      ];
    notes = List.rev !notes;
    spans;
  }
