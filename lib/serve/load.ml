(* Open-loop load generator against a running Server — the engine
   behind bin/sfload.

   Arrival model: with [rate > 0] requests are injected on a Poisson
   schedule fixed before the run starts, and each request's latency is
   measured from its *scheduled* arrival time, not from the moment the
   sender thread got around to writing it — the open-loop discipline
   that avoids coordinated omission: a slow server does not slow the
   clock that judges it. With [rate = 0] the generator degrades to a
   closed loop windowed by [concurrency], which is what saturation
   probing wants.

   Determinism: every request's parameters (strategy pick, target
   pick) come from [Rng.split_at param_root i], and the server derives
   the reply stream from the request id alone — so the multiset of
   reply payloads is a pure function of (seed, server seed, graph),
   independent of timing, connection count, or the server's --jobs.
   [summary] digests exactly that deterministic part (service costs in
   oracle requests — the paper's complexity measure — plus a CRC-32
   over the re-encoded replies in id order, each payload's own
   checksum tail excluded); wall-clock latencies go
   in [report] and the bench file, which only have to be *valid*, not
   byte-identical. *)

module Rng = Sf_prng.Rng
module Quantile = Sf_stats.Quantile
module Crc32 = Sf_store.Crc32
module Bench_file = Sf_perf.Bench_file
module Registry = Sf_obs.Registry
module Counter = Sf_obs.Counter
module Histo = Sf_obs.Histo

type target_spec = Server_default | Fixed_target of int | Uniform_target

type config = {
  endpoint : Wire.endpoint;
  requests : int;
  rate : float;
  connections : int;
  concurrency : int;
  seed : int;
  mix : (string * float) list;
  target : target_spec;
  budget : int option;
  stop_at_neighbor : bool;
  timeout : float;
}

let config ?(rate = 0.) ?(connections = 1) ?(concurrency = 32)
    ?(mix = [ ("high-degree", 1.) ]) ?(target = Server_default) ?budget
    ?(stop_at_neighbor = false) ?(timeout = 30.) ~seed ~requests endpoint =
  if requests < 1 then invalid_arg "Load.config: requests must be positive";
  if connections < 1 then invalid_arg "Load.config: connections must be positive";
  if concurrency < 1 then invalid_arg "Load.config: concurrency must be positive";
  if rate < 0. || not (Float.is_finite rate) then
    invalid_arg "Load.config: rate must be finite and non-negative";
  if timeout <= 0. then invalid_arg "Load.config: timeout must be positive";
  if mix = [] then invalid_arg "Load.config: empty strategy mix";
  List.iter
    (fun (name, w) ->
      if name = "" then invalid_arg "Load.config: empty strategy name in mix";
      if w <= 0. || not (Float.is_finite w) then
        invalid_arg
          (Printf.sprintf "Load.config: mix weight for %s must be positive" name))
    mix;
  (match target with
  | Fixed_target v when v < 1 ->
    invalid_arg "Load.config: fixed target must be a positive vertex"
  | _ -> ());
  (match budget with
  | Some b when b < 1 -> invalid_arg "Load.config: budget must be positive"
  | _ -> ());
  { endpoint; requests; rate; connections; concurrency; seed; mix; target;
    budget; stop_at_neighbor; timeout }

type outcome = {
  o_requests : int;
  o_connections : int;
  o_rate : float;  (** offered rate; 0 for a closed loop *)
  o_seed : int;
  o_n_vertices : int;
  o_sent : int;
  o_replies : int;  (** search replies received *)
  o_errors : int;  (** [Error] responses received *)
  o_missing : int;  (** requests never answered within the timeout *)
  o_found : int;  (** succeeded under the configured stop rule *)
  o_exhausted : int;  (** budget ran out before success *)
  o_gave_up : int;  (** the strategy itself ran out of moves *)
  o_mix_counts : (string * int) list;
  o_costs : int array;  (** oracle requests per answered search, id order *)
  o_wall_ns : float array;  (** wall latency per answered search, id order *)
  o_reply_crc : int32;  (** CRC-32 over re-encoded replies, id order *)
  o_elapsed_s : float;
  o_achieved_rate : float;
}

(* ---- deterministic request plan ------------------------------------- *)

let pick_strategy mix total rng =
  let x = Rng.unit_float rng *. total in
  let rec go acc = function
    | [] -> fst (List.nth mix (List.length mix - 1))
    | (name, w) :: rest ->
      let acc = acc +. w in
      if x < acc then name else go acc rest
  in
  go 0. mix

let plan cfg ~n_vertices =
  let root = Rng.of_seed cfg.seed in
  let param_root = Rng.split_at root 1 in
  let total = List.fold_left (fun a (_, w) -> a +. w) 0. cfg.mix in
  Array.init cfg.requests (fun i ->
      let rng = Rng.split_at param_root i in
      let strategy = pick_strategy cfg.mix total rng in
      let target =
        match cfg.target with
        | Server_default -> None
        | Fixed_target v -> Some v
        | Uniform_target -> Some (1 + Rng.int rng n_vertices)
      in
      (* the trace context is part of the plan: derived from (seed, id)
         by pure mixing, so request bytes are fixed-seed deterministic
         whether or not anyone is tracing *)
      { Wire.id = i + 1; strategy; source = None; target; budget = cfg.budget;
        stop_at_neighbor = cfg.stop_at_neighbor;
        ctx = Some (Sf_obs.Tctx.derive ~seed:cfg.seed ~id:(i + 1)) })

let poisson_schedule cfg =
  if cfg.rate <= 0. then [||]
  else begin
    let root = Rng.of_seed cfg.seed in
    let r = Rng.copy (Rng.split_at root 2) in
    let t = ref 0. in
    Array.init cfg.requests (fun _ ->
        let u = 1. -. Rng.unit_float r in
        t := !t +. (-.log u /. cfg.rate);
        !t)
  end

(* ---- the run --------------------------------------------------------- *)

let learn_n_vertices cfg =
  let probe = Client.connect cfg.endpoint in
  Fun.protect
    ~finally:(fun () -> Client.close probe)
    (fun () ->
      match Client.call probe (Wire.Stats 0) with
      | Wire.Stats_reply s -> s.Wire.ss_n_vertices
      | other ->
        failwith
          (Printf.sprintf "Load.run: server answered Stats with message kind %d"
             (Wire.response_id other)))

let run cfg =
  let n_vertices = learn_n_vertices cfg in
  let reqs = plan cfg ~n_vertices in
  let schedule = poisson_schedule cfg in
  let open_loop = schedule <> [||] in
  let conns = Array.init cfg.connections (fun _ -> Client.connect cfg.endpoint) in
  Array.iter (fun c -> Client.set_receive_timeout c cfg.timeout) conns;
  let replies = Array.make cfg.requests None in
  let recv_at = Array.make cfg.requests 0. in
  let send_at = Array.make cfg.requests 0. in
  (* closed-loop window *)
  let m = Mutex.create () in
  let cv = Condition.create () in
  let inflight = ref 0 in
  let acquire () =
    Mutex.lock m;
    while !inflight >= cfg.concurrency do
      Condition.wait cv m
    done;
    incr inflight;
    Mutex.unlock m
  in
  let release () =
    Mutex.lock m;
    decr inflight;
    Condition.signal cv;
    Mutex.unlock m
  in
  let expected = Array.make cfg.connections 0 in
  for i = 0 to cfg.requests - 1 do
    expected.(i mod cfg.connections) <- expected.(i mod cfg.connections) + 1
  done;
  let receiver c () =
    let conn = conns.(c) in
    let remaining = ref expected.(c) in
    (try
       while !remaining > 0 do
         let resp = Client.recv conn in
         let now = Sf_obs.Clock.now_s () in
         (match Wire.response_id resp with
         | id when id >= 1 && id <= cfg.requests ->
           replies.(id - 1) <- Some resp;
           recv_at.(id - 1) <- now
         | _ -> ());
         decr remaining;
         if not open_loop then release ()
       done
     with
    | End_of_file | Failure _ | Sf_store.Codec_error.Error _
    | Unix.Unix_error _ ->
      (* server gone, stream mutilated, or timed out: the unanswered
         requests on this connection are counted as missing *)
      if not open_loop then
        for _ = 1 to !remaining do
          release ()
        done)
  in
  let receivers =
    Array.init cfg.connections (fun c -> Thread.create (receiver c) ())
  in
  let t0 = Sf_obs.Clock.now_s () in
  let sent = ref 0 in
  (try
     for i = 0 to cfg.requests - 1 do
       if open_loop then begin
         let due = t0 +. schedule.(i) in
         let rec wait () =
           let now = Sf_obs.Clock.now_s () in
           if now < due then begin
             Thread.delay (Float.min 0.002 (due -. now));
             wait ()
           end
         in
         wait ()
       end
       else acquire ();
       send_at.(i) <- Sf_obs.Clock.now_s ();
       Client.send conns.(i mod cfg.connections) (Wire.Search reqs.(i));
       incr sent
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  Array.iter Thread.join receivers;
  let t_end = Sf_obs.Clock.now_s () in
  Array.iter Client.close conns;
  (* fold the replies, id order *)
  let n_replies = ref 0 in
  let errors = ref 0 in
  let missing = ref 0 in
  let found = ref 0 in
  let exhausted = ref 0 in
  let gave_up = ref 0 in
  let costs = ref [] in
  let wall = ref [] in
  let crc = ref 0l in
  for i = cfg.requests - 1 downto 0 do
    match replies.(i) with
    | None -> incr missing
    | Some resp ->
      (match resp with
      | Wire.Search_reply sr ->
        incr n_replies;
        let success =
          if cfg.stop_at_neighbor then sr.Wire.sr_to_neighbor <> None
          else sr.Wire.sr_to_target <> None
        in
        if success then incr found
        else if sr.Wire.sr_gave_up then incr gave_up
        else incr exhausted;
        costs := sr.Wire.sr_total_requests :: !costs;
        let origin = if open_loop then t0 +. schedule.(i) else send_at.(i) in
        wall := Float.max 0. ((recv_at.(i) -. origin) *. 1e9) :: !wall
      | Wire.Error _ -> incr errors
      | _ -> incr errors)
  done;
  (* Digest in ascending id order. Each encoded payload ends with its
     own CRC-32 tail, and a CRC over a self-checksummed block is the
     constant residue 0x2144df1c whatever the content — so the tail
     must be excluded or the digest degenerates to a reply count. *)
  for i = 0 to cfg.requests - 1 do
    match replies.(i) with
    | Some (Wire.Search_reply _ as resp) ->
      let s = Wire.encode_response resp in
      crc := Crc32.sub ~init:!crc s ~pos:0 ~len:(String.length s - 4)
    | _ -> ()
  done;
  (* per-request client spans, reconstructed after the run from the
     recorded send/receive stamps (the receiver threads must never
     touch trace sinks — sinks are single-domain closures).  Emitted
     in id order as adjacent Begin/End pairs; with the server traced
     to its own file, the merged timeline lines these up against the
     serve.stage.* spans via the shared trace id. *)
  if Sf_obs.Trace.active () then
    for i = 0 to cfg.requests - 1 do
      match replies.(i) with
      | Some (Wire.Search_reply sr) ->
        let origin = if open_loop then t0 +. schedule.(i) else send_at.(i) in
        let args =
          [ ("id", Sf_obs.Trace.Int (i + 1));
            ("strategy", Sf_obs.Trace.Str reqs.(i).Wire.strategy);
            ("cost", Sf_obs.Trace.Int sr.Wire.sr_total_requests) ]
          @ (match reqs.(i).Wire.ctx with
            | Some c -> Sf_obs.Tctx.args c
            | None -> [])
        in
        Sf_obs.Trace.emit ~ts:origin "load.request" Sf_obs.Trace.Begin ~args;
        Sf_obs.Trace.emit
          ~ts:(Float.max origin recv_at.(i))
          "load.request" Sf_obs.Trace.End
      | _ -> ()
    done;
  let mix_counts =
    List.map
      (fun (name, _) ->
        ( name,
          Array.fold_left
            (fun acc r -> if r.Wire.strategy = name then acc + 1 else acc)
            0 reqs ))
      cfg.mix
  in
  let elapsed = Float.max 1e-9 (t_end -. t0) in
  {
    o_requests = cfg.requests;
    o_connections = cfg.connections;
    o_rate = cfg.rate;
    o_seed = cfg.seed;
    o_n_vertices = n_vertices;
    o_sent = !sent;
    o_replies = !n_replies;
    o_errors = !errors;
    o_missing = !missing;
    o_found = !found;
    o_exhausted = !exhausted;
    o_gave_up = !gave_up;
    o_mix_counts = mix_counts;
    o_costs = Array.of_list !costs;
    o_wall_ns = Array.of_list !wall;
    o_reply_crc = !crc;
    o_elapsed_s = elapsed;
    o_achieved_rate = float_of_int !n_replies /. elapsed;
  }

(* ---- reporting ------------------------------------------------------- *)

let cost_quantiles o =
  if o.o_costs = [||] then (0., 0., 0., 0.)
  else
    let xs = Quantile.of_int_array o.o_costs in
    match Quantile.quantiles xs ~qs:[ 0.5; 0.95; 0.99 ] with
    | [ p50; p95; p99 ] ->
      let mx = Array.fold_left Float.max neg_infinity xs in
      (p50, p95, p99, mx)
    | _ -> assert false

let summary o =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let cost_total = Array.fold_left ( + ) 0 o.o_costs in
  let mean =
    if o.o_costs = [||] then 0.
    else float_of_int cost_total /. float_of_int (Array.length o.o_costs)
  in
  let p50, p95, p99, mx = cost_quantiles o in
  let sqrt_n = sqrt (float_of_int o.o_n_vertices) in
  pf "sfload summary (deterministic)\n";
  pf "  seed             %d\n" o.o_seed;
  pf "  requests         %d\n" o.o_requests;
  pf "  mix              %s\n"
    (String.concat " "
       (List.map (fun (n, c) -> Printf.sprintf "%s:%d" n c) o.o_mix_counts));
  pf "  replies          found=%d exhausted=%d gave-up=%d errors=%d missing=%d\n"
    o.o_found o.o_exhausted o.o_gave_up o.o_errors o.o_missing;
  pf "  cost/request     total=%d mean=%.2f p50=%.1f p95=%.1f p99=%.1f max=%.0f\n"
    cost_total mean p50 p95 p99 mx;
  pf "  sqrt(n) floor    n=%d sqrt=%.1f mean-cost/sqrt(n)=%.3f\n" o.o_n_vertices
    sqrt_n
    (if sqrt_n > 0. then mean /. sqrt_n else 0.);
  pf "  reply-crc32      0x%08lx\n" o.o_reply_crc;
  Buffer.contents b

let report o =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "sfload run (wall clock)\n";
  pf "  connections      %d\n" o.o_connections;
  (if o.o_rate > 0. then pf "  offered rate     %.1f req/s (open loop)\n" o.o_rate
   else pf "  offered rate     closed loop (saturation probe)\n");
  pf "  achieved rate    %.1f req/s over %.3f s\n" o.o_achieved_rate o.o_elapsed_s;
  if o.o_wall_ns <> [||] then begin
    match Quantile.quantiles o.o_wall_ns ~qs:[ 0.5; 0.95; 0.99 ] with
    | [ p50; p95; p99 ] ->
      pf "  latency          p50=%.3f ms p95=%.3f ms p99=%.3f ms\n" (p50 /. 1e6)
        (p95 /. 1e6) (p99 /. 1e6)
    | _ -> assert false
  end;
  Buffer.contents b

let to_bench ~date ~commit ~mode o =
  if o.o_wall_ns = [||] then
    invalid_arg "Load.to_bench: no replies, nothing to record";
  {
    Bench_file.commit;
    date;
    host = Bench_file.current_host ();
    jobs = o.o_connections;
    seed = o.o_seed;
    mode;
    benchmarks =
      [
        { Bench_file.name = "serve/load: request latency";
          unit_label = "ns";
          samples = Array.copy o.o_wall_ns };
        { Bench_file.name = "serve/load: service cost";
          unit_label = "oracle-requests";
          samples = Quantile.of_int_array o.o_costs };
      ];
  }

(* ---- capacity ramp ---------------------------------------------------- *)

type ramp_step = {
  r_rate : float;
  r_outcome : outcome;
  r_p99_ms : float;
  r_ok : bool;
}

type ramp_result = {
  r_steps : ramp_step list;
  r_capacity : float option;
  r_ceiling : float option;
}

let p99_ms o =
  if o.o_wall_ns = [||] then infinity
  else
    match Quantile.quantiles o.o_wall_ns ~qs:[ 0.99 ] with
    | [ p99 ] -> p99 /. 1e6
    | _ -> assert false

(* A step holds iff the server kept up: every request answered, no
   errors, and tail latency under the threshold.  An unanswered run
   has p99 = infinity, so the three conditions are really one: the
   offered rate was sustained. *)
let step ~threshold_ms probe rate =
  let o = probe ~rate in
  let p99 = p99_ms o in
  { r_rate = rate; r_outcome = o; r_p99_ms = p99;
    r_ok = o.o_missing = 0 && o.o_errors = 0 && p99 <= threshold_ms }

let ramp ?(start = 50.) ?(factor = 2.) ?(p99_ms = 50.) ?(max_steps = 10) ?(bisect = 2) probe =
  if start <= 0. then invalid_arg "Load.ramp: start must be positive";
  if factor <= 1. then invalid_arg "Load.ramp: factor must exceed 1";
  if p99_ms <= 0. then invalid_arg "Load.ramp: p99 threshold must be positive";
  if max_steps < 1 then invalid_arg "Load.ramp: need at least one step";
  if bisect < 0 then invalid_arg "Load.ramp: bisect rounds must be >= 0";
  let threshold_ms = p99_ms in
  let steps = ref [] in
  let probe_at rate =
    let s = step ~threshold_ms probe rate in
    steps := s :: !steps;
    s
  in
  (* geometric climb until the server blows the threshold *)
  let rec climb rate last_ok left =
    if left = 0 then (last_ok, None)
    else
      let s = probe_at rate in
      if s.r_ok then climb (rate *. factor) (Some rate) (left - 1)
      else (last_ok, Some rate)
  in
  match climb start None max_steps with
  | None, None -> { r_steps = List.rev !steps; r_capacity = None; r_ceiling = None }
  | None, Some bad ->
    (* the very first rate failed: no capacity estimate, only a ceiling *)
    { r_steps = List.rev !steps; r_capacity = None; r_ceiling = Some bad }
  | Some ok, None ->
    (* never failed within max_steps: the estimate is a lower bound *)
    { r_steps = List.rev !steps; r_capacity = Some ok; r_ceiling = None }
  | Some ok, Some bad ->
    (* bracket [ok, bad]: tighten by geometric-mean bisection *)
    let lo = ref ok and hi = ref bad in
    for _ = 1 to bisect do
      let mid = sqrt (!lo *. !hi) in
      let s = probe_at mid in
      if s.r_ok then lo := mid else hi := mid
    done;
    { r_steps = List.rev !steps; r_capacity = Some !lo; r_ceiling = Some !hi }

let ramp_report r =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "sfload ramp (wall clock)\n";
  pf "  %10s %12s %10s %8s %8s  %s\n" "rate" "achieved" "p99" "errors" "missing" "verdict";
  List.iter
    (fun s ->
      pf "  %10.1f %12.1f %9.2fms %8d %8d  %s\n" s.r_rate s.r_outcome.o_achieved_rate
        s.r_p99_ms s.r_outcome.o_errors s.r_outcome.o_missing
        (if s.r_ok then "ok" else "OVER"))
    r.r_steps;
  (match (r.r_capacity, r.r_ceiling) with
  | Some c, Some x -> pf "  capacity ~%.1f req/s (ceiling %.1f req/s)\n" c x
  | Some c, None -> pf "  capacity >=%.1f req/s (never saturated; raise --ramp-steps)\n" c
  | None, Some x -> pf "  capacity <%.1f req/s (first rate already over; lower --ramp-start)\n" x
  | None, None -> pf "  no capacity estimate (no steps ran)\n");
  Buffer.contents b

let record_metrics o =
  Counter.add (Registry.counter "load.sent") o.o_sent;
  Counter.add (Registry.counter "load.replies") o.o_replies;
  Counter.add (Registry.counter "load.errors") (o.o_errors + o.o_missing);
  let h = Registry.histo "load.latency_us" in
  Array.iter (fun ns -> Histo.observe h (ns /. 1e3)) o.o_wall_ns
