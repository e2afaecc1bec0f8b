(* In-memory span recorder for the traced run.

   Spans are recorded only by the benchmark, around its calls into the
   public API of each layer. A span's name is its metric prefix; the
   spans of one request share the request id ([rid]). Nothing is
   written until the run ends, when the whole set is rendered once as
   a Perfetto document through Sf_obs.Trace_export. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  rid : int;  (** request or task id; -1 when the span serves no single request *)
  name : string;
  t0 : float;
  t1 : float;
}

type t = { lock : Mutex.t; mutable next : int; mutable spans : span list }

let create () = { lock = Mutex.create (); next = 0; spans = [] }

let fresh t =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.lock;
  id

let record t ~id ?(parent = -1) ?(rid = -1) name t0 t1 =
  let s = { id; parent; rid; name; t0; t1 } in
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

(* Record a span whose bounds were measured elsewhere; returns its id. *)
let add t ?parent ?rid name t0 t1 =
  let id = fresh t in
  record t ~id ?parent ?rid name t0 t1;
  id

(* [with_span] passes the new span's id to [f], so that spans opened
   inside can name it as their parent. *)
let with_span t ?parent ?rid name f =
  let id = fresh t in
  let t0 = Bstat.now () in
  let r = f id in
  record t ~id ?parent ?rid name t0 (Bstat.now ());
  r

(* A recorder that may be absent: the untraced runs pass [None] and
   pay one branch per call site. *)
let opt_with_span r ?parent ?rid name f =
  match r with
  | None -> f (-1)
  | Some t -> with_span t ?parent ?rid name f

let opt_add r ?parent ?rid name t0 t1 =
  match r with None -> () | Some t -> ignore (add t ?parent ?rid name t0 t1)

let all t = List.rev t.spans
let named t name = List.filter (fun s -> s.name = name) (all t)
let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus the part of its interval that
   its children cover (overlapping children counted once). *)
let self_times t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    t.spans;
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let ivs =
        Hashtbl.find_all children s.id
        |> List.filter_map (fun (a, b) ->
               let a = Float.max a s.t0 and b = Float.min b s.t1 in
               if b > a then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) ivs
      in
      Hashtbl.replace self s.id (duration s -. covered))
    t.spans;
  fun s -> Hashtbl.find self s.id

(* Distinct span names: the layers the traced run touched. *)
let names t = List.sort_uniq String.compare (List.map (fun s -> s.name) t.spans)

let to_perfetto ?(process = "perfbench") t =
  let spans =
    List.sort (fun a b -> compare (a.t0, -.a.t1, a.id) (b.t0, -.b.t1, b.id)) (all t)
  in
  let seq = ref 0 in
  let ev ts name kind args =
    incr seq;
    { Sf_obs.Trace.seq = !seq; ts; name; kind; args }
  in
  (* Begin and End are emitted adjacently, so the exporter pairs each
     span with itself even where concurrent requests overlap. *)
  let events =
    List.concat_map
      (fun s ->
        let args =
          [ ("span", Sf_obs.Trace.Int s.id); ("parent", Sf_obs.Trace.Int s.parent) ]
          @ if s.rid >= 0 then [ ("id", Sf_obs.Trace.Int s.rid) ] else []
        in
        [ ev s.t0 s.name Sf_obs.Trace.Begin args; ev s.t1 s.name Sf_obs.Trace.End [] ])
      spans
  in
  Sf_obs.Trace_export.perfetto_json ~process events
