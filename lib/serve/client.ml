(* Blocking client for the sfserve protocol — the counterpart of
   Server, used by bin/sfload, the end-to-end tests, and anything
   else that wants to ask a running daemon for a search. Supports
   pipelining: [send] and [recv] are independent, so a caller may
   keep many requests in flight on one connection and match replies
   by id. *)

type t = {
  fd : Unix.file_descr;
  mutable buf : string; (* received, not yet framed-out *)
  mutable pos : int;
}

let connect ep =
  let fd =
    match ep with
    | Wire.Unix_path _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
    | Wire.Tcp _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0
  in
  (try
     (match ep with
     | Wire.Unix_path path -> Unix.connect fd (Unix.ADDR_UNIX path)
     | Wire.Tcp (host, port) ->
       let addr =
         try Unix.inet_addr_of_string host
         with Failure _ -> (
           match Unix.gethostbyname host with
           | { Unix.h_addr_list = [||]; _ } -> failwith ("no address for host " ^ host)
           | h -> h.Unix.h_addr_list.(0))
       in
       Unix.connect fd (Unix.ADDR_INET (addr, port));
       Unix.setsockopt fd Unix.TCP_NODELAY true)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; buf = ""; pos = 0 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let set_receive_timeout t seconds =
  Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO seconds

let write_all fd s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let rec go off = if off < n then go (off + Unix.write fd bytes off (n - off)) in
  go 0

let send t req = write_all t.fd (Wire.frame (Wire.encode_request req))

let recv_payload t =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Wire.pop t.buf ~pos:t.pos with
    | `Frame (payload, next) ->
      t.pos <- next;
      if t.pos = String.length t.buf then begin
        t.buf <- "";
        t.pos <- 0
      end;
      payload
    | `Bad msg -> failwith ("malformed frame from server: " ^ msg)
    | `Need_more -> (
      match Unix.read t.fd chunk 0 (Bytes.length chunk) with
      | 0 -> raise End_of_file
      | n ->
        t.buf <-
          (if t.pos = 0 then t.buf
           else String.sub t.buf t.pos (String.length t.buf - t.pos))
          ^ Bytes.sub_string chunk 0 n;
        t.pos <- 0;
        go ())
  in
  go ()

let recv t = Wire.decode_response (recv_payload t)

let call t req =
  send t req;
  recv t

(* One traced search round trip: builds the request (deriving a trace
   context from (seed, id) unless the caller supplies one), and — when
   this process is tracing — emits a client.request span covering
   send-to-receive, carrying the same trace id the server's stage
   spans will carry.  Single-threaded callers only, like [call]. *)
let search ?source ?target ?budget ?(stop_at_neighbor = false) ?ctx ~seed ~strategy t id =
  let ctx =
    match ctx with Some _ as c -> c | None -> Some (Sf_obs.Tctx.derive ~seed ~id)
  in
  let req =
    Wire.Search { id; strategy; source; target; budget; stop_at_neighbor; ctx }
  in
  let t0 = Sf_obs.Clock.now_s () in
  let resp = call t req in
  if Sf_obs.Trace.active () then begin
    let t1 = Sf_obs.Clock.now_s () in
    let args =
      ("id", Sf_obs.Trace.Int id)
      :: (match ctx with Some c -> Sf_obs.Tctx.args c | None -> [])
    in
    Sf_obs.Trace.emit ~ts:t0 "client.request" Sf_obs.Trace.Begin ~args;
    Sf_obs.Trace.emit ~ts:(Float.max t0 t1) "client.request" Sf_obs.Trace.End
  end;
  resp
