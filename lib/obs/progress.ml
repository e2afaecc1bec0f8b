(* Live progress lines on stderr: carriage-return overwrite while
   running, a final newline-terminated line on finish.  Lines are
   padded to the longest line written so a shorter update fully
   overwrites a longer one. *)

(* Process-wide kill switch: fabric worker processes inherit the
   coordinator's terminal, and N workers redrawing carriage-return
   lines over each other is garbage — workers flip this off and report
   through Proto.Progress instead, leaving the coordinator's single
   consolidated line as the only writer. *)
let enabled = ref true
let set_enabled v = enabled := v

type t = {
  out : out_channel;
  label : string;
  total : int;
  start : float;
  mutable completed : int;
  mutable widest : int;
  mutable finished : bool;
}

let create ?(out = stderr) ~label ~total () =
  if total < 0 then invalid_arg "Progress.create: negative total";
  { out; label; total; start = Clock.now_s (); completed = 0; widest = 0; finished = false }

let fmt_seconds s =
  if s >= 60. then Printf.sprintf "%dm%02ds" (int_of_float s / 60) (int_of_float s mod 60)
  else Printf.sprintf "%.1fs" s

let line t ~detail =
  let elapsed = Float.max 0. (Clock.now_s () -. t.start) in
  let counts =
    if t.total > 0 then Printf.sprintf "%d/%d" t.completed t.total
    else string_of_int t.completed
  in
  let eta =
    if t.total > 0 && t.completed > 0 && t.completed < t.total then
      Printf.sprintf ", ETA %s"
        (fmt_seconds (elapsed /. float_of_int t.completed *. float_of_int (t.total - t.completed)))
    else ""
  in
  let detail = match detail with "" -> "" | d -> " — " ^ d in
  Printf.sprintf "%s: %s (elapsed %s%s)%s" t.label counts (fmt_seconds elapsed) eta detail

let show t s =
  if !enabled then
  let padded =
    if String.length s >= t.widest then begin
      t.widest <- String.length s;
      s
    end
    else s ^ String.make (t.widest - String.length s) ' '
  in
  Printf.fprintf t.out "\r%s%!" padded

let step ?(detail = "") t =
  if not t.finished then begin
    t.completed <- t.completed + 1;
    show t (line t ~detail)
  end

let finish t =
  if not t.finished then begin
    t.finished <- true;
    show t (line t ~detail:"done");
    if !enabled then begin
      output_char t.out '\n';
      flush t.out
    end
  end

let completed t = t.completed
