(* perfbench: one run of one benchmark workload (see README.md).

     perfbench --workload serve-large|serve-small|grid --seed N
               --seconds S --trace 0|1 --sfserve EXE --sffabric EXE
               --work DIR --results DIR [--toy 0|1]

   Prints the workload parameters, the output checks and every metric
   with its unit and sample count, then, as its last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 a
   separate traced run reports the per-layer ones and writes its spans
   as a Perfetto file under the results directory. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload serve-large|serve-small|grid --seed N --seconds S --trace 0|1 \
     --sfserve EXE --sffabric EXE --work DIR --results DIR [--toy 0|1]";
  exit 2

(* JSON numbers with all their digits; a value with no samples behind
   it (NaN) is reported as 0 and flagged in the sample count. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seed = int_of_string (get "seed") in
  let seconds = float_of_string (get "seconds") in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let results = get "results" in
  (* toy-size inputs for the self-test: every code path, no measurement *)
  let toy = Hashtbl.find_opt args "toy" = Some "1" in
  let work = Filename.concat (get "work") (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  if seconds <= 0. then usage ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter Sf_fabric.Grid.mkdir_p [ work; results ];
  let report =
    Fun.protect
      ~finally:(fun () -> Child.rm_rf work)
      (fun () ->
        match workload with
        | "serve-large" | "serve-small" ->
          let p = if workload = "serve-large" then Serve_wl.large else Serve_wl.small in
          let p = if toy then Serve_wl.toy p else p in
          Serve_wl.run ~p ~seed ~seconds ~traced ~work ~results ~sfserve:(get "sfserve")
        | "grid" ->
          let p = if toy then Grid_wl.toy else Grid_wl.full in
          Grid_wl.run ~p ~seed ~seconds ~traced ~work ~sffabric:(get "sffabric")
        | w ->
          Printf.eprintf "perfbench: unknown workload %S\n" w;
          exit 2)
  in
  let params =
    [
      ("workload", Printf.sprintf "%S" workload);
      ("seed", string_of_int seed);
      ("seconds", num seconds);
      ("trace", if traced then "1" else "0");
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
    ]
    @ report.Report.params
  in
  Printf.printf "params {%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) params));
  List.iter (fun l -> Printf.printf "# %s\n" l) report.Report.notes;
  let line tag (x : Report.metric) =
    Printf.printf "%s %s %s %s n=%d\n" tag x.Report.name (num x.Report.value) x.Report.unit_
      x.Report.samples
  in
  List.iter (line (if traced then "traced-metric" else "metric")) report.Report.end_to_end;
  let per_layer = if traced then Report.complete_per_layer report.Report.per_layer else [] in
  List.iter (line "layer") per_layer;
  (match report.Report.spans with
  | None -> ()
  | Some sp ->
    let file = Filename.concat results (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
    Out_channel.with_open_bin file (fun oc -> output_string oc (Spans.to_perfetto sp));
    Printf.printf "# trace: %d spans written to %s\n" (List.length (Spans.all sp)) file;
    Printf.printf "span-names %s\n" (String.concat " " (Spans.names sp)));
  let shown = if traced then per_layer else report.Report.end_to_end in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    report.Report.correct report.Report.attempted report.Report.failed
    (String.concat ", "
       (List.map
          (fun (x : Report.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Report.name (num x.Report.value)
              x.Report.unit_)
          shown))
