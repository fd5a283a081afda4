(* The repository benchmark: drives one workload against the real
   [facile] binary, checks every answer, and prints its metrics.

     bench.exe --workload hot-stdio|cold-tcp|batch --seed N --seconds S
               --trace 0|1 --facile PATH --work DIR

   With --trace 0 the last stdout line is the end-to-end metrics; with
   --trace 1 the same untraced run is followed by the in-process
   per-layer replay, and the last line is the per-layer metrics.  The
   lines before it are the human-readable report. *)

open Perfbench
module Json = Facile_obs.Json

let workloads = [ "hot-stdio"; "cold-tcp"; "batch" ]

let why = function
  | "hot-stdio" -> "repeated keys from a warm store: almost no model work, the request path around the model does all of it"
  | "cold-tcp" -> "distinct keys on two connections: the model and cache inserts/evictions run on every request"
  | _ -> "one process over a large corpus: engine pool, block build and serialization; accuracy vs the oracle"

(* ----- end-to-end ----- *)

(* The timings, each the median over the run's windows of the
   window's figure at the reference speed (see {!Calib} and
   {!Drive.at_reference}); the report prints them as measured too. *)
let timings =
  [ "ops_per_s", "1/ref-s", (fun w -> w.Drive.rate);
    "latency_p50_us", "ref-us", (fun w -> w.Drive.p50_us);
    "latency_p90_us", "ref-us", (fun w -> w.Drive.p90_us);
    "cpu_us_per_op", "ref-us", (fun w -> w.Drive.cpu_us) ]

let median_over ws f = Pct.median (Pct.sorted (Array.map f ws))

let scaled_windows (o : Drive.outcome) = Array.map Drive.at_reference (Drive.clean o.Drive.windows)

let end_to_end (o : Drive.outcome) =
  let pairs = o.Drive.acc in
  let mape, tau =
    if List.length pairs < 2 then (Float.nan, Float.nan)
    else
      ( 100. *. Facile_stats.Error_metrics.mape pairs,
        Facile_stats.Kendall.tau_b pairs )
  in
  let ws = scaled_windows o in
  List.map (fun (m, u, f) -> (m, u, median_over ws f)) timings
  @ [ "peak_rss_mb", "MiB", o.Drive.rss_mb;
      "setup_s", "s", Pct.median (Pct.sorted o.Drive.setup_s);
      "mape_pct", "%", mape;
      "kendall_tau", "ratio", tau ]

let report_e2e name (o : Drive.outcome) metrics =
  let t = o.Drive.tally in
  Printf.printf "== %s: %s\n" name (why name);
  let measured = Drive.clean o.Drive.windows in
  List.iter
    (fun (m, u, v) ->
      let extra =
        match List.find_opt (fun (n, _, _) -> n = m) timings with
        | Some (_, _, f) ->
          Printf.sprintf "  (median of %d of %d windows; as measured %.4f)%s"
            (Array.length measured) (Array.length o.Drive.windows) (median_over measured f)
            (match m with
             | "ops_per_s" -> Printf.sprintf "; %d ops in %.2f s" o.Drive.ops o.Drive.wall_s
             | "latency_p50_us" ->
               Printf.sprintf "; whole run as measured: %.1f us over n=%d"
                 (Pct.median o.Drive.lat_us) (Array.length o.Drive.lat_us)
             | _ -> "")
        | None ->
          (match m with
           | "setup_s" -> Printf.sprintf "  (median of %d set-ups)" (Array.length o.Drive.setup_s)
           | "mape_pct" | "kendall_tau" -> Printf.sprintf "  (%d oracle-labelled)" (List.length o.Drive.acc)
           | _ -> "")
      in
      Printf.printf "  %-16s %14.4f %-7s%s\n" m v u extra)
    metrics;
  (* the tail: too host-bound on a shared machine to repeat within a
     bound, so printed, not reported *)
  Printf.printf "  %-16s %14.4f %-7s  (median of window p99s; as measured %.4f; whole run as measured: p%g %.1f us%s)\n"
    "latency_p99_us" (median_over (scaled_windows o) (fun w -> w.Drive.p99_us)) "ref-us"
    (median_over measured (fun w -> w.Drive.p99_us))
    (fst (Pct.p99 o.Drive.lat_us)) (snd (Pct.p99 o.Drive.lat_us))
    (match Pct.tail o.Drive.lat_us with
     | Some (p, v) -> Printf.sprintf ", highest tail with >=10 beyond: p%.3f %.1f us" p v
     | None -> "");
  Printf.printf "  %-16s %14.6f %-6s  (%d failed of %d attempted)\n" "fail_ratio"
    (float_of_int t.Check.failed /. float_of_int (max 1 t.Check.attempted))
    "ratio" t.Check.failed t.Check.attempted;
  List.iter (Printf.printf "  note: %s\n") o.Drive.notes;
  Printf.printf "  note: window rates (1/s): %s\n"
    (String.concat " " (Array.to_list (Array.map (fun w -> Printf.sprintf "%.0f" w.Drive.rate) o.Drive.windows)));
  Printf.printf "  note: host speed per window (share of the reference): %s\n"
    (String.concat " " (Array.to_list (Array.map (fun w -> Printf.sprintf "%.2f" w.Drive.speed) o.Drive.windows)));
  Printf.printf "  note: host steal per window (%%; windows over %.0f%% are left out while %d others remain): %s\n"
    (100. *. Drive.max_stolen) Drive.min_clean
    (String.concat " " (Array.to_list (Array.map (fun w -> Printf.sprintf "%.1f" (100. *. w.Drive.stolen)) o.Drive.windows)));
  Printf.printf "  note: untimed phases: %s\n"
    (String.concat ", "
       (List.rev_map (fun (p, s) -> Printf.sprintf "%s %.2f s" p s) !Drive.phases));
  List.iter (Printf.printf "  FAIL: %s\n") (List.rev t.Check.reasons)

(* ----- per-layer ----- *)

let report_layers name ~ops (sum : Replay.summary) =
  Printf.printf "== %s per-layer (traced in-process replay of %d operations; off = measured in the off-path pass)\n" name ops;
  Printf.printf "  %-26s %4s %11s %11s %8s %10s  %s\n" "metric" "path" "mean" "p50" "n" "per op" "should move";
  List.iter
    (fun (m : Replay.metric) ->
      let path = if m.Replay.on_path then "on" else "off" in
      match m.Replay.p50, m.Replay.count with
      | Some p50, Some n ->
        let per_op =
          if m.Replay.on_path then Printf.sprintf "%10.3f" (m.Replay.value *. float_of_int n /. float_of_int (max 1 ops))
          else Printf.sprintf "%10s" "-"
        in
        Printf.printf "  %-26s %4s %11.3f %11.3f %8d %s  %s\n" m.Replay.name path m.Replay.value p50 n per_op
          m.Replay.moves
      | _ ->
        Printf.printf "  %-26s %4s %11.4f %-6s %24s  %s\n" m.Replay.name path m.Replay.value m.Replay.unit_ ""
          m.Replay.moves)
    sum.Replay.metrics;
  let get n =
    (List.find (fun (m : Replay.metric) -> m.Replay.name = n) sum.Replay.metrics).Replay.value
  in
  Printf.printf "  stage sum %.3f us/op + unattributed_us %.3f = untraced mean %.3f us/op\n"
    sum.Replay.attributed_us (get "unattributed_us") (get "e2e.mean_us");
  print_endline
    "  (self and combine times are differences of separately timed calls on the same operation; \
     a negative mean means that layer's own work is below the noise of the calls it is the difference of)"

let layer_json (sum : Replay.summary) =
  List.concat_map
    (fun (m : Replay.metric) ->
      let v n x u = (n, Json.Obj [ "value", Json.Float x; "unit", Json.Str u ]) in
      match m.Replay.p50, m.Replay.count with
      | Some p50, Some n ->
        [ v m.Replay.name m.Replay.value m.Replay.unit_;
          v (m.Replay.name ^ ".p50") p50 m.Replay.unit_;
          v (m.Replay.name ^ ".n") (float_of_int n) "count" ]
      | _ -> [ v m.Replay.name m.Replay.value m.Replay.unit_ ])
    sum.Replay.metrics

(* ----- main ----- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload hot-stdio|cold-tcp|batch --seed N --seconds S --trace 0|1 --facile PATH --work DIR";
  exit 2

let rm_dir d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  (* a program that dies must show up as lost answers, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem workload workloads) then usage ();
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let trace = int "--trace" = 1 in
  let env =
    { Drive.facile = get "--facile"; work = get "--work";
      seconds = float_of_int (int "--seconds"); seed = int "--seed" }
  in
  if not (Sys.file_exists env.Drive.facile) then begin
    prerr_endline ("bench: no program at " ^ env.Drive.facile);
    exit 2
  end;
  rm_dir env.Drive.work;
  Sys.mkdir env.Drive.work 0o755;
  Fun.protect ~finally:(fun () -> rm_dir env.Drive.work) @@ fun () ->
  let outcome =
    match workload with
    | "hot-stdio" -> Drive.hot_stdio env
    | "cold-tcp" -> Drive.cold_tcp env
    | _ -> Drive.batch env
  in
  let e2e = end_to_end outcome in
  report_e2e workload outcome e2e;
  let t = outcome.Drive.tally in
  let correct = t.Check.failed = 0 && t.Check.attempted > 0 in
  let metrics =
    if trace then begin
      let ops, sum = Replay.of_outcome workload ~work:env.Drive.work outcome in
      report_layers workload ~ops sum;
      layer_json sum
    end
    else List.map (fun (m, u, v) -> (m, Json.Obj [ "value", Json.Float v; "unit", Json.Str u ])) e2e
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ "correct", Json.Bool correct;
            "attempted", Json.Int t.Check.attempted;
            "failed", Json.Int t.Check.failed;
            "metrics", Json.Obj metrics ]))
