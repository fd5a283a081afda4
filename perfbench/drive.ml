(* The three workloads, driven end to end against the real [facile]
   binary from this one process: spawning, set-up, the timed closed
   loop, and the off-the-clock answer check.  Nothing here is traced;
   the per-layer replay lives in {!Replay}. *)

module Json = Facile_obs.Json

let now_ns = Proc.now_ns
let s_of_ns ns = float_of_int ns /. 1e9

type env = {
  facile : string;  (* the binary under test *)
  work : string;    (* directory for the generated files *)
  seconds : float;  (* length of the timed phase *)
  seed : int;
}

(* Sizes of the generated inputs; the tests shrink them. *)
type sizes = {
  prefill : int;        (* hot-stdio: warm-store keys *)
  hot_keys : int;       (* hot-stdio: requested subset *)
  cold_blocks : int;    (* cold-tcp: block pool (x 9 arches x 2 notions) *)
  cold_cache_cap : int; (* cold-tcp: below its distinct-key count *)
  hostile_pct : float;  (* cold-tcp *)
  batch_blocks : int;
  labelled : int;       (* oracle-labelled operations per workload *)
  (* set-ups per run (setup_s is their median): more where one set-up
     is short and so noisier *)
  hot_setups : int;
  cold_setups : int;
  batch_setups : int;
}

let default_sizes =
  { prefill = 20_000; hot_keys = 256; cold_blocks = 20_000;
    cold_cache_cap = 4096; hostile_pct = 2.; batch_blocks = 5_000;
    labelled = 6000; hot_setups = 11; cold_setups = 21; batch_setups = 31 }

type window = {
  rate : float;     (* operations per second *)
  cpu_us : float;   (* facile CPU per operation *)
  p50_us : float;   (* latency median *)
  p90_us : float;   (* latency p90 *)
  p99_us : float;   (* latency p99, see {!Pct.p99} *)
  stolen : float;   (* share of the machine's CPU time the hypervisor took *)
  speed : float;    (* the host's speed around the window, see {!Calib} *)
}

(* Steal, in seconds over all processors, since an arbitrary origin. *)
let steal_s () = fst (Proc.steal ())
let n_cpus = snd (Proc.steal ())

(* A window's figures from its operation count, length, CPU and steal
   seconds, the host's speed, and latencies. *)
let window ~ops ~ns ~cpu_s ~steal ~speed lat =
  let s = Pct.sorted lat in
  { rate = float_of_int ops *. 1e9 /. float_of_int ns;
    cpu_us = cpu_s *. 1e6 /. float_of_int ops;
    p50_us = Pct.median s;
    p90_us = Pct.quantile s 90.;
    p99_us = snd (Pct.p99 s);
    stolen = steal /. (float_of_int ns /. 1e9 *. float_of_int n_cpus);
    speed }

(* A window's figures at the reference speed of {!Calib}: a time
   measured while the host ran at [speed] times that speed would have
   taken [speed] times as long on the reference host. *)
let at_reference w =
  { w with rate = w.rate /. w.speed; cpu_us = w.cpu_us *. w.speed;
    p50_us = w.p50_us *. w.speed; p90_us = w.p90_us *. w.speed; p99_us = w.p99_us *. w.speed; speed = 1. }

(* Windows in which the hypervisor took more than this share of the
   machine's CPU time measure the host, not the program: the benchmark
   reports the median over the others, as long as [min_clean] remain. *)
let max_stolen = 0.10
let min_clean = 5

let clean ws =
  let c = List.filter (fun w -> w.stolen <= max_stolen) (Array.to_list ws) in
  if List.length c >= min_clean then Array.of_list c else ws

(* What one untraced run of a workload measured. *)
type outcome = {
  ops : int;                (* operations completed in the timed phase *)
  wall_s : float;           (* length of the timed phase *)
  windows : window array;
      (* the timed phase cut into windows (one second when serving, one
         invocation in batch); every end-to-end time is reported as the
         median over windows, so a few seconds of interference from
         outside the program do not move it *)
  lat_us : float array;     (* sorted latencies of those operations *)
  rss_mb : float;           (* facile's VmHWM *)
  setup_s : float array;    (* one sample per set-up *)
  acc : (float * float) list; (* (oracle label, prediction) pairs *)
  tally : Check.tally;      (* every answer checked, every phase *)
  notes : string list;      (* extra lines for the report *)
  timed : Gen.req array;    (* the timed phase's requests, for the replay *)
}

(* Wall time of each untimed phase of the run, for the report. *)
let phases : (string * float) list ref = ref []

let phase name f =
  let t0 = now_ns () in
  let v = f () in
  phases := (name, s_of_ns (now_ns () - t0)) :: !phases;
  v

(* ----- checking ----- *)

let expectation ref_of = function
  | Gen.Predict k -> `Predict (ref_of k)
  | Gen.Hostile (h, _) -> `Error (Gen.expected_kind h)

(* Check request [i]'s answer for every [i], on two domains; [ref_of]
   must be safe to call from several domains at once. *)
let verify tally ~what ~ref_of reqs (resps : string option array) =
  let results =
    Gen.par_map
      (fun i ->
        match resps.(i) with
        | None -> Error "lost response"
        | Some l -> Check.response ~id:i ~expect:(expectation ref_of reqs.(i)) l)
      (Array.init (Array.length reqs) Fun.id)
  in
  Array.iter (Check.record tally what) results

(* The cycles of every labelled prediction that parsed. *)
let accuracy_pairs labelled (resps : string option array) =
  List.filter_map
    (fun (i, label) ->
      match label, Option.map Json.parse resps.(i) with
      | Some m, Some (Ok j) ->
        Option.map (fun c -> (m, c)) (Option.bind (Json.member "cycles" j) Check.num)
      | _ -> None)
    labelled

(* ----- clients ----- *)

type client = { w : Unix.file_descr; r : Wire.reader }

let response_timeout_s = 10.

(* The clock, the completions so far, facile's CPU seconds and the
   host's steal seconds at one instant. *)
type snap = { at : int; done_ : int; cpu_s : float; steal : float }

type log = {
  reqs : Gen.req Vec.t;        (* by request id *)
  resps : string option Vec.t; (* by request id *)
  lat : float Vec.t;           (* microseconds, completed requests *)
  spans : (snap * snap) Vec.t; (* each window's first and last instant *)
  speeds : float Vec.t;
      (* the host's speed before the first window and after each *)
  mutable completed : int;
  mutable unexpected : int;    (* lines nobody asked for *)
}

let new_log () =
  let none =
    { Gen.cfg = Facile_uarch.Config.by_arch Facile_uarch.Config.SKL; mode = "auto";
      bytes = ""; hex = "" }
  in
  let zero = { at = 0; done_ = 0; cpu_s = 0.; steal = 0. } in
  { reqs = Vec.create (Gen.Predict none);
    resps = Vec.create None; lat = Vec.create 0.; spans = Vec.create (zero, zero);
    speeds = Vec.create 0.; completed = 0; unexpected = 0 }

let window_ns = 1_000_000_000

(* Closed loop: every client keeps exactly one request outstanding and
   sends its next one when the answer is back.  The [seconds] of load
   are cut into windows of [window_ns]; at the end of each the clients
   let their last requests drain, and [probe ()] samples the host's
   speed before the next one starts. *)
let closed_loop ~clients ~next ~seconds ~cpu ~probe log =
  let n = Array.length clients in
  let snap () = { at = now_ns (); done_ = log.completed; cpu_s = cpu (); steal = steal_s () } in
  let inflight = Array.make n (-1) in
  let sent_at = Array.make n 0 in
  let lost = ref false in
  (* a request the program can no longer receive stays unanswered *)
  let send i =
    let id = Vec.length log.reqs in
    let req = next () in
    Vec.push log.reqs req;
    Vec.push log.resps None;
    let line = Gen.line ~id req ^ "\n" in
    inflight.(i) <- id;
    sent_at.(i) <- now_ns ();
    if not (Wire.write_all clients.(i).w line) then lost := true
  in
  let run_window until_ns =
    Array.iteri (fun i _ -> send i) clients;
    while (not !lost) && Array.exists (fun id -> id >= 0) inflight do
      let waiting = List.filter (fun i -> inflight.(i) >= 0) (List.init n Fun.id) in
      match Wire.readable (List.map (fun i -> clients.(i).r.Wire.fd) waiting) response_timeout_s with
      | [] -> lost := true
      | ready ->
        let t = now_ns () in
        List.iter
          (fun i ->
            let c = clients.(i) in
            if List.mem c.r.Wire.fd ready then
              if not (Wire.read_once c.r) then lost := true
              else
                let rec drain () =
                  match Wire.pop_line c.r with
                  | None -> ()
                  | Some l ->
                    let id = inflight.(i) in
                    if id < 0 then log.unexpected <- log.unexpected + 1
                    else begin
                      Vec.set log.resps id (Some l);
                      Vec.push log.lat (float_of_int (t - sent_at.(i)) /. 1e3);
                      log.completed <- log.completed + 1;
                      inflight.(i) <- -1;
                      if t < until_ns then send i
                    end;
                    drain ()
                in
                drain ())
          waiting
    done
  in
  Vec.push log.speeds (probe ());
  let left = ref (int_of_float (seconds *. 1e9)) in
  while (not !lost) && !left > 0 do
    let a = snap () in
    run_window (a.at + min window_ns !left);
    let b = snap () in
    Vec.push log.spans (a, b);
    left := !left - (b.at - a.at);
    Vec.push log.speeds (probe ())
  done

(* Untimed bulk exchange over one client with up to [window] requests
   in flight (answers arrive in order on one session). *)
let pipelined c reqs ~window =
  let n = Array.length reqs in
  let resps = Array.make n None in
  let sent = ref 0 and got = ref 0 and lost = ref false in
  while (not !lost) && !got < n do
    while (not !lost) && !sent < n && !sent - !got < window do
      if not (Wire.write_all c.w (Gen.line ~id:!sent reqs.(!sent) ^ "\n")) then lost := true;
      incr sent
    done;
    let deadline_ns = now_ns () + int_of_float (response_timeout_s *. 1e9) in
    match Wire.next_line c.r ~deadline_ns with
    | Some l ->
      resps.(!got) <- Some l;
      incr got
    | None -> lost := true
  done;
  resps

(* ----- the serving process ----- *)

type server = { proc : Proc.t; err : Wire.reader }

let deadline_in s = now_ns () + int_of_float (s *. 1e9)

(* Wait for a stderr line that is a JSON object carrying [key]. *)
let await_announce srv key =
  let deadline_ns = deadline_in 60. in
  let rec go () =
    match Wire.next_line srv.err ~deadline_ns with
    | None -> failwith (Printf.sprintf "facile serve never announced %S" key)
    | Some l ->
      (match Json.parse l with
       | Ok j when Json.member key j <> None -> Option.get (Json.member key j)
       | _ -> go ())
  in
  go ()

let spawn_serve env args =
  let proc = Proc.spawn env.facile ("serve" :: args) in
  { proc; err = Wire.reader (Option.get proc.Proc.stderr) }

(* Stop a server (stdio: end of input; TCP: SIGTERM), collect its
   final stats line and reap it. *)
let stop_serve ?(tcp = false) srv =
  if tcp then Proc.signal srv.proc Sys.sigterm
  else Option.iter Proc.close_quiet srv.proc.Proc.stdin;
  let lines = Wire.rest srv.err ~deadline_ns:(deadline_in 30.) in
  ignore (Proc.wait srv.proc);
  List.find_map
    (fun l ->
      match Json.parse l with
      | Ok j -> Json.member "final_stats" j
      | Error _ -> None)
    lines

let stdio_client srv =
  { w = Option.get srv.proc.Proc.stdin; r = Wire.reader (Option.get srv.proc.Proc.stdout) }

let tcp_client port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { w = fd; r = Wire.reader fd }

(* One request, answered or not, checked. *)
let ask tally ~what c ~id req ~ref_of =
  match
    if Wire.write_all c.w (Gen.line ~id req ^ "\n") then
      Wire.next_line c.r ~deadline_ns:(deadline_in response_timeout_s)
    else None
  with
  | None -> Check.missing tally what
  | Some l -> Check.record tally what (Check.response ~id ~expect:(expectation ref_of req) l)

let stat_int path stats =
  List.fold_left
    (fun j k -> Option.bind j (Json.member k))
    stats path
  |> Fun.flip Option.bind Json.int_opt

(* The windows of the timed phase (latencies are logged in completion
   order, so a window's are a slice), each at the mean of the host's
   speeds sampled before and after it; a short last window is dropped. *)
let windows log =
  let spans = Vec.to_array log.spans and speeds = Vec.to_array log.speeds in
  let lat = Vec.to_array log.lat in
  Array.of_list
    (List.filter_map
       (fun i ->
         let a, b = spans.(i) in
         if b.at - a.at < window_ns / 2 || b.done_ = a.done_ then None
         else
           Some
             (window ~ops:(b.done_ - a.done_) ~ns:(b.at - a.at) ~cpu_s:(b.cpu_s -. a.cpu_s)
                ~steal:(b.steal -. a.steal) ~speed:((speeds.(i) +. speeds.(i + 1)) /. 2.)
                (Array.sub lat a.done_ (b.done_ - a.done_))))
       (List.init (Array.length spans) Fun.id))

(* The timed phase against a serving [srv]: its length is the windows'
   total; the program is stopped while the host's speed is sampled. *)
let timed_phase env ~clients ~next log srv =
  let pid = srv.proc.Proc.pid in
  let cpu () = Option.value (Proc.cpu_s pid) ~default:Float.nan in
  let probe () = Proc.while_stopped srv.proc (fun () -> Calib.sample ()) in
  closed_loop ~clients ~next ~seconds:env.seconds ~cpu ~probe log;
  let wall_ns = Array.fold_left (fun n (a, b) -> n + (b.at - a.at)) 0 (Vec.to_array log.spans) in
  (s_of_ns wall_ns, Option.value (Proc.peak_rss_mb pid) ~default:Float.nan)

let finish_log tally ~what ~ref_of log =
  let reqs = Vec.to_array log.reqs in
  let resps = Vec.to_array log.resps in
  verify tally ~what ~ref_of reqs resps;
  for _ = 1 to log.unexpected do
    Check.record tally what (Error "unexpected response line")
  done;
  (reqs, resps)

let completed resps = Array.fold_left (fun n r -> if r = None then n else n + 1) 0 resps

(* ----- hot-stdio ----- *)

let hot_stdio ?(sizes = default_sizes) env =
  let tally = Check.tally () in
  let h = phase "generate" (fun () -> Gen.hot ~seed:env.seed ~prefill:sizes.prefill ~hot:sizes.hot_keys) in
  (* oracle labels and references, off the clock *)
  let n_lab = min sizes.labelled (Array.length h.Gen.prefill) in
  let labels = phase "label" (fun () -> Gen.par_map Gen.label (Array.sub h.Gen.prefill 0 n_lab)) in
  let hot_refs = Hashtbl.create 512 in
  Array.iter
    (fun (k : Gen.key) ->
      if not (Hashtbl.mem hot_refs k) then Hashtbl.replace hot_refs k (Check.reference k))
    (Array.append h.Gen.hot h.Gen.warmup);
  let hot_ref k = Hashtbl.find hot_refs k in
  (* prepare: the program under test builds its own warm store *)
  let store = Filename.concat env.work "warm.store" in
  let srv = spawn_serve env [ "--store"; store ] in
  ignore (await_announce srv "config");
  let prefill = Array.map (fun k -> Gen.Predict k) h.Gen.prefill in
  let resps =
    phase "prefill" (fun () ->
        let r = pipelined (stdio_client srv) prefill ~window:32 in
        ignore (stop_serve srv);
        r)
  in
  verify tally ~what:"prefill" ~ref_of:Check.reference prefill resps;
  let acc = accuracy_pairs (List.init n_lab (fun i -> (i, labels.(i)))) resps in
  (* set-up: spawn on the warm store until ready, several times *)
  let setup () =
    let srv = spawn_serve env [ "--store"; store ] in
    ignore (await_announce srv "config");
    let c = stdio_client srv in
    Array.iteri
      (fun id k -> ask tally ~what:"warm-up" c ~id (Gen.Predict k) ~ref_of:hot_ref)
      h.Gen.warmup;
    (s_of_ns (now_ns () - srv.proc.Proc.started_ns), srv, c)
  in
  let samples = ref [] in
  let rec setups k =
    let s, srv, c = setup () in
    samples := s :: !samples;
    if k > 1 then begin
      ignore (stop_serve srv);
      setups (k - 1)
    end
    else (srv, c)
  in
  let srv, c = setups sizes.hot_setups in
  (* timed: one stdio client, one request outstanding *)
  let log = new_log () in
  let wall_s, rss_mb =
    timed_phase env ~clients:[| c |] ~next:(Gen.hot_stream ~seed:env.seed h) log srv
  in
  let stats = stop_serve srv in
  let reqs, resps = phase "check" (fun () -> finish_log tally ~what:"hot" ~ref_of:hot_ref log) in
  let lookups path = Option.value (stat_int path stats) ~default:0 in
  let hits = lookups [ "cache"; "hits" ] and misses = lookups [ "cache"; "misses" ] in
  { ops = completed resps; wall_s; windows = windows log;
    lat_us = Pct.sorted (Vec.to_array log.lat);
    rss_mb; setup_s = Array.of_list !samples; acc; tally;
    notes =
      [ Printf.sprintf "warm store: %d records built by the program under test; server cache %d hits / %d misses in the timed instance"
          (Array.length prefill) hits misses ];
    timed = reqs }

(* ----- cold-tcp ----- *)

let cold_tcp ?(sizes = default_sizes) env =
  let tally = Check.tally () in
  let stream =
    phase "generate" (fun () ->
        Gen.cold_stream ~seed:env.seed ~n_blocks:sizes.cold_blocks ~hostile_pct:sizes.hostile_pct)
  in
  let n_arch = List.length Facile_uarch.Config.all in
  (* one valid key per arch for each set-up's warm-up *)
  let warmup () =
    let seen = Hashtbl.create n_arch in
    let rec go acc =
      if Hashtbl.length seen = n_arch then List.rev acc
      else
        match stream () with
        | Gen.Predict k when not (Hashtbl.mem seen k.Gen.cfg.Facile_uarch.Config.arch) ->
          Hashtbl.add seen k.Gen.cfg.Facile_uarch.Config.arch ();
          go (Gen.Predict k :: acc)
        | _ -> go acc
    in
    Array.of_list (go [])
  in
  let warmups = List.init sizes.cold_setups (fun _ -> warmup ()) in
  (* the timed phase's first requests, drawn now so they can be labelled *)
  let rec draw acc n_pred =
    if n_pred >= sizes.labelled then List.rev acc
    else
      let r = stream () in
      draw (r :: acc) (match r with Gen.Predict _ -> n_pred + 1 | Gen.Hostile _ -> n_pred)
  in
  let head = Array.of_list (draw [] 0) in
  let labels =
    phase "label" (fun () ->
        Gen.par_map (function Gen.Predict k -> Gen.label k | Gen.Hostile _ -> None) head)
  in
  let pos = ref 0 in
  let next () =
    let i = !pos in
    incr pos;
    if i < Array.length head then head.(i) else stream ()
  in
  let args = [ "--tcp"; "127.0.0.1:0"; "--cache-cap"; string_of_int sizes.cold_cache_cap ] in
  let setup warm =
    let proc = Proc.spawn ~stdin:false env.facile ("serve" :: args) in
    let srv = { proc; err = Wire.reader (Option.get proc.Proc.stderr) } in
    let port =
      match await_announce srv "listening" with
      | Json.Str hp -> int_of_string (List.nth (String.split_on_char ':' hp) 1)
      | _ -> failwith "bad listening announce"
    in
    let cs = [| tcp_client port; tcp_client port |] in
    Array.iteri
      (fun id req -> ask tally ~what:"warm-up" cs.(id mod 2) ~id req ~ref_of:Check.reference)
      warm;
    (s_of_ns (now_ns () - proc.Proc.started_ns), srv, cs)
  in
  let close_all cs = Array.iter (fun c -> Proc.close_quiet c.w) cs in
  let samples = ref [] in
  let rec setups = function
    | [] -> assert false
    | [ warm ] ->
      let s, srv, cs = setup warm in
      samples := s :: !samples;
      (srv, cs)
    | warm :: rest ->
      let s, srv, cs = setup warm in
      samples := s :: !samples;
      close_all cs;
      ignore (stop_serve ~tcp:true srv);
      setups rest
  in
  let srv, cs = setups warmups in
  let log = new_log () in
  let wall_s, rss_mb = timed_phase env ~clients:cs ~next log srv in
  close_all cs;
  let stats = stop_serve ~tcp:true srv in
  let reqs, resps = phase "check" (fun () -> finish_log tally ~what:"cold" ~ref_of:Check.reference log) in
  let labelled =
    List.filter_map
      (fun i -> if i < Array.length resps then Some (i, labels.(i)) else None)
      (List.init (Array.length head) Fun.id)
  in
  let hostile = Array.fold_left (fun n r -> match r with Gen.Hostile _ -> n + 1 | Gen.Predict _ -> n) 0 reqs in
  let st path = Option.value (stat_int path stats) ~default:0 in
  { ops = completed resps; wall_s; windows = windows log;
    lat_us = Pct.sorted (Vec.to_array log.lat);
    rss_mb; setup_s = Array.of_list !samples;
    acc = accuracy_pairs labelled resps; tally;
    notes =
      [ Printf.sprintf "%d hostile requests; server cache %d hits / %d misses / %d evictions (cap %d)"
          hostile (st [ "cache"; "hits" ]) (st [ "cache"; "misses" ])
          (st [ "cache"; "evictions" ]) sizes.cold_cache_cap ];
    timed = reqs }

(* ----- batch ----- *)

(* facile batch's summary line, "...: MAPE 12.34%, Kendall tau 0.5678" *)
let parse_summary lines =
  List.find_map
    (fun l ->
      Scanf.sscanf_opt l "aggregate error vs. measured (%d block%s@): MAPE %f%%, Kendall tau %f"
        (fun _ _ m t -> (m, t)))
    lines

type run = {
  wall : int;                       (* ns, spawn to exit *)
  lines : (int * string) list;      (* arrival ns, line *)
  errs : string list;               (* stderr *)
  rss : float;                      (* max VmHWM seen, MiB *)
  cpu : float;                      (* s *)
  steal : float;                    (* host steal over the run, s *)
}

(* One [facile batch] invocation: stdout lines stamped on arrival,
   VmHWM polled while it runs, CPU from the reaped child's times. *)
let batch_once env file =
  let cpu0 = Proc.children_cpu_s () in
  let steal0 = steal_s () in
  let p = Proc.spawn ~stdin:false env.facile [ "batch"; "-a"; "SKL"; "--workers"; "2"; "--json"; file ] in
  let out = Wire.reader (Option.get p.Proc.stdout) in
  let rss = ref 0. in
  let poll () = Option.iter (fun m -> rss := Float.max !rss m) (Proc.peak_rss_mb p.Proc.pid) in
  let lines = ref [] in
  let deadline = deadline_in 120. in
  (* every line is stamped with the read that completed it; VmHWM is
     polled once per read or idle wait, not per line *)
  let rec go t_read =
    match Wire.pop_line out with
    | Some l ->
      lines := (t_read, l) :: !lines;
      go t_read
    | None when out.Wire.eof || now_ns () > deadline -> ()
    | None ->
      let got = Wire.readable [ out.Wire.fd ] 0.05 <> [] && Wire.read_once out in
      let t = now_ns () in
      poll ();
      go (if got then t else t_read)
  in
  go 0;
  let errs = Wire.rest (Wire.reader (Option.get p.Proc.stderr)) ~deadline_ns:(deadline_in 30.) in
  ignore (Proc.wait p);
  let t1 = now_ns () in
  { wall = t1 - p.Proc.started_ns;
    lines = List.rev_map (fun (t, l) -> (t - p.Proc.started_ns, l)) !lines;
    errs; rss = !rss; cpu = Proc.children_cpu_s () -. cpu0; steal = steal_s () -. steal0 }

let check_batch tally ~what refs (corpus : Gen.key array) r =
  let lines = Array.of_list (List.map snd r.lines) in
  let n = Array.length corpus in
  let results =
    Gen.par_map
      (fun i ->
        if i >= Array.length lines then Error "lost response"
        else
          match Json.parse lines.(i) with
          | Error m -> Error ("unparseable response: " ^ m)
          | Ok j ->
            if Json.member "line" j <> Some (Json.Int (i + 1)) then
              Error (Printf.sprintf "answer %d is not for line %d" i (i + 1))
            else Check.prediction ~expect:refs.(i) j)
      (Array.init n Fun.id)
  in
  Array.iter (Check.record tally what) results;
  for _ = n + 1 to Array.length lines do
    Check.record tally what (Error "unexpected output line")
  done

let batch ?(sizes = default_sizes) env =
  let tally = Check.tally () in
  let corpus = phase "generate" (fun () -> Gen.batch_corpus ~seed:env.seed ~n:sizes.batch_blocks) in
  let n_lab = min sizes.labelled (Array.length corpus) in
  let labels = phase "label" (fun () -> Gen.par_map Gen.label (Array.sub corpus 0 n_lab)) in
  let refs = phase "reference" (fun () -> Gen.par_map Check.reference corpus) in
  let file = Filename.concat env.work "corpus.txt" in
  Out_channel.with_open_bin file (fun oc ->
      Array.iteri
        (fun i (k : Gen.key) ->
          output_string oc k.Gen.hex;
          (match if i < n_lab then labels.(i) else None with
           | Some m -> Printf.fprintf oc ",%.17g" m
           | None -> ());
          output_char oc '\n')
        corpus);
  let first = Filename.concat env.work "first.txt" in
  Out_channel.with_open_bin first (fun oc -> output_string oc (corpus.(0).Gen.hex ^ "\n"));
  (* set-up: the same command on the first block alone *)
  let setup_s =
    Array.init sizes.batch_setups (fun _ ->
        let r = batch_once env first in
        check_batch tally ~what:"set-up" refs (Array.sub corpus 0 1) r;
        s_of_ns r.wall)
  in
  (* timed: whole-corpus invocations until their walls add up to the
     time, the host's speed sampled before the first and after each *)
  let speeds = Vec.create 0. in
  Vec.push speeds (Calib.sample ());
  let budget = int_of_float (env.seconds *. 1e9) in
  (* another invocation only if it is expected to end in time *)
  let rec runs acc spent =
    let mean_wall = match acc with [] -> 0 | _ -> spent / List.length acc in
    if acc <> [] && spent + mean_wall > budget then List.rev acc
    else begin
      let r = batch_once env file in
      Vec.push speeds (Calib.sample ());
      runs (r :: acc) (spent + r.wall)
    end
  in
  let rs = runs [] 0 in
  phase "check" (fun () -> List.iter (check_batch tally ~what:"batch" refs corpus) rs);
  let ops = List.fold_left (fun n r -> n + List.length r.lines) 0 rs in
  let lat = Array.of_list (List.concat_map (fun r -> List.map (fun (t, _) -> float_of_int t /. 1e3) r.lines) rs) in
  let first_run = List.hd rs in
  let preds =
    List.filteri (fun i _ -> i < n_lab) first_run.lines
    |> List.mapi (fun i (_, l) ->
        match labels.(i), Json.parse l with
        | Some m, Ok j -> Option.map (fun c -> (m, c)) (Option.bind (Json.member "cycles" j) Check.num)
        | _ -> None)
    |> List.filter_map Fun.id
  in
  (* facile batch's own summary must agree with the full-precision figures *)
  (match parse_summary first_run.errs, preds with
   | Some (mape, tau), (_ :: _ :: _) ->
     let ours_mape = 100. *. Facile_stats.Error_metrics.mape preds in
     let ours_tau = Facile_stats.Kendall.tau_b preds in
     Check.record tally "summary"
       (if Float.abs (ours_mape -. mape) <= 0.0051 && Float.abs (ours_tau -. tau) <= 0.000051
        then Ok ()
        else Error (Printf.sprintf "facile batch reports MAPE %.2f%% tau %.4f, answers give %.4f%% %.6f" mape tau ours_mape ours_tau))
   | None, (_ :: _ :: _) -> Check.record tally "summary" (Error "no accuracy summary on stderr")
   | _ -> ());
  { ops;
    wall_s = s_of_ns (List.fold_left (fun n r -> n + r.wall) 0 rs);
    windows =
      Array.of_list
        (List.mapi
           (fun i r ->
             window ~ops:(max 1 (List.length r.lines)) ~ns:r.wall ~cpu_s:r.cpu ~steal:r.steal
               ~speed:((Vec.get speeds i +. Vec.get speeds (i + 1)) /. 2.)
               (Array.of_list (List.map (fun (t, _) -> float_of_int t /. 1e3) r.lines)))
           rs);
    lat_us = Pct.sorted lat;
    rss_mb = List.fold_left (fun m r -> Float.max m r.rss) 0. rs;
    setup_s; acc = preds; tally;
    notes =
      [ Printf.sprintf "%d invocation(s) over %d blocks (%d labelled)" (List.length rs)
          (Array.length corpus) (List.length preds) ];
    timed = Array.map (fun k -> Gen.Predict k) corpus }
