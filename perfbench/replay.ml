(* The traced run's per-layer replay.  The workload's own generated
   inputs are pushed, in process, through each layer's public function
   in the order the program runs them, one call per layer, each inside
   a span recorded by this file.  Spans stay in memory; at the end they
   are folded into per-layer samples, self times (a layer minus the
   layers it calls, measured on the same request) and ratios.

   A second, off-path pass sends the same inputs through the serving
   path with a fresh cache (each miss followed by a hit on the same
   key) and through a store written and read back, so that every layer
   is measured on every workload's inputs; a layer the workload's own
   path never runs is reported from that pass and marked off-path.

   The program itself carries no tracing: this replay times the layer
   entry points from outside, so a layer's span is the whole call. *)

open Facile_core
module Json = Facile_obs.Json
module Engine = Facile_engine.Engine
module Serve = Facile_engine.Serve

let now_ns = Proc.now_ns

(* ----- spans ----- *)

type layer =
  | Request | Framing | Parse | Hex | Decode | Block | Engine_hit
  | Engine_miss | Model | Predec | Dec | Dsb | Lsd | Issue | Ports
  | Precedence | Hop | Handle | To_json | To_string | Pool | Store_load
  | Store_seed | Empty | Engine_rehit

let layer_index = function
  | Request -> 0 | Framing -> 1 | Parse -> 2 | Hex -> 3 | Decode -> 4
  | Block -> 5 | Engine_hit -> 6 | Engine_miss -> 7 | Model -> 8
  | Predec -> 9 | Dec -> 10 | Dsb -> 11 | Lsd -> 12 | Issue -> 13
  | Ports -> 14 | Precedence -> 15 | Hop -> 16 | Handle -> 17
  | To_json -> 18 | To_string -> 19 | Pool -> 20 | Store_load -> 21
  | Store_seed -> 22 | Empty -> 23 | Engine_rehit -> 24

let n_layers = 25

(* One span: layer, start, end, the span that caused it, and the
   request it belongs to; kept in flat growable int arrays. *)
type spans = {
  layer : int Vec.t;
  t0 : int Vec.t;
  t1 : int Vec.t;
  parent : int Vec.t;
  req : int Vec.t;
}

let spans () =
  { layer = Vec.create 0; t0 = Vec.create 0; t1 = Vec.create 0;
    parent = Vec.create 0; req = Vec.create 0 }

let record s l ~parent ~req t0 t1 =
  Vec.push s.layer (layer_index l);
  Vec.push s.t0 t0;
  Vec.push s.t1 t1;
  Vec.push s.parent parent;
  Vec.push s.req req;
  Vec.length s.layer - 1

(* [span s l ~parent ~req f] times [f ()] as one span. *)
let span s l ~parent ~req f =
  let t0 = now_ns () in
  let v = f () in
  let t1 = now_ns () in
  ignore (record s l ~parent ~req t0 t1);
  v

(* The root span of a request, opened before its layers run. *)
let open_request s ~req = record s Request ~parent:(-1) ~req (now_ns ()) 0
let close_request s i = Vec.set s.t1 i (now_ns ())

(* ----- replaying one request through the layers ----- *)

let engine_mode (k : Gen.key) : Engine.mode =
  match k.Gen.mode with "loop" -> `Loop | "unroll" -> `Unrolled | _ -> `Auto

let hits e = (Engine.cache_stats e).Engine.hits

(* The model and each of its components, on a block the cache missed. *)
let model s ~parent ~req mode b =
  let notion =
    match mode with
    | `Loop -> `Loop
    | `Unrolled -> `Unrolled
    | `Auto -> if Block.ends_in_branch b then `Loop else `Unrolled
  in
  let sp l f = span s l ~parent ~req f in
  ignore (sp Model (fun () -> Model.predict ~notion:(if notion = `Loop then Model.L else Model.U) b));
  ignore (sp Predec (fun () -> Predec.throughput ~mode:notion b));
  ignore (sp Dec (fun () -> Dec.throughput b));
  ignore (sp Dsb (fun () -> Dsb.throughput b));
  ignore (sp Lsd (fun () -> Lsd.throughput b));
  ignore (sp Issue (fun () -> Issue.throughput b));
  ignore (sp Ports (fun () -> Ports.throughput b));
  ignore (sp Precedence (fun () -> Precedence.throughput b))

(* Block build and memoized prediction, as both surfaces run them;
   [rehit] asks the cache again after a miss, to time a hit. *)
let predict_layers ?(rehit = false) s ~parent ~req eng (k : Gen.key) =
  let sp l f = span s l ~parent ~req f in
  let bytes = sp Hex (fun () -> Facile_x86.Hex.decode k.Gen.hex) |> Result.get_ok in
  ignore (sp Decode (fun () -> Facile_x86.Decode.decode_block bytes));
  let b = sp Block (fun () -> Block.of_bytes k.Gen.cfg bytes) in
  let mode = engine_mode k in
  let h0 = hits eng in
  let t0 = now_ns () in
  let p = Engine.predict eng ~mode b in
  let t1 = now_ns () in
  let hit = hits eng > h0 in
  ignore (record s (if hit then Engine_hit else Engine_miss) ~parent ~req t0 t1);
  if not hit then begin
    model s ~parent ~req mode b;
    if rehit then ignore (sp Engine_rehit (fun () -> Engine.predict eng ~mode b))
  end;
  (b, p)

type serve_setup = {
  srv : Serve.t;         (* handle_line runs here *)
  eng : Engine.t;        (* the separate per-layer calls run here *)
  sup : Facile_engine.Supervise.t;
}

(* The server's configuration as [facile serve] builds it from the
   workload's flags. *)
let serve_setup ~cache_cap =
  let srv =
    Serve.of_config
      { Serve.default_config with
        Serve.cache_cap = Some cache_cap; deadline_ms = Some 2000 }
  in
  { srv; eng = Engine.create ~cache_cap (); sup = Facile_engine.Supervise.create () }

let shutdown st =
  Serve.shutdown st.srv;
  Engine.shutdown st.eng;
  Facile_engine.Supervise.shutdown st.sup

let replay_request ?rehit s st fr ~req line r =
  let root = open_request s ~req in
  let sp l f = span s l ~parent:root ~req f in
  ignore (sp Framing (fun () -> Facile_engine.Framing.feed_string fr (line ^ "\n")));
  ignore (sp Parse (fun () -> Json.parse line));
  (match r with
   | Gen.Predict k ->
     let _, p = predict_layers ?rehit s ~parent:root ~req st.eng k in
     ignore (sp Hop (fun () -> Facile_engine.Supervise.run st.sup (fun () -> ())));
     ignore (sp To_json (fun () -> Model.prediction_to_json p))
   | Gen.Hostile _ -> ());
  let resp = sp Handle (fun () -> Serve.handle_line st.srv line) in
  ignore (sp To_string (fun () -> Json.to_string (Serve.with_proto resp)));
  close_request s root

(* A store's read path: open (with recovery scan), then seed both
   caches, the serving one timed.  Returns the record count. *)
let load_store s st store =
  match span s Store_load ~parent:(-1) ~req:(-1) (fun () -> Facile_store.Store.open_rw store) with
  | Error e -> failwith (Facile_x86.Err.to_string e)
  | Ok (w, report) ->
    Facile_store.Store.close w;
    let entries = List.rev_map Facile_store.Codec.to_memo report.Facile_store.Store.records in
    span s Store_seed ~parent:(-1) ~req:(-1) (fun () -> Engine.memo_seed (Serve.engine st.srv) entries);
    Engine.memo_seed st.eng entries;
    List.length entries

let fresh_framing () =
  Facile_engine.Framing.create ~max_line_bytes:Serve.default_limits.Serve.max_line_bytes

(* The serving workloads' own path; [store] is the warm store. *)
let replay_serve s ~cache_cap ?store reqs =
  let st = serve_setup ~cache_cap in
  let records = Option.fold ~none:0 ~some:(load_store s st) store in
  let fr = fresh_framing () in
  Array.iteri (fun id r -> replay_request s st fr ~req:id (Gen.line ~id r) r) reqs;
  let cache = Engine.cache_stats (Serve.engine st.srv) in
  shutdown st;
  (cache, records)

(* Batch: the CLI's per-line block build, then one pool batch. *)
let replay_batch s ~workers (corpus : Gen.key array) =
  let eng = Engine.create () in
  let blocks =
    Array.mapi
      (fun req k ->
        let root = open_request s ~req in
        let b, p = predict_layers s ~parent:root ~req eng k in
        ignore
          (span s To_json ~parent:root ~req (fun () ->
               Json.to_string
                 (match Model.prediction_to_json p with
                  | Json.Obj f -> Json.Obj (("line", Json.Int (req + 1)) :: f)
                  | j -> j)));
        close_request s root;
        b)
      corpus
  in
  Engine.shutdown eng;
  let pool = Engine.create ~workers () in
  ignore
    (span s Pool ~parent:(-1) ~req:(-1) (fun () ->
         Engine.predict_batch pool ~mode:`Auto (Array.to_list blocks)));
  let cache = Engine.cache_stats pool in
  Engine.shutdown pool;
  cache

(* The off-path pass: [reqs] through the serving path on a fresh cache
   (misses followed by a timed hit), then what it cached written to a
   store in [work] and read back.  Returns the store's record count. *)
let replay_off s ~work reqs =
  let st = serve_setup ~cache_cap:Engine.default_cache_cap in
  let fr = fresh_framing () in
  Array.iteri (fun id r -> replay_request ~rehit:true s st fr ~req:id (Gen.line ~id r) r) reqs;
  let path = Filename.concat work "replay.store" in
  (match Facile_store.Store.open_rw path with
   | Error e -> failwith (Facile_x86.Err.to_string e)
   | Ok (w, _) ->
     ignore (Facile_store.Store.sync_memo w (Engine.memo_entries st.eng));
     Facile_store.Store.close w);
  shutdown st;
  let st = serve_setup ~cache_cap:Engine.default_cache_cap in
  let records = load_store s st path in
  shutdown st;
  Sys.remove path;
  records

(* Cost of one span around nothing, recording included. *)
let span_overhead_ns s =
  let n = 10_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    span s Empty ~parent:(-1) ~req:(-1) ignore
  done;
  float_of_int (now_ns () - t0) /. float_of_int n

(* ----- folding spans into metrics ----- *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  p50 : float option;  (* timed metrics: median and sample count *)
  count : int option;
  on_path : bool;      (* measured on the workload's own path *)
  moves : string;      (* the end-to-end metric it should move *)
}

type summary = {
  metrics : metric list;
  attributed_us : float;  (* mean per operation covered by the stage table *)
}

(* Per-request sums of each layer's span time, in microseconds;
   [nan] where the layer did not run for that request. *)
let per_request s =
  let table = Hashtbl.create 4096 in
  for i = 0 to Vec.length s.req - 1 do
    let r = Vec.get s.req i in
    if r >= 0 then begin
      let row =
        match Hashtbl.find_opt table r with
        | Some row -> row
        | None ->
          let row = Array.make n_layers Float.nan in
          Hashtbl.add table r row;
          row
      in
      let l = Vec.get s.layer i in
      let d = float_of_int (Vec.get s.t1 i - Vec.get s.t0 i) /. 1e3 in
      row.(l) <- (if Float.is_nan row.(l) then d else row.(l) +. d)
    end
  done;
  table

let totals s l =
  let acc = ref 0 in
  for i = 0 to Vec.length s.layer - 1 do
    if Vec.get s.layer i = layer_index l then acc := !acc + (Vec.get s.t1 i - Vec.get s.t0 i)
  done;
  float_of_int !acc /. 1e3

(* What each layer metric should move, from the benchmark's design. *)
let moves = function
  | "framing.us" | "json.parse_us" -> "latency_p50_us, cpu_us_per_op on hot-stdio"
  | "hex.us" | "decode.us" | "block.self_us" -> "hot-stdio latency_p50_us; batch ops_per_s"
  | "engine.hit_us" | "cache.hit_ratio" | "cache.lookups" -> "hot-stdio latency_p50_us"
  | "engine.miss_self_us" | "cache.evictions" | "cache.coalesced" -> "cold-tcp peak_rss_mb, ops_per_s"
  | "supervise.hop_us" -> "hot-stdio latency_p50_us; cold-tcp ops_per_s"
  | "serve.handle_us" | "serve.self_us" -> "hot-stdio latency_p50_us, cpu_us_per_op"
  | "serialize.us" -> "hot-stdio latency_p50_us; batch ops_per_s"
  | "pool.efficiency" | "pool.blocks" -> "batch ops_per_s, cpu_us_per_op"
  | "store.load_us_per_record" | "store.seed_us_per_record" | "store.records" -> "hot-stdio setup_s"
  | "unattributed_us" | "e2e.mean_us" -> "latency_p50_us, latency_p90_us, cpu_us_per_op on the serve workloads"
  | "span.overhead_ns" -> "none (bounds the trace's own cost)"
  | n when String.length n > 6 && String.sub n 0 6 = "model." ->
    "cold-tcp ops_per_s, latency_p50_us; batch ops_per_s; no change on hot-stdio"
  | _ -> "-"

let timed_names =
  [ "framing.us"; "json.parse_us"; "hex.us"; "decode.us"; "block.self_us";
    "engine.hit_us"; "engine.miss_self_us"; "model.us"; "model.predec_us";
    "model.dec_us"; "model.dsb_us"; "model.lsd_us"; "model.issue_us";
    "model.ports_us"; "model.precedence_us"; "model.combine_us";
    "supervise.hop_us"; "serve.handle_us"; "serve.self_us"; "serialize.us" ]

(* Samples of every timed metric, and the per-operation sum of the
   disjoint spans that cover an operation on its surface. *)
let fold_rows s =
  let samples = List.map (fun n -> (n, Vec.create 0.)) timed_names in
  let add n v = if not (Float.is_nan v) then Vec.push (List.assoc n samples) v in
  let attributed = ref 0. in
  Hashtbl.iter
    (fun _ row ->
      let g l = row.(layer_index l) in
      let z v = if Float.is_nan v then 0. else v in
      add "framing.us" (g Framing);
      add "json.parse_us" (g Parse);
      add "hex.us" (g Hex);
      add "decode.us" (g Decode);
      let block_self = g Block -. g Decode in
      add "block.self_us" block_self;
      add "engine.hit_us" (if Float.is_nan (g Engine_hit) then g Engine_rehit else g Engine_hit);
      add "engine.miss_self_us" (g Engine_miss -. g Model);
      add "model.us" (g Model);
      add "model.predec_us" (g Predec);
      add "model.dec_us" (g Dec);
      add "model.dsb_us" (g Dsb);
      add "model.lsd_us" (g Lsd);
      add "model.issue_us" (g Issue);
      add "model.ports_us" (g Ports);
      add "model.precedence_us" (g Precedence);
      add "model.combine_us"
        (g Model -. g Predec -. g Dec -. g Dsb -. g Lsd -. g Issue -. g Ports -. g Precedence);
      add "supervise.hop_us" (g Hop);
      add "serve.handle_us" (g Handle);
      (* handle_line paid the one cache lookup its engine made *)
      let engine = z (g Engine_hit) +. z (g Engine_miss) in
      add "serve.self_us"
        (g Handle -. z (g Parse) -. z (g Hex) -. z (g Decode) -. z block_self
         -. engine -. z (g Hop) -. z (g To_json));
      add "serialize.us" (if Float.is_nan (g Handle) then g To_json else z (g To_json) +. z (g To_string));
      attributed :=
        !attributed
        +. (if Float.is_nan (g Handle) then z (g Hex) +. z (g Block) +. z (g To_json)
            else z (g Framing) +. g Handle +. z (g To_string)))
    (per_request s);
  (samples, !attributed)

(* [summarize ~own ~off] folds the spans into every per-layer metric:
   from [own], the workload's own path, where the layer ran there, else
   from [off], the off-path pass.  [e2e_us] is the untraced mean time
   per operation, [ops] the number of operations replayed on the own
   path, [records] the store sizes of the two passes. *)
let summarize ~own ~off ~e2e_us ~ops ~(cache : Engine.cache_stats) ~workers
    ~records:(own_records, off_records) ~overhead_ns =
  let own_samples, attributed = fold_rows own in
  let off_samples, _ = fold_rows off in
  let timed_metric name =
    let pick = List.assoc name own_samples in
    let on_path = Vec.length pick > 0 in
    let a = Vec.to_array (if on_path then pick else List.assoc name off_samples) in
    let n = Array.length a in
    { name; unit_ = "us";
      value = (if n = 0 then 0. else Pct.mean a);
      p50 = Some (if n = 0 then 0. else Pct.median (Pct.sorted a));
      count = Some n; on_path; moves = moves name }
  in
  let ratio ?(on_path = true) name unit_ value =
    { name; unit_; value; p50 = None; count = None; on_path; moves = moves name }
  in
  let pool_us = totals own Pool in
  let attributed_us = (attributed +. pool_us) /. float_of_int (max 1 ops) in
  let lookups = cache.Engine.hits + cache.Engine.misses in
  let store_on_path = own_records > 0 in
  let store_per l =
    if store_on_path then totals own l /. float_of_int own_records
    else totals off l /. float_of_int (max 1 off_records)
  in
  let metrics =
    List.map timed_metric timed_names
    @ [ ratio "cache.hit_ratio" "ratio"
          (if lookups = 0 then 0. else float_of_int cache.Engine.hits /. float_of_int lookups);
        ratio "cache.lookups" "count" (float_of_int lookups);
        ratio "cache.evictions" "count" (float_of_int cache.Engine.evictions);
        ratio "cache.coalesced" "count" (float_of_int cache.Engine.coalesced);
        ratio "pool.efficiency" "ratio"
          (if pool_us = 0. then 0. else totals own Model /. (float_of_int workers *. pool_us));
        ratio "pool.blocks" "count" (if pool_us = 0. then 0. else float_of_int ops);
        ratio ~on_path:store_on_path "store.load_us_per_record" "us" (store_per Store_load);
        ratio ~on_path:store_on_path "store.seed_us_per_record" "us" (store_per Store_seed);
        ratio ~on_path:store_on_path "store.records" "count"
          (float_of_int (if store_on_path then own_records else off_records));
        ratio "e2e.mean_us" "us" e2e_us;
        ratio "unattributed_us" "us" (e2e_us -. attributed_us);
        ratio "span.overhead_ns" "ns" overhead_ns ]
  in
  { metrics; attributed_us }

(* Operations the traced replay pushes through the layers. *)
let replay_ops = 20_000

(* The traced run of [workload]: replay what the untraced run [o]
   sent, on its own path and off it, and fold the spans.  Returns the
   number of operations replayed on the own path and the summary. *)
let of_outcome workload ~work (o : Drive.outcome) =
  let own = spans () and off = spans () in
  let reqs = Array.sub o.Drive.timed 0 (min replay_ops (Array.length o.Drive.timed)) in
  let e2e_us, cache, own_records, workers =
    match workload with
    | "batch" ->
      let corpus = Array.map (function Gen.Predict k -> k | Gen.Hostile (_, k) -> k) o.Drive.timed in
      ( o.Drive.wall_s *. 1e6 /. float_of_int (max 1 o.Drive.ops),
        replay_batch own ~workers:2 corpus, 0, 2 )
    | "hot-stdio" ->
      let cache, records =
        replay_serve own ~cache_cap:Engine.default_cache_cap
          ~store:(Filename.concat work "warm.store") reqs
      in
      (Pct.mean o.Drive.lat_us, cache, records, 0)
    | _ ->
      let cache, _ = replay_serve own ~cache_cap:Drive.default_sizes.Drive.cold_cache_cap reqs in
      (Pct.mean o.Drive.lat_us, cache, 0, 0)
  in
  let off_records = replay_off off ~work reqs in
  let ops = if workload = "batch" then Array.length o.Drive.timed else Array.length reqs in
  ( ops,
    summarize ~own ~off ~e2e_us ~ops ~cache ~workers ~records:(own_records, off_records)
      ~overhead_ns:(span_overhead_ns own) )
