(* The benchmark's own tests: the answer checker must count every kind
   of wrong answer, the percentile function must keep ten samples in
   its tail, the generator must be a function of the seed, and a
   shrunken run of each workload against the real binary must come
   back all correct. *)

open Perfbench
open Facile_core
module Json = Facile_obs.Json

let key =
  { Gen.cfg = Facile_uarch.Config.by_arch Facile_uarch.Config.SKL;
    mode = "loop";
    bytes = "\x48\x01\xd8\x48\xff\xc9\x75\xf8";  (* add rax,rbx; dec rcx; jnz *)
    hex = "4801d848ffc975f8" }

let response_line ~id (p : Model.prediction) =
  match Model.prediction_to_json p with
  | Json.Obj f -> Json.to_string (Json.Obj (("id", Json.Int id) :: f))
  | _ -> assert false

let is_error = function Ok () -> false | Error _ -> true

let test_exact_prediction_passes () =
  let p = Check.reference key in
  Alcotest.(check bool) "bit-identical passes" false
    (is_error (Check.response ~id:7 ~expect:(`Predict p) (response_line ~id:7 p)))

let test_one_ulp_fails () =
  let p = Check.reference key in
  let off = { p with Model.cycles = Float.succ p.Model.cycles } in
  Alcotest.(check bool) "cycles one ulp off" true
    (is_error (Check.response ~id:1 ~expect:(`Predict p) (response_line ~id:1 off)));
  let values =
    List.map (fun (c, v) -> if c = Model.Ports then (c, Float.pred v) else (c, v)) p.Model.values
  in
  Alcotest.(check bool) "a component value one ulp off" true
    (is_error
       (Check.response ~id:1 ~expect:(`Predict p)
          (response_line ~id:1 { p with Model.values })));
  Alcotest.(check bool) "another fe_path" true
    (is_error
       (Check.response ~id:1 ~expect:(`Predict p)
          (response_line ~id:1 { p with Model.fe_path = Model.FE_none })))

let test_wrong_id_fails () =
  let p = Check.reference key in
  Alcotest.(check bool) "answer for another request" true
    (is_error (Check.response ~id:2 ~expect:(`Predict p) (response_line ~id:3 p)))

let test_missing_response_fails () =
  let t = Check.tally () in
  Drive.verify t ~what:"t" ~ref_of:Check.reference
    [| Gen.Predict key; Gen.Predict key |]
    [| Some (response_line ~id:0 (Check.reference key)); None |];
  Alcotest.(check (pair int int)) "attempted, failed" (2, 1) (t.Check.attempted, t.Check.failed)

let test_wrong_error_kind_fails () =
  let err kind = Printf.sprintf {|{"id":4,"error":{"kind":"%s","msg":"x"},"proto":1}|} kind in
  Alcotest.(check bool) "expected kind passes" false
    (is_error (Check.response ~id:4 ~expect:(`Error "bad_hex") (err "bad_hex")));
  Alcotest.(check bool) "other kind fails" true
    (is_error (Check.response ~id:4 ~expect:(`Error "bad_hex") (err "bad_request")));
  Alcotest.(check bool) "a prediction where an error is owed fails" true
    (is_error
       (Check.response ~id:4 ~expect:(`Error "bad_hex")
          (response_line ~id:4 (Check.reference key))));
  Alcotest.(check bool) "an error where a prediction is owed fails" true
    (is_error (Check.response ~id:4 ~expect:(`Predict (Check.reference key)) (err "internal")));
  Alcotest.(check bool) "unparseable fails" true
    (is_error (Check.response ~id:4 ~expect:(`Error "bad_hex") "{\"id\":4,"))

let test_tail_keeps_ten () =
  List.iter
    (fun n ->
      let s = Pct.sorted (Array.init n (fun i -> float_of_int (n - i))) in
      match Pct.tail s with
      | None -> Alcotest.(check bool) (Printf.sprintf "n=%d has no tail" n) true (n <= 10)
      | Some (p, v) ->
        let beyond = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 s in
        Alcotest.(check int) (Printf.sprintf "n=%d: samples beyond" n) 10 beyond;
        Alcotest.(check (float 1e-9)) (Printf.sprintf "n=%d: percentile" n)
          (100. *. float_of_int (n - 10) /. float_of_int n) p;
        (* the nearest-rank quantile at p is that same sample *)
        Alcotest.(check (float 0.)) (Printf.sprintf "n=%d: quantile" n) v (Pct.quantile s p))
    [ 1; 10; 11; 12; 50; 999; 1000; 1001; 12345 ];
  let s = Pct.sorted (Array.init 500 float_of_int) in
  Alcotest.(check (float 1e-9)) "p99 falls back to p98 at n=500" 98. (fst (Pct.p99 s));
  let s = Pct.sorted (Array.init 5000 float_of_int) in
  Alcotest.(check (pair (float 0.) (float 0.))) "p99 at n=5000" (99., 4949.) (Pct.p99 s)

let test_clean_windows () =
  let w stolen = { Drive.rate = 1.; cpu_us = 1.; p50_us = 1.; p90_us = 1.; p99_us = 1.; stolen; speed = 1. } in
  let ws = Array.of_list (List.map w [ 0.; 0.5; 0.01; 0.; 0.2; 0.; 0.1 ]) in
  Alcotest.(check int) "windows with over 10% steal are left out" 5 (Array.length (Drive.clean ws));
  let few = Array.of_list (List.map w [ 0.; 0.5; 0.; 0.5 ]) in
  Alcotest.(check int) "all kept when fewer than five would remain" 4 (Array.length (Drive.clean few))

let test_at_reference () =
  let w = { Drive.rate = 1000.; cpu_us = 50.; p50_us = 100.; p90_us = 150.; p99_us = 300.;
            stolen = 0.; speed = 0.5 } in
  let r = Drive.at_reference w in
  Alcotest.(check (list (float 1e-9))) "a host at half speed: twice the rate, half the times"
    [ 2000.; 25.; 50.; 75.; 150.; 1. ]
    [ r.Drive.rate; r.Drive.cpu_us; r.Drive.p50_us; r.Drive.p90_us; r.Drive.p99_us; r.Drive.speed ];
  let s = Calib.sample ~ms:20 () in
  Alcotest.(check bool) "the host's speed is a positive number" true (Float.is_finite s && s > 0.)

let lines stream n = List.init n (fun id -> Gen.line ~id (stream ()))

let test_generator_seeded () =
  let cold seed = Gen.cold_stream ~seed ~n_blocks:50 ~hostile_pct:10. in
  Alcotest.(check (list string)) "same seed, same requests" (lines (cold 3) 200) (lines (cold 3) 200);
  Alcotest.(check bool) "another seed, other requests" true (lines (cold 3) 50 <> lines (cold 4) 50);
  let h = Gen.hot ~seed:5 ~prefill:400 ~hot:16 in
  let keys = Array.map (fun (k : Gen.key) -> (k.Gen.cfg.Facile_uarch.Config.abbrev, Gen.notion k, k.Gen.bytes)) h.Gen.prefill in
  let distinct = Hashtbl.create 512 in
  Array.iter (fun k -> Hashtbl.replace distinct k ()) keys;
  Alcotest.(check int) "warm-store keys are distinct" (Array.length keys) (Hashtbl.length distinct)

(* Shrunken end-to-end runs against the real binary. *)
let facile = "../bin/facile.exe"

let tiny =
  { Drive.prefill = 300; hot_keys = 16; cold_blocks = 200; cold_cache_cap = 64;
    hostile_pct = 20.; batch_blocks = 300; labelled = 20;
    hot_setups = 2; cold_setups = 2; batch_setups = 2 }

(* ... and the traced replay of each, which must measure every layer
   on every workload, on its own path or off it. *)
let smoke name workload run () =
  let work = "smoke-" ^ name in
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  let o : Drive.outcome = run ~sizes:tiny { Drive.facile; work; seconds = 0.3; seed = 9 } in
  let _, sum = Replay.of_outcome workload ~work o in
  Array.iter (fun f -> Sys.remove (Filename.concat work f)) (Sys.readdir work);
  Sys.rmdir work;
  List.iter
    (fun (m : Replay.metric) ->
      match m.Replay.count with
      | Some n -> Alcotest.(check bool) (m.Replay.name ^ " measured") true (n > 0)
      | None -> ())
    sum.Replay.metrics;
  let off = List.filter_map (fun (m : Replay.metric) -> if m.Replay.on_path then None else Some m.Replay.name) sum.Replay.metrics in
  Alcotest.(check bool) "off-path layers" true
    (match workload with
     | "batch" -> List.mem "framing.us" off && List.mem "serve.handle_us" off && not (List.mem "model.us" off)
     | "hot-stdio" -> List.mem "model.us" off && not (List.mem "engine.hit_us" off)
     | _ -> List.mem "engine.hit_us" off && List.mem "store.records" off && not (List.mem "model.us" off));
  let t = o.Drive.tally in
  Alcotest.(check (list string)) "no failures" [] t.Check.reasons;
  Alcotest.(check bool) "operations completed" true (o.Drive.ops > 0 && t.Check.attempted >= o.Drive.ops);
  Alcotest.(check int) "one latency per operation" o.Drive.ops (Array.length o.Drive.lat_us);
  Alcotest.(check int) "set-ups" 2 (Array.length o.Drive.setup_s);
  Alcotest.(check bool) "labelled answers" true (List.length o.Drive.acc >= 2)

let () =
  Alcotest.run "perfbench"
    [ ( "check",
        [ Alcotest.test_case "bit-identical prediction passes" `Quick test_exact_prediction_passes;
          Alcotest.test_case "one ulp off fails" `Quick test_one_ulp_fails;
          Alcotest.test_case "answer to another id fails" `Quick test_wrong_id_fails;
          Alcotest.test_case "missing response fails" `Quick test_missing_response_fails;
          Alcotest.test_case "wrong error kind fails" `Quick test_wrong_error_kind_fails ] );
      ( "pct",
        [ Alcotest.test_case "tail keeps ten samples beyond" `Quick test_tail_keeps_ten;
          Alcotest.test_case "windows with host steal left out" `Quick test_clean_windows;
          Alcotest.test_case "figures at the reference speed" `Quick test_at_reference ] );
      ( "gen", [ Alcotest.test_case "seeded and distinct" `Quick test_generator_seeded ] );
      ( "smoke",
        [ Alcotest.test_case "hot-stdio" `Quick
            (smoke "hot" "hot-stdio" (fun ~sizes env -> Drive.hot_stdio ~sizes env));
          Alcotest.test_case "cold-tcp" `Quick
            (smoke "cold" "cold-tcp" (fun ~sizes env -> Drive.cold_tcp ~sizes env));
          Alcotest.test_case "batch" `Quick
            (smoke "batch" "batch" (fun ~sizes env -> Drive.batch ~sizes env)) ] ) ]
