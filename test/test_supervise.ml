(* Fault-tolerance layer: bounded LRU semantics, backpressure queue
   protocol, supervised executor crash/respawn/breaker lifecycle,
   deterministic fault injection, deadlines, and the serve-level
   failure paths (timeout, too_large, shed, crash isolation, EOF
   drain). *)

open Facile_uarch
open Facile_core
module Json = Facile_obs.Json
module Lru = Facile_engine.Lru
module Bqueue = Facile_engine.Bqueue
module Supervise = Facile_engine.Supervise
module Fault = Facile_engine.Fault
module Engine = Facile_engine.Engine
module Serve = Facile_engine.Serve

let valid_hex = "4801d8" (* add rax, rbx *)

let get path j =
  List.fold_left
    (fun acc key -> Option.bind acc (Json.member key))
    (Some j) path

let get_int path j =
  match Option.bind (get path j) Json.int_opt with
  | Some i -> i
  | None ->
    Alcotest.failf "no int at %s in %s" (String.concat "." path)
      (Json.to_string j)

let error_kind resp =
  Option.bind (get [ "error"; "kind" ] resp) Json.string_opt

let req ?(extra = []) hex =
  Json.to_string (Json.Obj (("hex", Json.Str hex) :: extra))

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)

let lru_tests =
  [ Alcotest.test_case "evicts in LRU order" `Quick (fun () ->
        let t = Lru.create 3 in
        Lru.add t "a" 1; Lru.add t "b" 2; Lru.add t "c" 3;
        Lru.add t "d" 4;  (* evicts a, the least recent *)
        Alcotest.(check bool) "a gone" false (Lru.mem t "a");
        Alcotest.(check bool) "b stays" true (Lru.mem t "b");
        Alcotest.(check int) "length" 3 (Lru.length t);
        Alcotest.(check int) "evictions" 1 (Lru.evictions t));
    Alcotest.test_case "find promotes to most-recent" `Quick (fun () ->
        let t = Lru.create 3 in
        Lru.add t "a" 1; Lru.add t "b" 2; Lru.add t "c" 3;
        Alcotest.(check (option int)) "find a" (Some 1) (Lru.find t "a");
        Lru.add t "d" 4;  (* now b is least recent, not a *)
        Alcotest.(check bool) "a survived" true (Lru.mem t "a");
        Alcotest.(check bool) "b evicted" false (Lru.mem t "b"));
    Alcotest.test_case "re-adding an existing key does not evict" `Quick
      (fun () ->
        let t = Lru.create 2 in
        Lru.add t "a" 1; Lru.add t "b" 2;
        Lru.add t "a" 10;  (* update in place, promote *)
        Alcotest.(check int) "no eviction" 0 (Lru.evictions t);
        Alcotest.(check (option int)) "updated" (Some 10) (Lru.find t "a");
        Lru.add t "c" 3;  (* b was least recent *)
        Alcotest.(check bool) "b evicted" false (Lru.mem t "b");
        Alcotest.(check bool) "a stays" true (Lru.mem t "a"));
    Alcotest.test_case "capacity one churns correctly" `Quick (fun () ->
        let t = Lru.create 1 in
        for i = 1 to 50 do Lru.add t i i done;
        Alcotest.(check int) "length" 1 (Lru.length t);
        Alcotest.(check int) "evictions" 49 (Lru.evictions t);
        Alcotest.(check (option int)) "last one wins" (Some 50)
          (Lru.find t 50));
    Alcotest.test_case "capacity one: promote and update churn" `Quick
      (fun () ->
        (* cap 1 is the degenerate case where head = tail: promote of
           the only entry and update-in-place must not corrupt the
           recency list while every new key evicts *)
        let t = Lru.create 1 in
        Lru.add t "a" 1;
        Alcotest.(check (option int)) "promote sole entry" (Some 1)
          (Lru.find t "a");
        Lru.add t "a" 2;  (* update in place: no eviction *)
        Alcotest.(check int) "update is free" 0 (Lru.evictions t);
        for i = 1 to 25 do
          Lru.add t (string_of_int i) i;
          Alcotest.(check (option int)) "new key readable" (Some i)
            (Lru.find t (string_of_int i));
          Alcotest.(check int) "bounded" 1 (Lru.length t)
        done;
        Alcotest.(check int) "one eviction per new key" 25 (Lru.evictions t);
        Alcotest.(check bool) "a long gone" false (Lru.mem t "a"));
    Alcotest.test_case "to_list is most-recent first, no promotion" `Quick
      (fun () ->
        let t = Lru.create 3 in
        Lru.add t "a" 1; Lru.add t "b" 2; Lru.add t "c" 3;
        ignore (Lru.find t "a");  (* promote a over c *)
        Alcotest.(check (list (pair string int))) "snapshot order"
          [ ("a", 1); ("c", 3); ("b", 2) ] (Lru.to_list t);
        (* the snapshot itself must not have promoted anything *)
        Alcotest.(check (list (pair string int))) "stable"
          [ ("a", 1); ("c", 3); ("b", 2) ] (Lru.to_list t));
    Alcotest.test_case "rejects capacity < 1" `Quick (fun () ->
        match Lru.create 0 with
        | (_ : (int, int) Lru.t) -> Alcotest.fail "accepted cap 0"
        | exception Invalid_argument _ -> ()) ]

(* A memoized answer served after heavy eviction churn must equal a
   fresh computation: eviction must only cost speed, never accuracy. *)
let engine_eviction_correctness =
  Alcotest.test_case "evicted-and-recomputed predictions are identical"
    `Quick (fun () ->
      let cfg = Config.by_arch Config.SKL in
      let block_of_hex h =
        match Facile_x86.Hex.decode h with
        | Ok bytes -> Block.of_bytes cfg bytes
        | Error _ -> Alcotest.failf "bad hex %s" h
      in
      (* distinct blocks: 1..8 nops — distinct cache keys *)
      let blocks =
        List.init 8 (fun n ->
            block_of_hex (String.concat "" (List.init (n + 1) (fun _ -> "90"))))
      in
      let t = Engine.create ~workers:1 ~cache_cap:2 () in
      Fun.protect ~finally:(fun () -> Engine.shutdown t) @@ fun () ->
      let first = List.map (Engine.predict t ~mode:`Auto) blocks in
      (* every block but the last two was evicted — run them again *)
      let second = List.map (Engine.predict t ~mode:`Auto) blocks in
      List.iter2
        (fun (a : Model.prediction) (b : Model.prediction) ->
          Alcotest.(check (float 1e-12)) "same cycles" a.Model.cycles
            b.Model.cycles)
        first second;
      let cs = Engine.cache_stats t in
      Alcotest.(check bool) "evictions happened" true (cs.Engine.evictions > 0);
      Alcotest.(check int) "cache bounded" 2 cs.Engine.entries)

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                       *)

let bqueue_tests =
  [ Alcotest.test_case "push sheds when full, never blocks" `Quick (fun () ->
        let q = Bqueue.create 2 in
        Alcotest.(check bool) "1st" true (Bqueue.push q 1);
        Alcotest.(check bool) "2nd" true (Bqueue.push q 2);
        Alcotest.(check bool) "3rd shed" false (Bqueue.push q 3);
        Alcotest.(check int) "length" 2 (Bqueue.length q));
    Alcotest.test_case "close drains queued items then yields None" `Quick
      (fun () ->
        let q = Bqueue.create 4 in
        ignore (Bqueue.push q 1);
        ignore (Bqueue.push q 2);
        Bqueue.close q;
        Alcotest.(check bool) "push after close" false (Bqueue.push q 3);
        Alcotest.(check (option int)) "drain 1" (Some 1) (Bqueue.pop q);
        Alcotest.(check (option int)) "drain 2" (Some 2) (Bqueue.pop q);
        Alcotest.(check (option int)) "then None" None (Bqueue.pop q);
        Alcotest.(check (option int)) "stays None" None (Bqueue.pop q));
    Alcotest.test_case "close wakes a blocked consumer" `Quick (fun () ->
        let q : int Bqueue.t = Bqueue.create 1 in
        let result = ref (Some 42) in
        let consumer = Thread.create (fun () -> result := Bqueue.pop q) () in
        Thread.delay 0.05;
        Bqueue.close q;
        Thread.join consumer;
        Alcotest.(check (option int)) "unblocked with None" None !result);
    Alcotest.test_case "close while full: pushers shed, no deadlock" `Quick
      (fun () ->
        (* a full queue that gets closed must neither wedge concurrent
           pushers (push sheds, never blocks) nor drop the items that
           were already queued *)
        let q : int Bqueue.t = Bqueue.create 2 in
        Alcotest.(check bool) "fill 1" true (Bqueue.push q 1);
        Alcotest.(check bool) "fill 2" true (Bqueue.push q 2);
        let shed = Atomic.make 0 in
        let pushers =
          List.init 4 (fun i ->
              Thread.create
                (fun () ->
                  for j = 0 to 24 do
                    if not (Bqueue.push q (100 + (i * 25) + j)) then
                      Atomic.incr shed
                  done)
                ())
        in
        Bqueue.close q;
        (* if close-while-full could deadlock a pusher, this join would
           hang and the test runner's timeout would flag it *)
        List.iter Thread.join pushers;
        Alcotest.(check int) "every racing push shed" 100 (Atomic.get shed);
        Alcotest.(check (option int)) "drain 1" (Some 1) (Bqueue.pop q);
        Alcotest.(check (option int)) "drain 2" (Some 2) (Bqueue.pop q);
        Alcotest.(check (option int)) "then None" None (Bqueue.pop q));
    Alcotest.test_case "producer/consumer keeps order" `Quick (fun () ->
        let q = Bqueue.create 4 in
        let seen = ref [] in
        let consumer =
          Thread.create
            (fun () ->
              let rec loop () =
                match Bqueue.pop q with
                | Some v -> seen := v :: !seen; loop ()
                | None -> ()
              in
              loop ())
            ()
        in
        for i = 1 to 100 do
          while not (Bqueue.push q i) do Thread.yield () done
        done;
        Bqueue.close q;
        Thread.join consumer;
        Alcotest.(check (list int)) "fifo" (List.init 100 (fun i -> i + 1))
          (List.rev !seen)) ]

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)

let fast_config =
  { Supervise.max_respawns = 3;
    window_ns = 1_000_000_000;
    backoff_base_ns = 1_000_000;
    backoff_cap_ns = 4_000_000;
    cooldown_ns = 120_000_000 }

exception Boom

let supervise_tests =
  [ Alcotest.test_case "ok results pass through" `Quick (fun () ->
        let t = Supervise.create () in
        Fun.protect ~finally:(fun () -> Supervise.shutdown t) @@ fun () ->
        (match Supervise.run t (fun () -> 6 * 7) with
         | Ok v -> Alcotest.(check int) "value" 42 v
         | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e));
        let s = Supervise.stats t in
        Alcotest.(check int) "no crashes" 0 s.Supervise.crashes;
        Alcotest.(check bool) "not degraded" false s.Supervise.degraded);
    Alcotest.test_case "a crash isolates and the executor respawns" `Quick
      (fun () ->
        let t = Supervise.create ~config:fast_config () in
        Fun.protect ~finally:(fun () -> Supervise.shutdown t) @@ fun () ->
        (match Supervise.run t (fun () -> raise Boom) with
         | Error Boom -> ()
         | Error e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e)
         | Ok _ -> Alcotest.fail "crash swallowed");
        (* the background respawner restores a real executor *)
        Thread.delay 0.05;
        (match Supervise.run t (fun () -> "alive") with
         | Ok v -> Alcotest.(check string) "works after respawn" "alive" v
         | Error e -> Alcotest.failf "still broken: %s" (Printexc.to_string e));
        let s = Supervise.stats t in
        Alcotest.(check int) "one crash" 1 s.Supervise.crashes;
        Alcotest.(check bool) "respawned" true (s.Supervise.respawns >= 1);
        Alcotest.(check bool) "crash recorded" true
          (s.Supervise.last_crash <> None));
    Alcotest.test_case "breaker trips under repeated crashes, then recovers"
      `Quick (fun () ->
        let t = Supervise.create ~config:fast_config () in
        Fun.protect ~finally:(fun () -> Supervise.shutdown t) @@ fun () ->
        (* paced crashes so each one lands on a live (respawned)
           executor and counts as a domain death *)
        for _ = 1 to fast_config.Supervise.max_respawns do
          (match Supervise.run t (fun () -> raise Boom) with
           | Error _ -> ()
           | Ok _ -> Alcotest.fail "crash swallowed");
          Thread.delay 0.02
        done;
        Alcotest.(check bool) "breaker open" true (Supervise.degraded t);
        (* degraded mode still serves, inline and guarded *)
        (match Supervise.run t (fun () -> 1) with
         | Ok 1 -> ()
         | _ -> Alcotest.fail "degraded mode does not serve");
        (match Supervise.run t (fun () -> raise Boom) with
         | Error Boom -> ()
         | _ -> Alcotest.fail "degraded crash not guarded");
        let s = Supervise.stats t in
        Alcotest.(check bool) "transitioned" true
          (s.Supervise.degraded_transitions >= 1);
        Alcotest.(check bool) "inline runs counted" true
          (s.Supervise.inline_runs >= 2);
        (* after the cooldown the breaker closes and real executors
           take over again *)
        Thread.delay
          (float_of_int fast_config.Supervise.cooldown_ns /. 1e9 +. 0.05);
        (match Supervise.run t (fun () -> "recovered") with
         | Ok v -> Alcotest.(check string) "closed" "recovered" v
         | Error e -> Alcotest.failf "no recovery: %s" (Printexc.to_string e));
        Alcotest.(check bool) "breaker closed" false (Supervise.degraded t));
    Alcotest.test_case "shutdown falls back to inline execution" `Quick
      (fun () ->
        let t = Supervise.create () in
        Supervise.shutdown t;
        match Supervise.run t (fun () -> 7) with
        | Ok 7 -> ()
        | _ -> Alcotest.fail "inline fallback broken") ]

(* ------------------------------------------------------------------ *)
(* Fault injection and deadlines                                       *)

let fault_tests =
  [ Alcotest.test_case "rate 1 always injects, hit counters track" `Quick
      (fun () ->
        Fun.protect ~finally:Fault.clear @@ fun () ->
        Fault.configure "predict:1:42";
        (match Fault.point "predict" with
         | () -> Alcotest.fail "no injection at rate 1"
         | exception Fault.Injected p ->
           Alcotest.(check string) "point name" "predict" p);
        Fault.point "decode";  (* unconfigured points stay silent *)
        let injected, hits = List.assoc "predict" (Fault.snapshot ()) in
        Alcotest.(check int) "hits" 1 hits;
        Alcotest.(check int) "injected" 1 injected);
    Alcotest.test_case "limit caps injections" `Quick (fun () ->
        Fun.protect ~finally:Fault.clear @@ fun () ->
        Fault.configure "p:1:7:2";
        let faults = ref 0 in
        for _ = 1 to 10 do
          match Fault.point "p" with
          | () -> ()
          | exception Fault.Injected _ -> incr faults
        done;
        Alcotest.(check int) "exactly the limit" 2 !faults);
    Alcotest.test_case "seeded rates are deterministic" `Quick (fun () ->
        let run () =
          Fun.protect ~finally:Fault.clear @@ fun () ->
          Fault.configure "p:0.5:1234";
          List.init 64 (fun _ ->
              match Fault.point "p" with
              | () -> false
              | exception Fault.Injected _ -> true)
        in
        let a = run () and b = run () in
        Alcotest.(check (list bool)) "same stream" a b;
        Alcotest.(check bool) "actually mixed" true
          (List.mem true a && List.mem false a));
    Alcotest.test_case "malformed specs are rejected" `Quick (fun () ->
        List.iter
          (fun spec ->
            match Fault.configure spec with
            | () -> Alcotest.failf "accepted %S" spec
            | exception Invalid_argument _ -> ())
          [ "nope"; "p:x:1"; "p:2:1"; "p:-0.5:1"; "p:0.5"; ":" ];
        Fault.clear ());
    Alcotest.test_case "with_deadline raises once the budget is spent" `Quick
      (fun () ->
        (match
           Fault.with_deadline (Some 0) (fun () ->
               Thread.delay 0.002;
               Fault.check_deadline ();
               "finished")
         with
         | _ -> Alcotest.fail "deadline ignored"
         | exception Fault.Deadline_exceeded -> ());
        (* disarmed on the way out, even on the raise *)
        Fault.check_deadline ();
        Alcotest.(check string) "no deadline runs free" "ok"
          (Fault.with_deadline None (fun () ->
               Fault.check_deadline (); "ok"))) ]

(* ------------------------------------------------------------------ *)
(* Serve-level failure paths                                           *)

let serve_fault_isolation =
  Alcotest.test_case "an injected crash answers internal, then recovers"
    `Quick (fun () ->
      Fun.protect ~finally:Fault.clear @@ fun () ->
      Fault.configure "predict:1:42:1";  (* exactly one crash *)
      let t =
        Serve.of_config
          { Serve.default_config with Serve.workers = Some 1 }
      in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      let r1 = Serve.handle_line t (req valid_hex) in
      Alcotest.(check (option string)) "typed internal error"
        (Some "internal") (error_kind r1);
      Thread.delay 0.05;  (* let the executor respawn *)
      let r2 = Serve.handle_line t (req valid_hex) in
      Alcotest.(check (option string)) "next request predicts" None
        (error_kind r2);
      Alcotest.(check bool) "has cycles" true
        (Json.member "cycles" r2 <> None);
      let s = Serve.handle_line t {|{"cmd":"stats"}|} in
      Alcotest.(check bool) "respawn counted" true
        (get_int [ "stats"; "supervisor"; "respawns" ] s >= 1);
      Alcotest.(check int) "internal counted" 1
        (get_int [ "stats"; "errors"; "by_kind"; "internal" ] s);
      Alcotest.(check int) "fault attributed" 1
        (get_int [ "stats"; "faults"; "predict"; "injected" ] s))

let serve_deadline =
  Alcotest.test_case "an exhausted deadline answers timeout" `Quick (fun () ->
      let t =
        Serve.of_config
          { Serve.default_config with
            Serve.workers = Some 1; deadline_ms = Some 0 }
      in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      let r = Serve.handle_line t (req valid_hex) in
      Alcotest.(check (option string)) "timeout kind" (Some "timeout")
        (error_kind r);
      let s = Serve.handle_line t {|{"cmd":"stats"}|} in
      Alcotest.(check int) "timeout counted" 1
        (get_int [ "stats"; "errors"; "by_kind"; "timeout" ] s);
      (* a timeout is not a crash: no respawn burned *)
      Alcotest.(check int) "no crash" 0
        (get_int [ "stats"; "supervisor"; "crashes" ] s))

let serve_too_large =
  Alcotest.test_case "oversized inputs answer too_large" `Quick (fun () ->
      let limits =
        { Serve.default_limits with Serve.max_input_bytes = 8; max_insts = 2 }
      in
      let t =
        Serve.of_config
          { Serve.default_config with
            Serve.workers = Some 1; limits }
      in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      (* payload over max_input_bytes *)
      let r = Serve.handle_line t (req (String.concat "" (List.init 16 (fun _ -> "90")))) in
      Alcotest.(check (option string)) "payload cap" (Some "too_large")
        (error_kind r);
      (* decodes fine but has more than max_insts instructions *)
      let r2 = Serve.handle_line t (req "909090") in
      Alcotest.(check (option string)) "inst cap" (Some "too_large")
        (error_kind r2);
      (* a line bigger than max_line_bytes is refused outright *)
      let tiny =
        Serve.of_config
          { Serve.default_config with
            Serve.workers = Some 1;
            limits = { Serve.default_limits with Serve.max_line_bytes = 32 } }
      in
      Fun.protect ~finally:(fun () -> Serve.shutdown tiny) @@ fun () ->
      let r3 = Serve.handle_line tiny (req (String.make 64 '9')) in
      Alcotest.(check (option string)) "line cap" (Some "too_large")
        (error_kind r3);
      (* within limits still predicts *)
      let ok = Serve.handle_line t (req valid_hex) in
      Alcotest.(check (option string)) "small input fine" None
        (error_kind ok))

(* Full loop over OS pipes: requests in, EOF, every response out, the
   queue drained, clean return. *)
let serve_eof_drain =
  Alcotest.test_case "run drains queued work on EOF" `Quick (fun () ->
      let t =
        Serve.of_config
          { Serve.default_config with
            Serve.workers = Some 1; queue_cap = 64 }
      in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      let req_r, req_w = Unix.pipe ~cloexec:false () in
      let resp_r, resp_w = Unix.pipe ~cloexec:false () in
      let ic = Unix.in_channel_of_descr req_r in
      let oc = Unix.out_channel_of_descr resp_w in
      let n = 20 in
      let writer =
        Thread.create
          (fun () ->
            let out = Unix.out_channel_of_descr req_w in
            for i = 1 to n do
              output_string out
                (req ~extra:[ "id", Json.Int i ] valid_hex);
              output_char out '\n'
            done;
            close_out out (* EOF *))
          ()
      in
      let server = Thread.create (fun () -> Serve.run ~signals:false t ic oc) () in
      Thread.join writer;
      Thread.join server;
      close_out oc;
      let inc = Unix.in_channel_of_descr resp_r in
      let responses = ref [] in
      (try
         while true do
           responses := input_line inc :: !responses
         done
       with End_of_file -> ());
      close_in inc;
      Alcotest.(check int) "every request answered" n
        (List.length !responses);
      let ids =
        List.rev_map
          (fun line ->
            match Json.parse line with
            | Ok j -> get_int [ "id" ] j
            | Error m -> Alcotest.failf "bad response %S: %s" line m)
          !responses
      in
      Alcotest.(check (list int)) "in order, none lost"
        (List.init n (fun i -> i + 1)) ids)

let suite =
  [ "engine.lru", lru_tests @ [ engine_eviction_correctness ];
    "engine.bqueue", bqueue_tests;
    "engine.supervise", supervise_tests;
    "engine.fault", fault_tests;
    "engine.serve_faults",
    [ serve_fault_isolation; serve_deadline; serve_too_large;
      serve_eof_drain ] ]
