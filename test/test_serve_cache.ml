(* The byte-keyed serving cache: a predict request resolves to
   (arch, mode, bytes) and a hit is answered from pre-rendered response
   fields without building a block.  These tests hold the hit path to
   the bytes the compute path produces, across every arch and mode,
   across the hex and asm spellings of a block, and against the batch
   CLI; and they show that a hit runs no compute at all. *)

open Facile_x86
open Facile_uarch
open Facile_core
module Json = Facile_obs.Json
module Engine = Facile_engine.Engine
module Fault = Facile_engine.Fault
module Serve = Facile_engine.Serve
module Suite = Facile_bhive.Suite

let facile_exe = "../bin/facile.exe"

let mode_names = [ "loop"; "unroll"; "auto" ]

let notion_of_name = function
  | "loop" -> Model.L
  | "unroll" -> Model.U
  | _ -> Model.Auto

let to_hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* The response bytes every surface must agree on, built the way the
   serving layer built them before responses were cached. *)
let expected_line first p =
  match Model.prediction_to_json p with
  | Json.Obj fields -> Json.to_string (Json.Obj (first :: fields))
  | _ -> Alcotest.fail "prediction_to_json is not an object"

(* Everything after the leading ["id"] / ["line"] member. *)
let after_first_member s =
  match String.index_opt s ',' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> Alcotest.failf "no second member in %s" s

let request ~id ~arch ~mode field value =
  Json.to_string
    (Json.Obj
       [ "id", Json.Int id; "arch", Json.Str arch; "mode", Json.Str mode;
         field, Json.Str value ])

let with_serve f =
  let t = Serve.of_config { Serve.default_config with Serve.workers = Some 1 } in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) (fun () -> f t)

let hits t = (Engine.cache_stats (Serve.engine t)).Engine.hits

let corpus_bytes () =
  List.concat_map
    (fun (c : Suite.case) ->
      [ fst (Encode.encode_block c.Suite.body);
        fst (Encode.encode_block c.Suite.loop) ])
    (Suite.corpus ~seed:12 ~size:4 ())

(* [facile batch --json] over [codes] for one arch and mode. *)
let batch_lines ~arch ~mode codes =
  let file = Filename.temp_file "facile-serve-cache" ".hex" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  List.iter (fun b -> output_string oc (to_hex b ^ "\n")) codes;
  close_out oc;
  let ic =
    Unix.open_process_in
      (Printf.sprintf "%s batch --json -a %s -m %s %s 2>/dev/null" facile_exe
         arch mode (Filename.quote file))
  in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> Alcotest.failf "facile batch failed for %s/%s" arch mode);
  List.filter (fun l -> l <> "") lines

(* (a) miss, first hit and a later hit answer the same bytes as the
   pre-cache response, and as the batch CLI, on every arch and mode. *)
let miss_and_hits_identical =
  Alcotest.test_case "miss, first hit and later hit are byte-identical"
    `Slow (fun () ->
      let codes = corpus_bytes () in
      with_serve @@ fun t ->
      let id = ref 0 in
      List.iter
        (fun (cfg : Config.t) ->
          let arch = cfg.Config.abbrev in
          List.iter
            (fun mode ->
              let batch = batch_lines ~arch ~mode codes in
              Alcotest.(check int)
                (Printf.sprintf "%s/%s: one batch line per block" arch mode)
                (List.length codes) (List.length batch);
              List.iter2
                (fun code batch_line ->
                  let p =
                    Model.predict ~notion:(notion_of_name mode)
                      (Block.of_bytes cfg code)
                  in
                  let answer () =
                    incr id;
                    let line = request ~id:!id ~arch ~mode "hex" (to_hex code) in
                    ( Json.to_string (Serve.handle_line t line),
                      expected_line ("id", Json.Int !id) p )
                  in
                  let h0 = hits t in
                  List.iter
                    (fun what ->
                      let got, want = answer () in
                      Alcotest.(check string)
                        (Printf.sprintf "%s/%s %s" arch mode what) want got;
                      Alcotest.(check string)
                        (Printf.sprintf "%s/%s %s matches batch" arch mode what)
                        (after_first_member batch_line)
                        (after_first_member got))
                    [ "miss"; "first hit"; "later hit" ];
                  Alcotest.(check int) "two of three were hits" (h0 + 2) (hits t))
                codes batch)
            mode_names)
        Config.all)

(* (b) the asm spelling of a block resolves to the hex spelling's key
   and answers the same: the serving layer builds every block from its
   encoded bytes, so [of_bytes (encode insts)] must predict exactly
   what [of_instructions insts] does. *)
let qcheck_asm_equals_hex =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* arch = oneofl Config.all in
      let* mode = oneofl mode_names in
      let* loop = bool in
      let c = List.hd (Suite.corpus ~seed ~size:1 ()) in
      return (arch, mode, if loop then c.Suite.loop else c.Suite.body))
  in
  QCheck.Test.make ~count:150
    ~name:"hex and asm requests for the same block answer identically"
    (QCheck.make gen ~print:(fun ((cfg : Config.t), mode, insts) ->
         Printf.sprintf "%s/%s: %s" cfg.Config.abbrev mode
           (Asm.print_block insts)))
    (fun ((cfg : Config.t), mode, insts) ->
      let notion = notion_of_name mode in
      let code = fst (Encode.encode_block insts) in
      let p_insts = Model.predict ~notion (Block.of_instructions cfg insts) in
      let p_bytes = Model.predict ~notion (Block.of_bytes cfg code) in
      let want = expected_line ("id", Json.Int 1) p_insts in
      let arch = cfg.Config.abbrev in
      let asm_first =
        with_serve (fun t ->
            Json.to_string
              (Serve.handle_line t
                 (request ~id:1 ~arch ~mode "asm" (Asm.print_block insts))))
      in
      let hex_then_asm =
        with_serve (fun t ->
            let hex =
              Serve.handle_line t (request ~id:1 ~arch ~mode "hex" (to_hex code))
            in
            let asm =
              Serve.handle_line t
                (request ~id:1 ~arch ~mode "asm" (Asm.print_block insts))
            in
            (Json.to_string hex, Json.to_string asm, hits t))
      in
      let hex, asm_hit, n_hits = hex_then_asm in
      Facile_store.Codec.pred_equal p_insts p_bytes
      && String.equal want asm_first && String.equal want hex
      && String.equal want asm_hit && n_hits = 1)

let error_kind resp =
  Option.bind (Json.member "error" resp) (fun e ->
      Option.bind (Json.member "kind" e) Json.string_opt)

(* (c) a hit runs no compute: with every compute-side fault point
   armed, a warm key still predicts and a fresh key crashes. *)
let hits_skip_compute =
  Alcotest.test_case "hits skip compute and its fault points" `Quick
    (fun () ->
      Fun.protect ~finally:Fault.clear @@ fun () ->
      with_serve @@ fun t ->
      let warm = {|{"id":1,"hex":"4801d8"}|} in
      let before = Json.to_string (Serve.handle_line t warm) in
      let req hex = Printf.sprintf {|{"id":2,"hex":"%s"}|} hex in
      List.iter
        (fun (spec, fresh, after) ->
          Fault.configure spec;
          let again = Serve.handle_line t warm in
          Alcotest.(check (option string)) (spec ^ ": warm key predicts") None
            (error_kind again);
          Alcotest.(check string) (spec ^ ": same bytes") before
            (Json.to_string again);
          Alcotest.(check (option string)) (spec ^ ": fresh key crashes")
            (Some "internal")
            (error_kind (Serve.handle_line t (req fresh)));
          Fault.clear ();
          (* the failed miss cached nothing: once disarmed it predicts *)
          Thread.delay 0.05;
          Alcotest.(check (option string)) (spec ^ ": fresh key recovers") None
            (error_kind (Serve.handle_line t (req after))))
        [ ("predict:1:1", "4829d8", "4831c0"); ("decode:1:1", "4889d8", "4801c8") ])

(* A deadline bounds compute, not the answer: a warm key is served
   even when the budget is spent before the request starts. *)
let hit_beats_zero_deadline =
  Alcotest.test_case "a cached answer is served under --deadline-ms 0" `Quick
    (fun () ->
      let t =
        Serve.of_config
          { Serve.default_config with Serve.workers = Some 1;
            deadline_ms = Some 0 }
      in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      let cfg = Config.by_arch Config.SKL in
      let code = "\x48\x01\xd8" in
      let p = Model.predict (Block.of_bytes cfg code) in
      Engine.memo_seed (Serve.engine t) [ ((Config.SKL, `Auto, code), p) ];
      Alcotest.(check string) "seeded key answers"
        (expected_line ("id", Json.Int 1) p)
        (Json.to_string (Serve.handle_line t {|{"id":1,"hex":"4801d8"}|}));
      Alcotest.(check (option string)) "fresh key times out" (Some "timeout")
        (error_kind (Serve.handle_line t {|{"id":2,"hex":"4829d8"}|})))

let suite =
  [ ( "serve.cache",
      [ miss_and_hits_identical;
        QCheck_alcotest.to_alcotest qcheck_asm_equals_hex;
        hits_skip_compute; hit_beats_zero_deadline ] ) ]
