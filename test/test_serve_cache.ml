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

(* ----- facile batch: pool passes, error precedence ----- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* [facile batch ARGS] on [input]: (exit code, stdout, stderr). *)
let run_batch args input =
  let tmp ext = Filename.temp_file "facile-batch" ext in
  let inp = tmp ".txt" and out = tmp ".out" and err = tmp ".err" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ inp; out; err ])
  @@ fun () ->
  Out_channel.with_open_bin inp (fun oc -> output_string oc input);
  let rc =
    Sys.command
      (Printf.sprintf "%s batch %s %s >%s 2>%s" facile_exe args
         (Filename.quote inp) (Filename.quote out) (Filename.quote err))
  in
  (rc, read_file out, read_file err)

(* the error must name [line] and nothing may reach stdout *)
let check_error ~what ~code ~line (rc, out, err) =
  Alcotest.(check int) (what ^ ": exit code") code rc;
  Alcotest.(check string) (what ^ ": stdout is empty") "" out;
  let prefix = Printf.sprintf "error: line %d: " line in
  if not (String.starts_with ~prefix err) then
    Alcotest.failf "%s: stderr %S does not start with %S" what err prefix

let batch_deterministic =
  Alcotest.test_case "--json is byte-identical for any pool size and --no-memo"
    `Quick (fun () ->
      let hexes = List.map to_hex (corpus_bytes ()) in
      let input =
        String.concat "\n"
          ([ "# a comment"; "" ]
           @ List.mapi (fun i h -> Printf.sprintf "%s,%d.5" h (i + 1)) hexes
           @ [ ""; "  # indented comment" ]
           @ hexes @ List.rev hexes)
        ^ "\n"
      in
      let json args =
        let rc, out, err = run_batch ("--json " ^ args) input in
        Alcotest.(check int) (args ^ ": exit 0") 0 rc;
        if not (contains err "Kendall tau") then
          Alcotest.failf "%s: no Kendall tau in %S" args err;
        out
      in
      let want = json "--workers 1" in
      Alcotest.(check int) "one line per block" (3 * List.length hexes)
        (List.length (String.split_on_char '\n' want) - 1);
      List.iter
        (fun args -> Alcotest.(check string) args want (json args))
        [ "--workers 2"; "--workers 4"; "--workers 1 --no-memo";
          "--workers 4 --no-memo" ])

let batch_first_bad_line_wins =
  Alcotest.test_case "the first bad line is reported, whatever its kind"
    `Quick (fun () ->
      check_error ~what:"measured then hex" ~code:4 ~line:2
        (run_batch "" "4801d8\n4801d8,0\nzz\n");
      check_error ~what:"hex then measured" ~code:3 ~line:2
        (run_batch "" "4801d8\nzz\n4801d8,0\n");
      (* far apart in a corpus large enough to span several work
         chunks, so the two failures land on different domains *)
      let corpus bad =
        String.concat ""
          (List.init 400 (fun i ->
               match List.assoc_opt (i + 1) bad with
               | Some l -> l ^ "\n"
               | None -> "4801d8,1\n"))
      in
      List.iter
        (fun w ->
          let args = Printf.sprintf "--json --workers %d" w in
          check_error ~what:(args ^ ": label at 250, hex at 390") ~code:4
            ~line:250
            (run_batch args (corpus [ (250, "4801d8,-1"); (390, "4801dz") ]));
          check_error ~what:(args ^ ": hex at 250, label at 390") ~code:3
            ~line:250
            (run_batch args (corpus [ (250, "4801dz"); (390, "4801d8,-1") ]));
          check_error ~what:(args ^ ": undecodable at 17") ~code:7 ~line:17
            (run_batch args (corpus [ (17, "ff"); (390, "zz") ])))
        [ 1; 2; 4 ])

let batch_measured_values =
  Alcotest.test_case "measured cycles must be finite and positive" `Quick
    (fun () ->
      List.iter
        (fun m ->
          check_error ~what:("measured " ^ m) ~code:4 ~line:2
            (run_batch "--json" (Printf.sprintf "4801d8,1\n4801d8,%s\n" m));
          check_error ~what:("quiet, measured " ^ m) ~code:4 ~line:2
            (run_batch "-q" (Printf.sprintf "4801d8,1\n4801d8,%s\n" m)))
        [ "0"; "-0"; "-3"; "nan"; "inf"; "-inf"; "abc"; "" ];
      let rc, out, err = run_batch "--json" "4801d8,1e-3\n4801d8, 2 \n" in
      Alcotest.(check int) "tiny and padded labels are accepted" 0 rc;
      Alcotest.(check bool) "both labels echoed" true
        (List.for_all
           (fun m ->
             List.exists
               (fun l -> String.starts_with ~prefix:m l)
               (String.split_on_char '\n' out))
           [ {|{"line":1,"measured":0.001,|}; {|{"line":2,"measured":2.0,|} ]);
      if not (contains err "MAPE") then
        Alcotest.failf "no MAPE summary in %S" err)

let batch_error_leaves_no_store =
  Alcotest.test_case "a bad line leaves no store file behind" `Quick
    (fun () ->
      let path = Filename.temp_file "facile-batch" ".store" in
      Sys.remove path;
      Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      @@ fun () ->
      let args = "--store " ^ Filename.quote path in
      check_error ~what:"bad hex" ~code:3 ~line:2
        (run_batch args "4801d8\nzz\n");
      check_error ~what:"bad label" ~code:4 ~line:1
        (run_batch args "4801d8,nan\n");
      Alcotest.(check bool) "no file at the store path" false
        (Sys.file_exists path))

let missing_input_file =
  Alcotest.test_case "a missing input file is a generic error, not a crash"
    `Quick (fun () ->
      let path = Filename.temp_file "facile-missing" ".txt" in
      Sys.remove path;
      let out = Filename.temp_file "facile-missing" ".out"
      and err = Filename.temp_file "facile-missing" ".err" in
      Fun.protect ~finally:(fun () -> List.iter Sys.remove [ out; err ])
      @@ fun () ->
      List.iter
        (fun cmd ->
          let rc =
            Sys.command
              (Printf.sprintf "%s %s %s >%s 2>%s" facile_exe cmd
                 (Filename.quote path) (Filename.quote out)
                 (Filename.quote err))
          in
          Alcotest.(check int) (cmd ^ ": exit code") 1 rc;
          Alcotest.(check string) (cmd ^ ": stdout is empty") ""
            (read_file out);
          Alcotest.(check string) (cmd ^ ": stderr")
            (Printf.sprintf "error: %s: No such file or directory\n" path)
            (read_file err))
        [ "predict"; "batch"; "batch --json -q"; "explain" ])

let suite =
  [ ( "serve.cache",
      [ miss_and_hits_identical;
        QCheck_alcotest.to_alcotest qcheck_asm_equals_hex;
        hits_skip_compute; hit_beats_zero_deadline ] );
    ( "batch.cli",
      [ batch_deterministic; batch_first_bad_line_wins; batch_measured_values;
        batch_error_leaves_no_store; missing_input_file ] ) ]
