(* The answer checker.  Every prediction the program under test returns
   is compared, off the clock, with [Model.predict_reference] on the
   same (arch, mode, bytes): cycles, bottlenecks, every component value
   and the front-end path must be bit-identical.  Every hostile request
   must come back with its typed error kind.  A lost or unparseable
   response is a failure too. *)

open Facile_core
module Json = Facile_obs.Json

let reference (k : Gen.key) =
  Model.predict_reference ~notion:(Gen.notion k) (Block.of_bytes k.Gen.cfg k.Gen.bytes)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let num = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let error_kind j =
  match Json.member "error" j with
  | Some e -> Option.bind (Json.member "kind" e) Json.string_opt
  | None -> None

(* [prediction ~expect j] checks one parsed prediction object. *)
let prediction ~(expect : Model.prediction) j =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match error_kind j with
  | Some kind -> fail "error %s where a prediction was due" kind
  | None ->
    (match Option.bind (Json.member "cycles" j) num with
     | None -> fail "no cycles"
     | Some c when not (same_float c expect.Model.cycles) ->
       fail "cycles %h, reference %h" c expect.Model.cycles
     | Some _ ->
       let bottlenecks =
         match Json.member "bottlenecks" j with
         | Some (Json.Arr l) -> List.filter_map Json.string_opt l
         | _ -> []
       in
       let want_b = List.map Model.component_name expect.Model.bottlenecks in
       if bottlenecks <> want_b then
         fail "bottlenecks %s, reference %s" (String.concat "+" bottlenecks)
           (String.concat "+" want_b)
       else
         let value_ok (c, v) =
           match Option.bind (Json.member "values" j) (Json.member (Model.component_name c)) with
           | Some x -> (match num x with Some f -> same_float f v | None -> false)
           | None -> false
         in
         (match List.find_opt (fun cv -> not (value_ok cv)) expect.Model.values with
          | Some (c, v) -> fail "value %s differs from reference %h" (Model.component_name c) v
          | None ->
            let fe = Option.bind (Json.member "fe_path" j) Json.string_opt in
            if fe <> Some (Model.fe_path_name expect.Model.fe_path) then
              fail "fe_path %s, reference %s"
                (Option.value fe ~default:"-")
                (Model.fe_path_name expect.Model.fe_path)
            else Ok ()))

(* [response ~id ~expect line] checks one response line against what
   request [id] was owed: [`Predict p] a prediction bit-identical to
   [p], [`Error kind] a typed error of that kind. *)
let response ~id ~expect line =
  match Json.parse line with
  | Error m -> Error ("unparseable response: " ^ m)
  | Ok j ->
    (match Json.member "id" j with
     | Some (Json.Int i) when i = id ->
       (match expect with
        | `Predict p -> prediction ~expect:p j
        | `Error kind ->
          (match error_kind j with
           | Some k when k = kind -> Ok ()
           | Some k -> Error (Printf.sprintf "error kind %s, expected %s" k kind)
           | None -> Error (Printf.sprintf "no error, expected %s" kind)))
     | _ -> Error (Printf.sprintf "response is not for request %d" id))

(* Failure tally, keeping the first few reasons for the report. *)
type tally = { mutable attempted : int; mutable failed : int; mutable reasons : string list }

let tally () = { attempted = 0; failed = 0; reasons = [] }

let record t what = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error m ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    if List.length t.reasons < 5 then t.reasons <- (what ^ ": " ^ m) :: t.reasons

(* A request that never got its answer. *)
let missing t what = record t what (Error "lost response")
