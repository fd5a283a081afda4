type gpr =
  | RAX | RCX | RDX | RBX | RSP | RBP | RSI | RDI
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

type width = W8 | W16 | W32 | W64

type t =
  | Gpr of width * gpr
  | Xmm of int
  | Ymm of int

let equal (a : t) (b : t) = a = b
let compare = Stdlib.compare

let gpr_index = function
  | RAX -> 0 | RCX -> 1 | RDX -> 2 | RBX -> 3
  | RSP -> 4 | RBP -> 5 | RSI -> 6 | RDI -> 7
  | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11
  | R12 -> 12 | R13 -> 13 | R14 -> 14 | R15 -> 15

let all_gprs =
  [ RAX; RCX; RDX; RBX; RSP; RBP; RSI; RDI;
    R8; R9; R10; R11; R12; R13; R14; R15 ]

let gprs_by_index = Array.of_list all_gprs

let gpr_of_index i =
  if i < 0 || i > 15 then invalid_arg "Register.gpr_of_index"
  else gprs_by_index.(i)

let width_bytes = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

let full = function
  | Gpr (_, g) -> Gpr (W64, g)
  | Xmm i | Ymm i -> Ymm i

(* Names of the eight legacy registers at each width; the numbered
   registers follow the r8b/r8w/r8d/r8 scheme. *)
let legacy_names = [| "ax"; "cx"; "dx"; "bx"; "sp"; "bp"; "si"; "di" |]

let gpr_name w g =
  let i = gpr_index g in
  if i < 8 then
    let base = legacy_names.(i) in
    match w with
    | W8 -> (match g with
             | RAX | RCX | RDX | RBX -> String.sub base 0 1 ^ "l"
             | RSP | RBP | RSI | RDI -> base ^ "l"
             | _ -> assert false)
    | W16 -> base
    | W32 -> "e" ^ base
    | W64 -> "r" ^ base
  else
    let base = "r" ^ string_of_int i in
    match w with
    | W8 -> base ^ "b"
    | W16 -> base ^ "w"
    | W32 -> base ^ "d"
    | W64 -> base

let name = function
  | Gpr (w, g) -> gpr_name w g
  | Xmm i -> "xmm" ^ string_of_int i
  | Ymm i -> "ymm" ^ string_of_int i

let of_name s =
  let s = String.lowercase_ascii s in
  let vec prefix mk =
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      match int_of_string_opt (String.sub s n (String.length s - n)) with
      | Some i when i >= 0 && i <= 15 -> Some (mk i)
      | _ -> None
    else None
  in
  match vec "xmm" (fun i -> Xmm i) with
  | Some _ as r -> r
  | None ->
    match vec "ymm" (fun i -> Ymm i) with
    | Some _ as r -> r
    | None ->
      let rec find = function
        | [] -> None
        | g :: rest ->
          let try_width w = if gpr_name w g = s then Some (Gpr (w, g)) else None in
          (match try_width W64 with
           | Some _ as r -> r
           | None ->
             match try_width W32 with
             | Some _ as r -> r
             | None ->
               match try_width W16 with
               | Some _ as r -> r
               | None ->
                 match try_width W8 with
                 | Some _ as r -> r
                 | None -> find rest)
      in
      find all_gprs

let pp fmt r = Format.pp_print_string fmt (name r)
