(* Hex machine-code decoding, shared by the CLI and the serving
   layer.  Whitespace is ignored; errors carry the byte offset of the
   offending character in the input as the user wrote it. *)

(* A character's nibble value, [-1] for ignored whitespace, [-2] for
   anything else. *)
let nibble = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | ' ' | '\n' | '\t' | '\r' -> -1
  | _ -> -2

(* One scan: digit pairs go straight into an output buffer sized for
   whitespace-free input (every byte needs two characters), which is
   returned as is unless whitespace made the result shorter. *)
let decode s : (string, Err.t) result =
  let len = String.length s in
  let out = Bytes.create (len / 2) in
  (* [n] digits seen so far; [hi] the pending high nibble when [n] is odd *)
  let rec go i n hi =
    if i = len then
      if n land 1 <> 0 then
        Error
          (Err.v Err.Bad_hex
             (Printf.sprintf
                "hex input must have an even number of digits, got %d" n))
      else if n / 2 = Bytes.length out then Ok (Bytes.unsafe_to_string out)
      else Ok (Bytes.sub_string out 0 (n / 2))
    else
      match nibble (String.unsafe_get s i) with
      | -1 -> go (i + 1) n hi
      | -2 ->
        Error
          (Err.v ~pos:i Err.Bad_hex
             (Printf.sprintf "invalid hex character %C" s.[i]))
      | d when n land 1 = 0 -> go (i + 1) (n + 1) d
      | d ->
        Bytes.set out (n / 2) (Char.unsafe_chr ((hi lsl 4) lor d));
        go (i + 1) (n + 1) 0
  in
  go 0 0 0
