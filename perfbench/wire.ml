(* Newline-delimited I/O on raw descriptors, for the benchmark's
   clients: one reader per pipe or socket, waits bounded by a timeout
   so that a hung program under test shows up as lost responses
   instead of a hung benchmark.  Kept apart from the program's own
   Framing so that a framing bug cannot cancel out on both ends. *)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  acc : Buffer.t;  (* the start of a line that spans reads *)
  mutable eof : bool;
}

let reader fd =
  { fd; buf = Bytes.create 65536; lo = 0; hi = 0; acc = Buffer.create 256;
    eof = false }

(* A complete line already buffered, without any I/O. *)
let pop_line r =
  let rec find i =
    if i >= r.hi then None
    else if Bytes.unsafe_get r.buf i = '\n' then Some i
    else find (i + 1)
  in
  match find r.lo with
  | Some i ->
    let part = Bytes.sub_string r.buf r.lo (i - r.lo) in
    r.lo <- i + 1;
    if Buffer.length r.acc = 0 then Some part
    else begin
      Buffer.add_string r.acc part;
      let line = Buffer.contents r.acc in
      Buffer.clear r.acc;
      Some line
    end
  | _ -> None

(* One read(2) into the buffer; false at end of file. *)
let read_once r =
  Buffer.add_subbytes r.acc r.buf r.lo (r.hi - r.lo);
  r.lo <- 0;
  r.hi <- 0;
  let n =
    try Proc.restart (fun () -> Unix.read r.fd r.buf 0 (Bytes.length r.buf))
    with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
  in
  r.hi <- n;
  if n = 0 then r.eof <- true;
  n > 0

let readable fds timeout_s =
  match Proc.restart (fun () -> Unix.select fds [] [] timeout_s) with
  | ready, _, _ -> ready

(* The next line, waiting at most until [deadline_ns]; [None] on end
   of file or timeout. *)
let rec next_line r ~deadline_ns =
  match pop_line r with
  | Some l -> Some l
  | None when r.eof -> None
  | None ->
    let left = float_of_int (deadline_ns - Proc.now_ns ()) /. 1e9 in
    if left <= 0. then None
    else if readable [ r.fd ] left = [] then None
    else if read_once r then next_line r ~deadline_ns
    else None

(* Write all of [s]; false if the peer has gone away. *)
let write_all fd s =
  let n = String.length s in
  let rec go off =
    off >= n
    || go (off + Proc.restart (fun () -> Unix.write_substring fd s off (n - off)))
  in
  try go 0 with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

(* Drain everything [r] still produces, up to a deadline. *)
let rest r ~deadline_ns =
  let rec go acc =
    match next_line r ~deadline_ns with
    | Some l -> go (l :: acc)
    | None -> List.rev acc
  in
  go []
