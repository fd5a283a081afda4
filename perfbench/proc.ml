(* Child processes of the benchmark: spawning the program under test
   with pipes, reading its CPU time and peak RSS from /proc, and making
   sure that none of them outlives the benchmark. *)

type t = {
  pid : int;
  stdin : Unix.file_descr option;   (* our end of its stdin *)
  stdout : Unix.file_descr option;  (* our end of its stdout *)
  stderr : Unix.file_descr option;  (* our end of its stderr *)
  started_ns : int;
}

let now_ns = Facile_obs.Clock.now_ns

(* Every child not yet reaped; killed and reaped at exit. *)
let live : int list ref = ref []

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* [spawn prog args] starts [prog] with a pipe on each of stdin,
   stdout and stderr ([~stdin:false] connects stdin to /dev/null). *)
let spawn ?(stdin = true) prog args =
  let pipe () = Unix.pipe ~cloexec:true () in
  let in_r, in_w =
    if stdin then
      let r, w = pipe () in
      (r, Some w)
    else (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0, None)
  in
  let out_r, out_w = pipe () in
  let err_r, err_w = pipe () in
  let started_ns = now_ns () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) in_r out_w err_w
  in
  live := pid :: !live;
  List.iter Unix.close [ in_r; out_w; err_w ];
  { pid; stdin = in_w; stdout = Some out_r; stderr = Some err_r; started_ns }

(* Reap [p] and close our ends of its pipes. *)
let wait p =
  Option.iter close_quiet p.stdin;
  let _, status = restart (fun () -> Unix.waitpid [] p.pid) in
  live := List.filter (fun q -> q <> p.pid) !live;
  Option.iter close_quiet p.stdout;
  Option.iter close_quiet p.stderr;
  status

let signal p s = try Unix.kill p.pid s with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (restart (fun () -> Unix.waitpid [] pid))
      with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* The state letter of /proc/<pid>/stat ('T' once stopped). *)
let state pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | Some s when String.rindex_opt s ')' <> None && String.rindex s ')' + 2 < String.length s ->
    Some s.[String.rindex s ')' + 2]
  | _ -> None

(* Run [f] while [p] is stopped (SIGSTOP, then SIGCONT whatever [f]
   does), so that none of its threads runs meanwhile. *)
let while_stopped p f =
  signal p Sys.sigstop;
  let deadline = now_ns () + 1_000_000_000 in
  while (match state p.pid with Some ('T' | 't') | None -> false | Some _ -> true)
        && now_ns () < deadline do
    Unix.sleepf 0.0002
  done;
  Fun.protect ~finally:(fun () -> signal p Sys.sigcont) f

(* /proc reports CPU times in USER_HZ, which the Linux ABI fixes at
   100 per second. *)
let user_hz = 100.

(* User plus system CPU seconds of every thread of [pid] so far. *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s ->
    (* the command name may hold spaces: fields resume after its ')' *)
    let rest = String.sub s (String.rindex s ')' + 2)
        (String.length s - String.rindex s ')' - 2) in
    (match String.split_on_char ' ' rest with
     | fields when List.length fields > 12 ->
       let field i = float_of_string (List.nth fields i) in
       (* fields 14 and 15 of stat(5), counted from the state field (3) *)
       Some ((field 11 +. field 12) /. user_hz)
     | _ -> None)

(* Peak resident set size (VmHWM) of [pid] in MiB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> None
  | Some s ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> None)
      (String.split_on_char '\n' s)

(* CPU seconds the hypervisor took from this machine's processors
   (the steal column of /proc/stat), summed over processors, and the
   number of processors. *)
let steal () =
  match read_file "/proc/stat" with
  | None -> (0., 1)
  | Some s ->
    let lines = String.split_on_char '\n' s in
    let cpus =
      List.length
        (List.filter
           (fun l -> String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] <> ' ')
           lines)
    in
    (match List.filter (( <> ) "") (String.split_on_char ' ' (List.hd lines)) with
     | "cpu" :: fields when List.length fields >= 8 ->
       (float_of_string (List.nth fields 7) /. user_hz, max 1 cpus)
     | _ -> (0., max 1 cpus))

(* CPU seconds of all reaped children so far. *)
let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime
