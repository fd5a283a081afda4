(* How fast the host runs right now.  A shared host's processors do
   not keep one speed: on the 2-vCPU machine this benchmark was tuned
   on, a fixed single-threaded loop ran anywhere between 1850 and 3980
   iterations per second, drifting over tens of seconds with no steal
   reported, and the program's timings drifted with it.  Every timing
   the benchmark reports is therefore scaled by the host's speed in the
   same stretch of time, measured with two fixed kernels while the
   program under test is stopped.  They do the two kinds of work the
   program's time goes to:

   - [churn]: allocation-heavy OCaml on one domain per processor
     (strings, lists, a hash table, the garbage collector);
   - [ping_pong]: a one-byte hand-off over two pipes between two
     domains (wake-ups and system calls).

   The speed is the geometric mean of their rates, each as a share of a
   fixed nominal rate.  On the tuning machine, over stretches of about
   20 s, a served request rate and a [facile batch] rate moved with
   this speed to the power 1.03 and 0.95 (correlation 0.98 and 0.94);
   a pure integer kernel's speed would have needed powers of 1.4 to 1.9.
   Nothing in either kernel depends on the program, so a change to the
   program cannot move them. *)

let now_ns = Proc.now_ns

(* Calls of [f] per second over [ns] nanoseconds. *)
let rate_of f ns =
  let t0 = now_ns () in
  let rec go n =
    f ();
    let t = now_ns () in
    if t - t0 < ns then go (n + 1) else float_of_int (n + 1) *. 1e9 /. float_of_int (t - t0)
  in
  go 0

let churn_unit () =
  let h = Hashtbl.create 64 in
  for i = 0 to 255 do
    Hashtbl.replace h (string_of_int (i * 7919)) (List.init 8 (fun j -> i + j))
  done;
  ignore (Sys.opaque_identity (Hashtbl.fold (fun k v n -> n + String.length k + List.length v) h 0))

let processors = Domain.recommended_domain_count ()

(* Mean units per second per domain, one domain per processor. *)
let churn ns =
  let others = List.init (processors - 1) (fun _ -> Domain.spawn (fun () -> rate_of churn_unit ns)) in
  let mine = rate_of churn_unit ns in
  List.fold_left ( +. ) mine (List.map Domain.join others) /. float_of_int processors

(* Round trips per second between this domain and another. *)
let ping_pong ns =
  let to_r, to_w = Unix.pipe ~cloexec:true () and back_r, back_w = Unix.pipe ~cloexec:true () in
  let echo () =
    let b = Bytes.create 1 in
    while Unix.read to_r b 0 1 = 1 && Bytes.get b 0 = 'p' do
      ignore (Unix.write back_w b 0 1)
    done
  in
  let d = Domain.spawn echo in
  let b = Bytes.create 1 in
  let round_trip () =
    Bytes.set b 0 'p';
    ignore (Unix.write to_w b 0 1);
    ignore (Unix.read back_r b 0 1)
  in
  let r = rate_of round_trip ns in
  Bytes.set b 0 'q';
  ignore (Unix.write to_w b 0 1);
  Domain.join d;
  List.iter Unix.close [ to_r; to_w; back_r; back_w ];
  r

(* Fixed nominal rates: about each kernel's median rate on the tuning
   machine (Intel Xeon at 2.1 GHz, 2 vCPUs), so that scaled figures
   stay close to measured ones there.  Only their being fixed matters. *)
let churn_reference = 10_000.
let ping_pong_reference = 75_000.

(* The host's speed now, as a share of the nominal one: each kernel
   runs for [ms] milliseconds. *)
let sample ?(ms = 50) () =
  let ns = ms * 1_000_000 in
  let c = churn ns /. churn_reference in
  let p = ping_pong ns /. ping_pong_reference in
  Float.sqrt (c *. p)
