(* Supervised execution of request work on a dedicated executor
   domain, isolating the caller from crashes in the work itself.

   The contract: [run t f] executes [f] on the executor and returns
   [Ok v] — or, if [f] raises, the exception is posted back as
   [Error e] and the executor domain *dies* (we treat any escaped
   exception as domain death, which is also how the fault-injection
   harness kills workers on purpose).  The supervisor joins the dead
   domain and respawns a fresh one with exponential backoff; while
   backing off, and after a circuit breaker trips (>= max_respawns
   crashes inside a sliding window), work runs inline on the calling
   thread in guarded "degraded sequential mode" instead.  The breaker
   closes again after a cooldown.

   [run] is safe for concurrent callers (one per serving session, see
   [run] below), but it is not a job pool: every job funnels through
   the one executor domain.  The serving layer sends it cache misses
   only. *)

module Clock = Facile_obs.Clock
module Sync = Facile_core.Sync

type config = {
  max_respawns : int;     (* breaker threshold within [window_ns] *)
  window_ns : int;
  backoff_base_ns : int;  (* first respawn delay, doubling per crash *)
  backoff_cap_ns : int;
  cooldown_ns : int;      (* breaker-open duration *)
}

let default_config =
  { max_respawns = 5;
    window_ns = 10_000_000_000;     (* 10 s *)
    backoff_base_ns = 1_000_000;    (* 1 ms *)
    backoff_cap_ns = 200_000_000;   (* 200 ms *)
    cooldown_ns = 2_000_000_000 }   (* 2 s *)

type stats = {
  respawns : int;
  crashes : int;
  degraded : bool;
  degraded_transitions : int;
  inline_runs : int;
  last_crash : string option;
}

type worker = {
  wmu : Mutex.t;
  wcond : Condition.t;
  mutable pending : (unit -> unit) option;
  mutable stop : bool;
  mutable dom : unit Domain.t option;
}

type t = {
  cfg : config;
  mu : Mutex.t;
  run_mu : Mutex.t;  (* serializes dispatch onto the single executor *)
  mutable worker : worker option;
  mutable respawns : int;
  mutable crashes : int;
  mutable recent : int list;       (* crash timestamps (ns), windowed *)
  mutable backoff_ns : int;
  mutable retry_at_ns : int;       (* no respawn before this instant *)
  mutable degraded_until_ns : int;
  mutable is_degraded : bool;
  mutable degraded_transitions : int;
  mutable inline_runs : int;
  mutable last_crash : string option;
  mutable shut : bool;
}

let worker_loop w =
  let rec loop () =
    let job =
      Sync.with_lock_cond w.wmu w.wcond
        ~until:(fun () -> w.pending <> None || w.stop)
        (fun () ->
          if w.stop then None
          else begin
            let j = Option.get w.pending in
            w.pending <- None;
            Some j
          end)
    in
    match job with
    | None -> ()
    | Some job ->
      (* a raise here escapes loop and kills the domain — by design;
         the job therefore runs outside the critical section *)
      job ();
      loop ()
  in
  loop ()

let spawn_worker () =
  let w =
    { wmu = Mutex.create (); wcond = Condition.create (); pending = None;
      stop = false; dom = None }
  in
  (* swallow the crash exception at the domain's top so Domain.join
     stays clean; the crash itself was already posted to the caller *)
  w.dom <- Some (Domain.spawn (fun () -> try worker_loop w with _ -> ()));
  w

let create ?(config = default_config) () =
  if config.max_respawns < 1 then invalid_arg "Supervise: max_respawns < 1";
  { cfg = config; mu = Mutex.create (); run_mu = Mutex.create ();
    worker = Some (spawn_worker ());
    respawns = 0; crashes = 0; recent = []; backoff_ns = config.backoff_base_ns;
    retry_at_ns = 0; degraded_until_ns = 0; is_degraded = false;
    degraded_transitions = 0; inline_runs = 0; last_crash = None;
    shut = false }

let join_worker w =
  Sync.with_lock w.wmu (fun () ->
      w.stop <- true;
      Condition.broadcast w.wcond);
  match w.dom with Some d -> Domain.join d | None -> ()

(* Spawn the replacement once the backoff has elapsed, even with no
   traffic, so a supervisor that crashed recovers on its own and stats
   probes see the respawn promptly.  [acquire] below keeps a lazy
   respawn path as a fallback (e.g. right after the breaker closes). *)
let respawn_after t delay_ns =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay (float_of_int delay_ns /. 1e9);
         Sync.with_lock t.mu (fun () ->
             if
               (not t.shut) && (not t.is_degraded) && t.worker = None
               && Clock.now_ns () >= t.retry_at_ns
             then begin
               t.worker <- Some (spawn_worker ());
               t.respawns <- t.respawns + 1
             end))
       ())

let record_crash t e =
  let degraded_now, delay =
    Sync.with_lock t.mu (fun () ->
        (match t.worker with
         | Some w ->
           (* the executor domain is already dead (its job raised), so
              joining here cannot block on live work *)
           join_worker w;
           t.worker <- None
         | None -> ());
        t.crashes <- t.crashes + 1;
        t.last_crash <- Some (Printexc.to_string e);
        let now = Clock.now_ns () in
        t.recent <-
          now :: List.filter (fun ts -> now - ts <= t.cfg.window_ns) t.recent;
        t.retry_at_ns <- now + t.backoff_ns;
        let delay = t.backoff_ns in
        t.backoff_ns <- min (t.backoff_ns * 2) t.cfg.backoff_cap_ns;
        if
          List.length t.recent >= t.cfg.max_respawns && not t.is_degraded
        then begin
          t.is_degraded <- true;
          t.degraded_until_ns <- now + t.cfg.cooldown_ns;
          t.degraded_transitions <- t.degraded_transitions + 1
        end;
        (t.is_degraded, delay))
  in
  if not degraded_now then respawn_after t delay

(* Pick the execution vehicle for one job: the live executor, a freshly
   respawned one, or — degraded / backing off / shut — the caller. *)
let acquire t =
  Sync.with_lock t.mu (fun () ->
      let now = Clock.now_ns () in
      if t.is_degraded && now >= t.degraded_until_ns then begin
        (* breaker half-open -> closed: try real workers again *)
        t.is_degraded <- false;
        t.degraded_transitions <- t.degraded_transitions + 1;
        t.recent <- [];
        t.backoff_ns <- t.cfg.backoff_base_ns
      end;
      let w =
        if t.shut || t.is_degraded then None
        else
          match t.worker with
          | Some w -> Some w
          | None ->
            if now >= t.retry_at_ns then begin
              let w = spawn_worker () in
              t.worker <- Some w;
              t.respawns <- t.respawns + 1;
              Some w
            end
            else None
      in
      if w = None then t.inline_runs <- t.inline_runs + 1;
      w)

(* [run] is safe for concurrent callers (one per live connection):
   there is one executor domain, so dispatch-and-wait is serialized on
   [run_mu] — acquire and post must be one atomic step, or caller B
   could overwrite caller A's pending job, or post to a worker A just
   declared dead.  The degraded/backing-off inline path runs outside
   the lock: guarded inline jobs cannot interfere with each other. *)
let run t f =
  let dispatched =
    Sync.with_lock t.run_mu (fun () ->
        match acquire t with
        | None -> None
        | Some w ->
          let smu = Mutex.create () in
          let scond = Condition.create () in
          let result = ref None in
          let post r =
            Sync.with_lock smu (fun () ->
                result := Some r;
                Condition.signal scond)
          in
          let wrapped () =
            match f () with
            | v -> post (Ok v)
            | exception e ->
              post (Error e);
              raise e (* kill the executor domain *)
          in
          Sync.with_lock w.wmu (fun () ->
              w.pending <- Some wrapped;
              Condition.signal w.wcond);
          let r =
            Sync.with_lock_cond smu scond
              ~until:(fun () -> !result <> None)
              (fun () -> Option.get !result)
          in
          (match r with
           | Ok _ ->
             Sync.with_lock t.mu (fun () ->
                 t.backoff_ns <- t.cfg.backoff_base_ns)
           | Error e -> record_crash t e);
          Some r)
  in
  match dispatched with
  | Some r -> r
  | None ->
    (* degraded / backing off / shut: guarded inline on the caller,
       outside [run_mu] — inline jobs cannot interfere with each other *)
    (match f () with v -> Ok v | exception e -> Error e)

let stats t =
  Sync.with_lock t.mu (fun () ->
      { respawns = t.respawns; crashes = t.crashes; degraded = t.is_degraded;
        degraded_transitions = t.degraded_transitions;
        inline_runs = t.inline_runs; last_crash = t.last_crash })

let degraded t = Sync.with_lock t.mu (fun () -> t.is_degraded)

let shutdown t =
  let w =
    Sync.with_lock t.mu (fun () ->
        t.shut <- true;
        let w = t.worker in
        t.worker <- None;
        w)
  in
  Option.iter join_worker w
