(* The benchmark's one seeded input generator.  Everything a workload
   sends is derived here from [--seed]; the program under test only
   ever sees the generated request lines and corpus files.

   Why each workload exists (also in BENCHMARK.json):
   - hot-stdio: repeated keys out of a warm store, so almost no model
     work runs and the request path around the model (framing, JSON,
     hex, decode and block build, cache hit, supervisor hop,
     serialization, stdio hand-offs) is what is measured;
   - cold-tcp: every key distinct over all arches and notions, with a
     cache smaller than the key count, so the model runs on every
     request and the cache only inserts and evicts; a few hostile
     requests check the typed errors;
   - batch: offline corpus evaluation, the paper's own use: one
     process over a large corpus, no framing or supervisor, and the
     accuracy metrics against oracle labels. *)

open Facile_uarch
open Facile_core
module Prng = Facile_bhive.Prng
module Genblock = Facile_bhive.Genblock

type key = {
  cfg : Config.t;
  mode : string;  (* wire spelling: "loop" | "unroll" | "auto" *)
  bytes : string;
  hex : string;
}

type hostile = Bad_hex | Unknown_arch | Oversize | Unknown_field

type req = Predict of key | Hostile of hostile * key

(* The typed error each hostile request must get back. *)
let expected_kind = function
  | Bad_hex -> "bad_hex"
  | Unknown_arch -> "unknown_arch"
  | Oversize -> "too_large"
  | Unknown_field -> "bad_request"

let hex_of bytes =
  let b = Buffer.create (2 * String.length bytes) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) bytes;
  Buffer.contents b

let notion k =
  match k.mode with
  | "loop" -> Model.L
  | "unroll" -> Model.U
  | _ -> Model.Auto

(* Independent streams per purpose, all from the one seed. *)
let rng ~seed ~stream = Prng.create ((seed * 7919) + stream)

let arches = Array.of_list Config.all

(* One generated block: a random profile and length, looped (ending in
   the back-edge branch) or straight-line. *)
let block rng ~loop =
  let profile = Prng.choose rng Genblock.all_profiles in
  let len = Prng.range rng 1 16 in
  let body = Genblock.body rng profile ~allow_fma:false ~len in
  fst
    (Facile_x86.Encode.encode_block
       (if loop then Genblock.looped body else body))

(* [n] distinct encodings; [loop i] says whether block [i] loops. *)
let blocks rng n ~loop =
  let seen = Hashtbl.create n in
  let out = Array.make n "" in
  let k = ref 0 in
  while !k < n do
    let b = block rng ~loop:(loop !k) in
    if not (Hashtbl.mem seen b) then begin
      Hashtbl.add seen b ();
      out.(!k) <- b;
      incr k
    end
  done;
  out

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The key space of a block pool: block x arch x notion, where
   "auto" is spelled instead of the explicit notion half the time it
   means the same.  Keys drawn from it are distinct in the program's
   memo key (arch, notion, bytes). *)
let key_of rng pool ~is_loop i =
  let nb = 2 * Array.length arches in
  let b = i / nb and a = i mod nb / 2 and loop_notion = i mod 2 = 0 in
  let auto = Prng.bool rng && loop_notion = is_loop b in
  let bytes = pool.(b) in
  { cfg = arches.(a);
    mode = (if auto then "auto" else if loop_notion then "loop" else "unroll");
    bytes;
    hex = hex_of bytes }

let key_space pool = Array.length pool * 2 * Array.length arches

(* ----- hot-stdio ----- *)

type hot = {
  prefill : key array;  (* the warm store's keys, distinct *)
  hot : key array;      (* the requested subset *)
  warmup : key array;   (* one hot key per arch in the workload *)
}

let hot ~seed ~prefill ~hot:n_hot =
  let r = rng ~seed ~stream:1 in
  let n_blocks = max 1 (prefill / 4) in
  let is_loop b = b mod 2 = 0 in
  let pool = blocks r n_blocks ~loop:is_loop in
  let idx = Array.init (key_space pool) Fun.id in
  shuffle r idx;
  let prefill = Array.init prefill (fun i -> key_of r pool ~is_loop idx.(i)) in
  let order = Array.init (Array.length prefill) Fun.id in
  shuffle r order;
  let hot = Array.init n_hot (fun i -> prefill.(order.(i))) in
  let warmup =
    Array.of_list
      (List.filter_map
         (fun (c : Config.t) ->
           Array.find_opt (fun k -> k.cfg.Config.arch = c.Config.arch) hot)
         Config.all)
  in
  { prefill; hot; warmup }

(* The seeded request stream over the hot subset. *)
let hot_stream ~seed (h : hot) =
  let r = rng ~seed ~stream:2 in
  fun () -> Predict h.hot.(Prng.int r (Array.length h.hot))

(* ----- cold-tcp ----- *)

(* An endless stream of distinct keys over [n_blocks] blocks (it only
   repeats once all block x arch x notion keys are used), with about
   [hostile_pct] percent hostile requests mixed in. *)
let cold_stream ~seed ~n_blocks ~hostile_pct =
  let r = rng ~seed ~stream:3 in
  let is_loop b = b mod 2 = 0 in
  let pool = blocks r n_blocks ~loop:is_loop in
  let idx = Array.init (key_space pool) Fun.id in
  shuffle r idx;
  let next = ref 0 in
  let kinds = [| Bad_hex; Unknown_arch; Oversize; Unknown_field |] in
  fun () ->
    let k = key_of r pool ~is_loop idx.(!next mod Array.length idx) in
    incr next;
    if Prng.chance r (hostile_pct /. 100.) then
      Hostile (kinds.(Prng.int r (Array.length kinds)), k)
    else Predict k

(* ----- batch ----- *)

(* The batch corpus: [n] distinct loop blocks for SKL. *)
let batch_corpus ~seed ~n =
  let r = rng ~seed ~stream:4 in
  let skl = Config.by_arch Config.SKL in
  Array.map
    (fun bytes -> { cfg = skl; mode = "auto"; bytes; hex = hex_of bytes })
    (blocks r n ~loop:(fun _ -> true))

(* ----- wire rendering ----- *)

let oversize_hex k =
  (* repeat the valid payload until it is over the server's default
     65536-byte input limit *)
  let copies = (65536 / max 2 (String.length k.hex)) + 2 in
  String.concat "" (List.init copies (fun _ -> k.hex))

let line ~id req =
  let pr ?(arch = "") ?(hex = "") ?(extra = "") k =
    Printf.sprintf {|{"id":%d,"arch":"%s","mode":"%s","hex":"%s"%s}|} id
      (if arch = "" then k.cfg.Config.abbrev else arch)
      k.mode
      (if hex = "" then k.hex else hex)
      extra
  in
  match req with
  | Predict k -> pr k
  | Hostile (Bad_hex, k) ->
    let h = k.hex in
    let mid = String.length h / 2 in
    pr ~hex:(String.sub h 0 mid ^ "zz" ^ String.sub h mid (String.length h - mid)) k
  | Hostile (Unknown_arch, k) -> pr ~arch:"K10" k
  | Hostile (Oversize, k) -> pr ~hex:(oversize_hex k) k
  | Hostile (Unknown_field, k) -> pr ~extra:{|,"bogus_field":1|} k

(* ----- oracle labels ----- *)

(* Map [f] over [a] on [domains] domains (chunks claimed from an
   atomic counter); off the clock only. *)
let par_map ?(domains = 2) f a =
  let n = Array.length a in
  let res = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 16 in
    if i < n then begin
      for j = i to min n (i + 16) - 1 do
        res.(j) <- Some (f a.(j))
      done;
      work ()
    end
  in
  let ds = List.init (max 0 (min domains n - 1)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join ds;
  Array.map Option.get res

(* The measurement oracle: Facile_sim at Hardware fidelity, in the
   notion the request asks for.  [None] if it does not converge. *)
let label k =
  let b = Block.of_bytes k.cfg k.bytes in
  let mode =
    match notion k with
    | Model.L -> `Loop
    | Model.U -> `Unrolled
    | Model.Auto -> if Block.ends_in_branch b then `Loop else `Unrolled
  in
  try Some (Facile_sim.Sim.cycles_per_iteration ~fidelity:Facile_sim.Sim.Hardware ~mode b)
  with Facile_sim.Sim.Did_not_converge -> None
