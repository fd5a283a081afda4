(* Growable arrays: request logs, latency samples and spans. *)

type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

let create dummy = { a = Array.make 256 dummy; n = 0; dummy }

let push t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) t.dummy in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let length t = t.n
let get t i = t.a.(i)
let set t i x = t.a.(i) <- x
let to_array t = Array.sub t.a 0 t.n
