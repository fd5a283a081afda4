type edge = { src : int; dst : int; weight : float; count : int }

type t = {
  n : int;
  mutable all : edge list;  (* reverse insertion order *)
}

let create ~n =
  if n < 0 then invalid_arg "Digraph.create";
  { n; all = [] }

let n_nodes g = g.n

let add_edge g ~src ~dst ~weight ~count =
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Digraph.add_edge: node out of range";
  if count < 0 then invalid_arg "Digraph.add_edge: negative count";
  g.all <- { src; dst; weight; count } :: g.all

let edges g = List.rev g.all
