(** Directed graphs with doubly-weighted edges, as used by the
    Precedence analysis: each edge carries a latency [weight] and an
    iteration-distance [count]. The throughput bound of a cycle is
    [sum weight / sum count]. *)

type edge = { src : int; dst : int; weight : float; count : int }

type t

(** [create ~n] is an empty graph on nodes [0 .. n-1]. *)
val create : n:int -> t

val n_nodes : t -> int

(** [add_edge g ~src ~dst ~weight ~count] adds a directed edge.
    @raise Invalid_argument if an endpoint is out of range or
    [count < 0]. *)
val add_edge : t -> src:int -> dst:int -> weight:float -> count:int -> unit

(** All edges, in insertion order. *)
val edges : t -> edge list
