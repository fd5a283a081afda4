(** Maximum cycle ratio: the largest value of
    [sum of edge weights / sum of edge counts] over all directed cycles
    with a positive total count.

    This is the quantity the Precedence component computes on the
    dependence graph (the recurrence-constrained minimum initiation
    interval of modulo scheduling). Facile computes it with Howard's
    policy iteration, as in the paper [16, 18]; Lawler's parametric
    search is the independent cross-check. Cycles of count 0 and
    weight 0 have no ratio and are ignored. *)

(** [howard_flat ~n ~m ~src ~dst ~weight ~count] computes the maximum
    cycle ratio by policy iteration (Howard's algorithm) on a graph of
    [n] nodes given as parallel edge arrays (first [m] entries). All
    working storage lives in a domain-local scratch that only grows,
    so the Precedence hot path runs allocation-free. Returns [None]
    when no cycle has a positive count.
    @raise Failure if some cycle has total count 0 but positive weight
    (an infinite ratio — dependence graphs never contain such cycles). *)
val howard_flat :
  n:int ->
  m:int ->
  src:int array ->
  dst:int array ->
  weight:float array ->
  count:int array ->
  float option

(** [howard g] is {!howard_flat} on the edges of [g]. *)
val howard : Digraph.t -> float option

(** [lawler g] computes the same value by binary search over candidate
    ratios with positive-cycle detection (Bellman-Ford). Slower but
    independent; used to cross-check [howard]. [epsilon] bounds the
    absolute error (default [1e-9]). *)
val lawler : ?epsilon:float -> Digraph.t -> float option

(** [critical_cycle g r] returns the edges of a cycle whose ratio is at
    least [r - 1e-6], if one exists — the "dependency chain with maximal
    latency" Facile reports for interpretability. *)
val critical_cycle : Digraph.t -> float -> Digraph.edge list option
