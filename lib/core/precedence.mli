(** The precedence-constraint component (paper §4.9).

    Builds the weighted dependence graph over consumed/produced values
    (registers and flags, at full-register granularity), connects
    producers to their consumers within and across iterations, and
    computes the maximum cycle ratio — the recurrence-constrained
    minimum initiation interval — with Howard's algorithm. *)

open Facile_x86

(** [throughput b] is the cycles-per-iteration bound due to loop-carried
    dependence chains (0 when the block has none). *)
val throughput : Block.t -> float

(** Reference (pre-flattening) graph build: labeled hashtable nodes
    and a {!Facile_graph.Digraph.t}, solved by the same Howard as
    {!throughput}. Identical results (property-tested); kept for
    differential tests and the perf bench. *)
val throughput_ref : Block.t -> float

(** [critical_chain b] describes the dependency cycle that limits
    throughput, as a list of human-readable node labels, when the
    Precedence bound is non-trivial. *)
val critical_chain : Block.t -> string list

(** Exposed for testing: the same bound computed with Lawler's
    algorithm instead of Howard's. *)
val throughput_lawler : Block.t -> float

val resource_name : Semantics.resource -> string
