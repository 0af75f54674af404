(** Local overlay repair under churn.

    The paper's conclusion flags churn as the open problem of its approach
    ("it is probably not resilient to churn"). This module implements the
    natural local-repair strategies on the acyclic overlays built here and
    quantifies the trade-off against a full rebuild:

    - {!leave}: when a node departs, its upload responsibilities are
      redistributed to earlier nodes with spare upload capacity (keeping
      the scheme acyclic and firewall-safe) and its own reception is
      dropped; nothing else moves. The repaired rate may be below the new
      instance's optimum — the honest number is re-measured through the
      patched scheme's cached CSR snapshot.
    - {!leave_batch}: a correlated failure — several nodes vanish in the
      same event (rack loss, AS partition) and the survivors are patched
      once, not once per casualty.
    - {!join}: a newcomer is appended last in the topological order and
      fed from whatever spare capacity exists (guarded supply first if it
      is open); its own upload stays idle until the next rebuild, so it
      never degrades existing nodes. On a saturated overlay the newcomer
      is admitted at rate 0 and reported through {!stats.starved} — the
      operation never raises for lack of capacity.
    - {!degrade} / {!restore}: a node's measured upload capacity changes
      without any membership change (congestion, throttling, recovery).
      The node is moved to its sorted position within its class, its
      outgoing edges are scaled down to the new cap when necessary, and
      every reception deficit in the overlay is refilled from spare
      capacity in topological order — so a restore also heals nodes
      starved by an earlier degrade.

    All patch operations touch [O(degree)] edges where a rebuild re-wires
    the whole swarm; the churn experiments (E13/E14) and the
    fault-injection engine ({!Churn.Engine}) measure exactly this gap and
    the throughput cost of patching versus rebuilding. *)

type delta = {
  full : bool;
      (** the whole overlay may have changed ({!rebuild}); consumers must
          fall back to full scans and ignore the other fields *)
  identity : bool;
      (** [node_map] is the identity — no renumbering happened, so node
          ids (and any id-keyed consumer state) are stable across the
          event; newly admitted nodes, if any, are appended at the end.
          Meaningful only when [full] is [false]. This is the fast case
          that lets {!Scheme.apply_delta} keep the frozen snapshot warm:
          a guarded join landing last in its class, or a
          degrade/restore whose class re-sort is a no-op. *)
  touched : int array;
      (** post-event ids of every node whose bandwidth or incident edge
          set changed, sorted ascending — renaming alone does not touch
          a node. The certificate-trusting auditor re-checks exactly
          these rows. *)
}
(** Structured account of what an operation disturbed — the contract that
    lets downstream layers (snapshot patching, the churn auditor's
    certificate level, warm flow maintenance) do O(touched) work per
    event instead of rescanning O(V+E) state. *)

val full_delta : delta
(** The everything-may-have-changed delta ([full = true], nothing
    [touched]) — what {!rebuild} reports, and the conservative default
    for consumers handed no repair stats. *)

type stats = {
  patch_edges : int;
      (** edge changes performed by the local repair: the edges of the
          departed nodes, plus every edge the repair logged whose final
          weight differs from its pre-repair one ({!Overlay.edge_changed})
          — counted from the repair's own log, never by diffing graphs *)
  rate_after : float;
      (** throughput of the patched overlay, measured through the scheme's
          memoized report (the CSR structured fast path on acyclic
          overlays — no fresh max-flow per operation) *)
  optimal_after : float;
      (** the rate a fresh {!Overlay.build} of the new instance would
          target ({!Overlay.optimal_rate}: the optimal acyclic rate backed
          off by [4 eps], 0 when the instance admits no positive rate) —
          computed by the rate-only search, no overlay is built *)
  starved : int list;
      (** non-source nodes whose incoming rate remains below the overlay's
          target rate (beyond a [1e-6] relative slack) after the repair —
          empty on a nominal patch. A join on a saturated overlay reports
          the newcomer here instead of raising. *)
  node_map : int array;
      (** renumbering performed by the repair: [node_map.(v)] is the
          index the pre-repair node [v] carries in the repaired overlay,
          or [-1] if it departed. Every operation renumbers (instances
          stay bandwidth-sorted within classes); warm consumers —
          {!Flowgraph.Maxflow.Incremental} behind the churn engine's
          incremental audit — use this map to carry state across the
          event. Identity for {!rebuild}. *)
  delta : delta;
      (** what the event disturbed, for delta-scoped consumers; a
          {!rebuild} reports [delta.full = true] *)
}

val leave : Overlay.t -> node:int -> Overlay.t * stats
(** [leave o ~node] removes node [node] (an index in the overlay's
    instance, not the source) and patches the overlay. The returned
    overlay is {!Overlay.well_formed}; its scheme keeps the original
    target rate and carries [Scheme.Repaired] provenance (collapsed to a
    single wrapping layer across successive repairs, with no degree
    promise). Raises [Invalid_argument] on the source, an out-of-range
    index, or when the overlay has a single receiver left. *)

val leave_batch : Overlay.t -> nodes:int list -> Overlay.t * stats
(** [leave_batch o ~nodes] removes every node of [nodes] in one event and
    patches the survivors once, in topological order. Equivalent to (but
    cheaper and less churn-prone than) a sequence of {!leave}s.
    Raises [Invalid_argument] on an empty list, duplicates, the source, an
    out-of-range index, or when fewer than two nodes would survive. *)

val join :
  Overlay.t ->
  bandwidth:float ->
  cls:Platform.Instance.node_class ->
  Overlay.t * stats
(** [join o ~bandwidth ~cls] inserts a new node of the given class. The
    node is placed at its sorted position in the instance (so a later
    rebuild sees a sorted instance) but fed last. When no node has spare
    upload capacity the newcomer is admitted at rate 0 and listed in
    {!stats.starved} — saturation is a reported condition, not an error.
    Raises [Invalid_argument] on negative or non-finite bandwidth. *)

val degrade : Overlay.t -> node:int -> bandwidth:float -> Overlay.t * stats
(** [degrade o ~node ~bandwidth] lowers [node]'s upload capacity to
    [bandwidth] (which must not exceed its current bandwidth). The node
    keeps its identity: it is moved to its sorted position within its
    class, its outgoing edges are scaled down proportionally when they
    exceed the new cap, and the resulting reception deficits are refilled
    from spare capacity in topological order. Children that cannot be
    refilled are reported through {!stats.starved}. Degrading the source
    to 0 is rejected (the instance would not admit any broadcast);
    otherwise raises [Invalid_argument] on an out-of-range node, a
    negative, non-finite or increased bandwidth. *)

val restore : Overlay.t -> node:int -> bandwidth:float -> Overlay.t * stats
(** [restore o ~node ~bandwidth] raises [node]'s upload capacity to
    [bandwidth] (which must be at least its current bandwidth) and uses
    the recovered spare capacity to refill any node still starved, in
    topological order — the healing converse of {!degrade}. Raises
    [Invalid_argument] on an out-of-range node or a decreased bandwidth. *)

val rebuild : ?headroom:float -> Overlay.t -> Overlay.t * stats
(** [rebuild o] re-runs the full Theorem 4.1 pipeline on the overlay's
    instance — the expensive alternative the patch operations are
    measured against. [patch_edges] is the {!Overlay.edge_distance}
    between the two overlays' frozen snapshots; the result carries fresh
    [Scheme.Theorem41] provenance.

    By default the rebuild targets the instance's optimal acyclic rate,
    leaving zero spare upload capacity — so the next [join] necessarily
    admits its newcomer at rate 0. [headroom] (in (0, 1]) instead targets
    that fraction of the optimum, trading throughput for patch capacity;
    [stats.optimal_after] still reports the true optimum, so the
    post-rebuild ratio is honestly [headroom], not 1. Raises
    [Invalid_argument] on a headroom outside (0, 1]. *)

val rebuild_distance : before:Overlay.t -> Overlay.t -> stats -> int
(** [rebuild_distance ~before patched stats] is the edge churn a full
    re-optimization would have cost instead of the patch that turned
    [before] into [patched] with [stats]: the edges of the departed nodes
    plus the {!Overlay.edge_distance} between [before]'s graph, renumbered
    through [stats.node_map], and a fresh {!Overlay.build} of [patched]'s
    instance. When that build raises [Invalid_argument] there is no
    alternative and the result is [stats.patch_edges]. Builds a whole
    overlay: an on-demand measurement for experiments, never paid by the
    serving path. *)
