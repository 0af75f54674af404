(** Algorithm 2 of the paper ([GreedyTest]): linear-time feasibility of a
    target throughput on instances with open and guarded nodes, and the
    dichotomic search built on it for the optimal acyclic throughput
    [T*ac] (Theorem 4.1).

    The algorithm extends a conservative partial solution one node at a
    time, greedily preferring a guarded node (□) and falling back to an
    open node (©) when taking □ is impossible ([O(pi) < T]) or would make
    it impossible to continue ([O + G + b_next < 2 T]); a dedicated rule
    applies when a single guarded node remains, where the larger of the
    next two bandwidths is preferred. By Lemma 4.5 the algorithm returns a
    valid word iff [T <= T*ac].

    Every function below runs the same single loop over unboxed
    accumulators: a feasibility probe allocates nothing, and only the
    witness word and Table I's trace are materialized, on request. *)

type decision = {
  letter : Platform.Instance.node_class;  (** letter appended at this step *)
  state : Word.state;  (** accounting after the step — Table I's columns *)
}

val feasible : Platform.Instance.t -> rate:float -> bool
(** [feasible inst ~rate] is [test inst ~rate <> None] without building
    the word: one linear pass with a constant number of allocated words,
    whatever the instance size. Requires a sorted instance and
    [rate > 0] ([Invalid_argument] otherwise). *)

val test : Platform.Instance.t -> rate:float -> Word.t option
(** [test inst ~rate] is [Some w] with [w] a valid word for throughput
    [rate] if [rate <= T*ac inst] (within {!Util} tolerance), [None]
    otherwise. Linear time. Requires a sorted instance. *)

val test_trace : Platform.Instance.t -> rate:float -> Word.t option * decision list
(** Like {!test}, also returning the per-step decisions and accounting
    actually explored (Table I of the paper). On failure the trace covers
    the steps performed before the algorithm aborted. *)

val optimal_rate : Platform.Instance.t -> float
(** [optimal_rate inst] is the optimum {!optimal_acyclic} returns, bit for
    bit, without the witness word: the same dichotomic search over
    allocation-free {!feasible} probes. It is 0 on a degenerate instance
    whose [cyclic_upper] is not positive (e.g. a zero-bandwidth source).
    Same requirements as {!optimal_acyclic}; its [Invalid_argument]
    messages name [Greedy.optimal_rate]. *)

val optimal_acyclic : ?iterations:int -> Platform.Instance.t -> float * Word.t
(** [optimal_acyclic inst] is [(T*ac, w)] with [w] a witness word
    achieving it, found by bisecting [\[0, cyclic_upper inst\]]
    ([iterations] bisections, default 100; {!Util.dichotomic_search}
    stops earlier once the bracket closes) and then one witness run at the
    optimum. Requires a sorted instance with at least one non-source
    node. *)
