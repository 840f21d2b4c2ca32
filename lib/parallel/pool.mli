(** Fixed-size pool of OCaml 5 domains for deterministic data
    parallelism.

    A pool owns [domains - 1] worker domains (the calling domain is
    the remaining participant), created once and reused across many
    batches — spawning a domain costs far more than dispatching a
    batch, so the expensive loops of this repository (replication
    fan-outs, multiplexer source advances) share one pool per
    process.

    Every combinator is {e deterministic}: work item [i] always runs
    the same closure, results land in slot [i], and any reduction is
    performed on the calling domain in fixed item order. The number
    of domains therefore never changes a result, only the wall-clock
    time — a pool of size 1 executes the identical arithmetic
    sequentially. This is what lets the simulation layers guarantee
    bit-identical estimates for any [--domains] setting. *)

type t
(** A pool handle. Values of this type are safe to share between
    batches but batches must be submitted from one domain at a time
    (the library never submits concurrently). *)

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains.
    [domains = 1] is a valid degenerate pool that runs everything on
    the caller. @raise Invalid_argument if [domains < 1] or
    [domains > 128]. *)

val size : t -> int
(** Number of participating domains (workers + caller). *)

val shutdown : t -> unit
(** Join and release the worker domains. Idempotent. Using the pool
    after shutdown raises [Invalid_argument]. *)

val with_pool : domains:int -> (t option -> 'a) -> 'a
(** [with_pool ~domains f] runs [f (Some pool)] with a fresh pool
    when [domains > 1], or [f None] when [domains <= 1] (the
    sequential path), and shuts the pool down afterwards even on
    exceptions. *)

val env_domains : unit -> int
(** Domain count requested by the [SS_DOMAINS] environment variable;
    1 (sequential) when unset, empty or not a positive integer. *)

val run : t -> (unit -> 'a) array -> 'a array
(** [run t thunks] executes every thunk exactly once across the
    pool's domains and returns the results in input order. If any
    thunk raises, all thunks still execute, and the exception of the
    {e lowest-indexed} failing thunk is re-raised (deterministic
    regardless of scheduling). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] is [run] over [fun () -> f xs.(i)]; order
    preserved. *)

val static_for : t -> n:int -> (int -> unit) -> unit -> unit
(** [static_for t ~n f] precompiles a batch that runs [f i] once for
    every [0 <= i < n] (one item per index) and returns a reusable
    trigger: calling it dispatches the batch without rebuilding the
    [n] item closures — for hot loops that fan out over the same range thousands of
    times. Same determinism contract as {!run}; [f] must only write
    to disjoint-per-index locations. The trigger must not be invoked
    concurrently with itself or other batches, and raises
    [Invalid_argument] after {!shutdown}.
    @raise Invalid_argument if [n <= 0]. *)
