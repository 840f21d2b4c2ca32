(** Process-wide caches of the per-ACF synthesis tables and plans:
    Hosking tables, overlap-save FFT plans and Davies–Harte plans.

    Every entry is keyed by a structural fingerprint of the ACF (its
    values on a fixed grid of lags up to the order or length) together
    with that order or length — never by the ACF's name, so two
    distinct ACFs that share a name get distinct entries. Each cache
    is a bounded LRU (default 16 entries) under a mutex. Entries are
    deterministic functions of their key, so eviction only costs a
    rebuild: a re-fit after eviction is bit-identical.

    Lookups are safe from any domain. A build runs outside the lock,
    so distinct keys fit concurrently on a cold start, and same-key
    racers wait for the first build instead of duplicating it:
    concurrent lookups of one key return one physically equal
    value. *)

val table : acf:Acf.t -> order:int -> Hosking.Table.t
(** The cached [Hosking.Table.make ~acf ~n:(order + 1)]: exact rows
    up to lag [order].
    @raise Invalid_argument if [order < 0] or [order > 19_999], or
    if the ACF is not positive definite up to lag [order]. *)

val fft_plan : acf:Acf.t -> order:int -> Hosking.Fft_plan.t
(** The cached overlap-save plan for the frozen AR([order]) filter.
    A cold lookup goes through {!table}, so it may also populate the
    table cache.
    @raise Invalid_argument if [order < 1] or [order > 19_999]. *)

val dh_plan : acf:Acf.t -> n:int -> Davies_harte.plan
(** The cached Davies–Harte plan for paths of length [n].
    @raise Invalid_argument if [n < 1] or the ACF is not embeddable
    at this length (see {!Davies_harte.plan}). *)

val set_table_capacity : int -> unit
(** Bound on the number of Hosking tables retained (default 16).
    Lowering the capacity evicts immediately.
    @raise Invalid_argument if the capacity is [< 1]. *)

val table_count : unit -> int
(** Number of Hosking tables currently cached. *)

type stats = { hits : int; misses : int; evictions : int }
(** Cumulative counters of one cache: [hits] lookups served from the
    cache (waiters who picked up a concurrent builder's entry
    included), [misses] lookups that had to build, [evictions]
    entries dropped by LRU pressure (capacity shrinks included). *)

val stats : unit -> (string * stats) list
(** Counters for every cache, keyed ["hosking-table"],
    ["davies-harte-plan"] and ["hosking-fft-plan"]. Counters are
    monotone for the process lifetime. *)
