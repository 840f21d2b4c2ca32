(** Pull-based streaming VBR traffic sources.

    A source yields one arrival (work, e.g. bytes) per multiplexer
    slot, on demand, together with a strict-priority class for that
    slot (0 = highest; the composite MPEG source can put I frames in
    a higher class than P/B frames). Sources built from fitted models
    ({!of_model}, {!of_mpeg}) stream in O(order) resident memory: the
    background Gaussian process runs Hosking's Durbin–Levinson
    recursion exactly up to lag [order], then continues with the
    frozen AR([order]) filter over a sliding window — the streaming
    form of {!Ss_fractal.Hosking.generate_truncated}, so dependence
    is exact up to lag [order] and AR-approximated beyond, with no
    full-trace materialization. This is what lets [vbrsim mux
    --sources N] multiplex many long heterogeneous sources without
    O(N * slots) memory.

    Every source also exposes a {e block} pull ({!next_block}) that
    fills preallocated buffers many slots at a time. Model-backed
    sources implement it natively (cache-blocked AR kernel, or an
    FFT-exact materialized path); for hand-rolled pull functions a
    default adapter loops the scalar pull. Scalar and block pulls
    drain the same underlying stream, so they can be interleaved
    freely and produce bit-identical slot sequences. *)

exception End_of_stream
(** Raised by a pull function when the source has no further slots —
    a *clean departure*, not an error: {!Mux.run} catches it, retires
    the source and continues the run with the remaining sources
    (recording the departure slot in the report). Finite sources
    ({!of_array} with [cycle:false], model sources with a [horizon])
    raise it on exhaustion. *)

type ckpt = { ck_save : Ss_checkpoint.W.t -> unit; ck_restore : Ss_checkpoint.R.t -> unit }
(** Checkpoint capability of a source: [ck_save] serializes the pull
    state, [ck_restore] overwrites it in place such that the stream
    continues bit-for-bit from the saved slot. *)

type lane
(** The state an exact streaming model source exposes to {!next_blocks}
    so that several such sources can be pulled as lanes of one
    lock-step group: its {!Ss_fractal.Hosking.Block} generator, its
    generator of innovations, its remaining horizon, the twist pass of
    an importance-sampling source and its marginal transform. Opaque;
    only {!of_model} and {!of_model_twisted} build one. *)

type t = private {
  name : string;
  mean : float;  (** nominal per-slot mean arrival (model bookkeeping) *)
  sigma2 : float;  (** nominal per-slot marginal variance *)
  hurst : float;  (** Hurst parameter of the underlying model *)
  pull : unit -> float * int;  (** next slot's (work, priority class) *)
  pull_block : float array -> int array -> int -> int -> int;
      (** [pull_block wbuf cbuf off len] fills
          [wbuf.(off .. off+len-1)] with the next [len] slots' work
          and [cbuf] likewise with their classes, returning the
          number of slots actually filled. A short count means the
          source departed cleanly after that many slots (the block
          analogue of {!End_of_stream}; subsequent calls return 0).
          Must raise [Invalid_argument] when the range falls outside
          either buffer. *)
  ckpt : ckpt option;
      (** Checkpoint support; [None] for hand-rolled pulls that did
          not supply one (such sources refuse {!save}). All built-in
          constructors except the importance-sampling variants
          provide it. *)
  lane : lane option;
      (** [Some] only for {!of_model} sources on the [`Hosking]
          backend with the [`Exact] kernel and for
          {!of_model_twisted} sources; {!make} (and so every
          wrapper built on it — [Fault.wrap], timing or recording
          wrappers) sets [None]. The record is private, so a lane
          always belongs to the [pull_block] it was built with. See
          {!next_blocks}. *)
}
(** A source. Read its fields freely; build one with {!make} or the
    constructors below. *)

type backend = [ `Hosking | `Davies_harte ]
(** Background-synthesis backend for model sources. [`Hosking]
    (default) streams the truncated Durbin–Levinson recursion —
    open-ended, O(order) memory, exact to lag [order]. [`Davies_harte]
    materializes the whole fixed-[horizon] background path exactly
    (every lag, not just the first [order]) in O(horizon log horizon)
    via circulant embedding; it requires [~horizon] and the source
    departs cleanly when the horizon is exhausted. *)

type kernel = [ `Exact | `Fft ]
(** Streaming-synthesis kernel for model sources. [`Exact] (default)
    keeps every committed fixture bitwise: single-accumulator AR dot
    kernel, erf-backed [normal_cdf]. [`Fft] runs the overlap-save FFT
    block kernel ({!Ss_fractal.Hosking.Fft_plan}): the frozen AR
    filter's contribution beyond the first partition of lags is
    computed spectrally per block of
    {!Ss_fractal.Hosking.Fft_plan.partition} slots, breaking the
    O(order)-per-slot ceiling — amortized
    O(order/partition + log partition + partition) per slot. It is
    statistically equivalent to (and gated against) the exact tier
    but seed-incompatible with it, and it uses the erf-free marginal
    transform ({!Ss_fractal.Transform.relax}). Only the streaming
    [`Hosking] backend is affected; the Davies–Harte backend ignores
    the kernel for the background (the transform choice still
    applies). *)

val make :
  ?pull_block:(float array -> int array -> int -> int -> int) ->
  ?ckpt:ckpt ->
  name:string ->
  mean:float ->
  sigma2:float ->
  hurst:float ->
  (unit -> float * int) ->
  t
(** Wrap an arbitrary pull function. When [pull_block] is omitted, a
    default block implementation loops the scalar pull (bit-identical
    by construction); when supplied, the caller must guarantee the
    two pulls drain one shared stream. [ckpt] (default [None])
    declares checkpoint support for the wrapped state.
    @raise Invalid_argument if [mean < 0], [sigma2 < 0] or [hurst]
    outside (0,1). *)

val supports_checkpoint : t -> bool
(** Whether {!save}/{!restore} are available on this source. *)

val save : t -> Ss_checkpoint.W.t -> unit
(** Serialize the source's pull state (name-stamped). O(order) for
    streaming model sources; O(1) for materializing backends, whose
    path is regenerated from the recorded initial generator state on
    the first post-restore pull.
    @raise Invalid_argument if the source has no {!ckpt}. *)

val restore : t -> Ss_checkpoint.R.t -> unit
(** Overwrite the pull state in place from a {!save}d snapshot taken
    on an identically-constructed source; the stream continues
    bit-for-bit.
    @raise Ss_checkpoint.Corrupt on name or structure mismatch.
    @raise Invalid_argument if the source has no {!ckpt}. *)

val next : t -> float * int
(** Pull the next slot's arrival. *)

val next_block : t -> float array -> int array -> off:int -> len:int -> int
(** [next_block t wbuf cbuf ~off ~len] is
    [t.pull_block wbuf cbuf off len]. *)

val next_blocks :
  t array ->
  skip:bool array ->
  lo:int ->
  hi:int ->
  float array ->
  int array ->
  stride:int ->
  len:int ->
  filled:int array ->
  unit
(** [next_blocks sources ~skip ~lo ~hi wbuf cbuf ~stride ~len ~filled]
    pulls one block from every source [i] in [\[lo, hi)] with
    [skip.(i) = false]: bitwise, it is the loop
    [filled.(i) <- next_block sources.(i) wbuf cbuf ~off:(i * stride) ~len]
    in index order, with the same buffer contents, counts (short ones
    included: a short count is a departure) and source states
    afterwards. [filled.(i)] is left alone where [skip.(i)].

    Sources with a {!lane} ({!of_model} on [`Hosking]/[`Exact], and
    {!of_model_twisted}) whose horizon leaves at least [len] slots are
    pulled together through {!Ss_fractal.Hosking.Block.fill_many},
    four AR chains in lock-step, and then each through its twist pass
    (innovations to its probe, then the shift) and its marginal
    transform. A lane source's probe therefore sees its slots in
    order, but after the whole group's AR pass rather than during its
    own pull. Every other source — {!of_array}, FFT or Davies–Harte
    kernels, {!of_mpeg} and any source wrapped by {!make}
    (fault injection, timing wrappers) — is pulled on its own through
    {!next_block}, as is a range holding fewer than four
    lane sources or one source twice. The equality assumes sources
    share no mutable state (no generator is shared by two sources),
    the same requirement a sharded {!Mux.run} already makes.
    @raise Invalid_argument if [\[lo, hi)] does not fit the arrays,
    [len < 0] or [stride < len]. *)

val of_array : ?name:string -> ?hurst:float -> ?cycle:bool -> float array -> t
(** Replay a materialized arrival array (e.g. a loaded trace) slot by
    slot, class 0. [mean]/[sigma2] are the array's sample moments;
    [hurst] defaults to 0.5 (no a-priori LRD claim). With
    [cycle:false] (default) pulling past the end raises
    {!End_of_stream} (a clean departure under {!Mux.run}); with
    [cycle:true] the array repeats. The block path blits array
    segments directly.
    @raise Invalid_argument on an empty array. *)

val of_model :
  ?name:string ->
  ?order:int ->
  ?backend:backend ->
  ?kernel:kernel ->
  ?horizon:int ->
  Ss_core.Model.t ->
  Ss_stats.Rng.t ->
  t
(** Stream the unified model's foreground process (marginal transform
    of the streaming background), class 0. [order] (default 512) is
    the exact-recursion depth / frozen AR order; resident memory and
    per-slot cost are O(order). The Hosking table is cached per
    (background ACF, order), so N same-model sources share one table.
    [mean] is the model's foreground mean; [sigma2] the transform's
    marginal variance ({!Ss_fractal.Transform.mean_variance}, computed
    once per transform). The foreground
    value is clamped at zero (histogram-inverse transforms can dip
    slightly negative in the far tail; {!Mux.run} rejects negative
    work).

    With [backend:`Davies_harte] the background is synthesized
    exactly over the whole (mandatory) [horizon] by circulant
    embedding — see {!backend}. With a [horizon] under the default
    [`Hosking] backend the source simply departs after that many
    slots. [kernel] (default [`Exact]) selects the streaming tier —
    see {!kernel}.
    @raise Invalid_argument if [order < 1] or [order > 19_999], if
    [horizon < 1], or if [`Davies_harte] is requested without
    [horizon]. *)

val of_model_twisted :
  ?name:string ->
  ?order:int ->
  shift:(int -> float) ->
  ?probe:(k:int -> innovation:float -> unit) ->
  Ss_core.Model.t ->
  Ss_stats.Rng.t ->
  t
(** Importance-sampling variant of {!of_model}: the background
    Gaussian process is generated under the mean-shifted law
    [X'_k = X_k + shift k]. The history kept for the conditional
    means stores the *untwisted* values and the innovations drawn are
    those of the untwisted recursion — exactly the sampling scheme of
    [Ss_fastsim.Is_estimator.replicate] — so a
    [Ss_fastsim.Likelihood] streaming accumulator fed those
    innovations in slot order reconstructs the exact log likelihood
    ratio of the path. [probe] is called once per slot as the slot is
    pulled, with the global slot index [k] and the innovation, before
    the shifted value is emitted. A {!Mux.run} pulls a whole staged
    block, up to [Mux.probe_block] slots, ahead of the slot its own
    probe sees, so {!Mux_is} logs the innovations in a ring of that
    length and steps the accumulators from the mux probe, where a
    first-passage stop cuts them at the right slot. With [shift = fun _ ->
    0.0] the emitted arrivals are bit-identical to {!of_model} on the
    same generator state, at any block split. Always runs the exact
    {!Ss_fractal.Hosking.Block} kernel: the likelihood accumulator
    needs the per-step innovations, which neither the materializing
    Davies–Harte backend nor the reassociating FFT kernel produces.
    Twisted sources join {!next_blocks} lane groups like exact
    {!of_model} sources. Not checkpointable (the likelihood state
    lives outside the source). *)

val of_mpeg :
  ?name:string ->
  ?order:int ->
  ?backend:backend ->
  ?kernel:kernel ->
  ?horizon:int ->
  ?phase:int ->
  ?priority:bool ->
  Ss_core.Mpeg.t ->
  Ss_stats.Rng.t ->
  t
(** Stream the Section-3.3 composite I/B/P process: slot [t] applies
    the transform of the frame kind at GOP position [phase + t]
    (clamped at zero, as {!Ss_core.Mpeg.arrival_fn} does). [phase]
    (default 0) staggers GOP alignment across sources. With
    [priority:true], I frames are class 0, P class 1, B class 2;
    otherwise every slot is class 0. [mean]/[sigma2] are the
    GOP-pattern-averaged per-slot moments. [backend]/[kernel]/
    [horizon] govern the background synthesis exactly as in
    {!of_model} (under [`Fft] the three per-kind transforms are
    relaxed once up front, not per slot).
    @raise Invalid_argument if [phase < 0], [order] out of range,
    [horizon < 1], or a materializing backend without [horizon]. *)

val table_for : acf:Ss_fractal.Acf.t -> order:int -> Ss_fractal.Hosking.Table.t
(** The cached Hosking table backing model sources at this (ACF,
    order) pair — the table a streaming likelihood accumulator must
    be planned against. It is {!Ss_fractal.Plan_cache.table}: safe
    from any domain, keyed by the ACF's values, not its name.
    @raise Invalid_argument if [order < 1] or [order > 19_999]. *)

val fft_plan_for : acf:Ss_fractal.Acf.t -> order:int -> Ss_fractal.Hosking.Fft_plan.t
(** The cached overlap-save convolution plan backing [`Fft]-kernel
    model sources at this (ACF, order) pair
    ({!Ss_fractal.Plan_cache.fft_plan}). Plans are immutable and
    shared freely across sources and domains.
    @raise Invalid_argument if [order < 1] or [order > 19_999]. *)

type cache_stats = Ss_fractal.Plan_cache.stats = { hits : int; misses : int; evictions : int }
(** Cumulative per-cache counters: [hits] lookups served from the
    cache (including waiters who picked up a concurrent builder's
    entry), [misses] lookups that had to build, [evictions] entries
    dropped by LRU pressure (capacity shrinks included). *)

val cache_stats : unit -> (string * cache_stats) list
(** Counters for every process-wide plan/table cache, keyed
    ["hosking-table"], ["davies-harte-plan"], ["hosking-fft-plan"]
    ({!Ss_fractal.Plan_cache.stats}). Counters are monotone for the
    process lifetime — diff two snapshots to measure a phase (the
    throughput bench prints exactly that). *)
