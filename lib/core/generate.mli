(** Synthesis of foreground traffic from a fitted model.

    The background Gaussian path comes from Davies–Harte circulant
    embedding (exact at every lag, O(n log n)); the foreground is the
    marginal transform of the background (Eq 7). The Hosking table
    the importance sampler walks comes from {!table}. *)

val background : Model.t -> n:int -> Ss_stats.Rng.t -> float array
(** A zero-mean unit-variance background path realizing the model's
    compensated autocorrelation. The Davies–Harte plan is cached in
    {!Ss_fractal.Plan_cache}. @raise Invalid_argument if [n <= 0] or
    the embedding fails for this autocorrelation/length. *)

val foreground : Model.t -> n:int -> Ss_stats.Rng.t -> float array
(** [transform (background ...)]: a synthetic frame-size series with
    the model's marginal and dependence. *)

val table : Model.t -> n:int -> Ss_fractal.Hosking.Table.t
(** The Hosking table of length [n] for the model's background ACF,
    from {!Ss_fractal.Plan_cache} (keyed by the ACF's values, not its
    name) — shared by the importance-sampling experiments and by
    model sources of order [n - 1].
    @raise Invalid_argument if [n <= 0] or [n > 20_000]. *)

val arrival_fn : Model.t -> Ss_fastsim.Is_estimator.arrival
(** The per-slot foreground map for the importance sampler: ignores
    the slot index and applies the marginal transform. *)
