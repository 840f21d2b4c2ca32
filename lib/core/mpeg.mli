(** Composite modeling of interframe-compressed MPEG video (paper
    Section 3.3).

    The pipeline: (1) isolate the I frames of a reference trace and
    fit the unified model to them (Section 3.2 applied at I-frame
    granularity); (2) rescale the fitted I-frame autocorrelation to
    the full frame timeline by the I-frame period, [r(k) =
    r_I(k / K_I)] (Eq 15); (3) build the three per-type histogram
    transforms; (4) drive all three from one background process. *)

type t = {
  i_model : Model.t;  (** unified model fitted on the I subsequence *)
  i_diag : Fit.diagnostics;
  composite : Ss_video.Composite.t;  (** per-type transforms *)
  background : Ss_fractal.Acf.t;
      (** rescaled + attenuation-compensated full-rate background ACF *)
  gop : Ss_video.Gop.t;
  fps : float;
}

val fit : ?i_max_lag:int -> Ss_video.Trace.t -> t
(** Fit the composite model to a reference trace (default I-frame
    ACF fitted to lag 80, i.e. 960 frame lags under the 12-frame
    GOP). The compensation uses the frame-count-weighted mean
    attenuation of the three transforms. @raise Invalid_argument if
    the trace is too short. *)

val generate : t -> n:int -> Ss_stats.Rng.t -> Ss_video.Trace.t
(** Synthesize [n] frames: one Davies–Harte background path pushed
    through the per-type transforms along the GOP pattern. *)

val background_table : t -> n:int -> Ss_fractal.Hosking.Table.t
(** Hosking table of the rescaled background — for composite-source
    importance sampling. *)

val arrival_fn : t -> Ss_fastsim.Is_estimator.arrival
(** Slot-indexed foreground map [h_{kind i}] for the importance
    sampler. *)
