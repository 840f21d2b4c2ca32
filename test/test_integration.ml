(* Cross-module integration tests: the full Section-3.2 pipeline
   (fit -> compensate -> generate -> compare), the Section-3.3
   composite pipeline, and agreement between plain-MC, trace-driven
   and importance-sampled queueing estimates. These are the
   repository's "does the paper's story actually hold" checks. *)

module Rng = Ss_stats.Rng
module D = Ss_stats.Descriptive
module Empirical = Ss_stats.Empirical
module Acf_fit = Ss_fractal.Acf_fit
module Hurst = Ss_fractal.Hurst
module Trace = Ss_video.Trace
module Scene = Ss_video.Scene_source
module Gop = Ss_video.Gop
module Mc = Ss_queueing.Mc
module Trace_sim = Ss_queueing.Trace_sim
module Is = Ss_fastsim.Is_estimator
module Model = Ss_core.Model
module Fit = Ss_core.Fit
module Generate = Ss_core.Generate
module Mpeg = Ss_core.Mpeg

let close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Shared fixtures: one intraframe reference (32k frames) and its
   fitted model. *)
let reference =
  lazy
    (Scene.generate
       { Scene.default with frames = 32_768; gop = Gop.of_string "I" }
       (Rng.create ~seed:15))

let fitted = lazy (Fit.fit ~max_lag:150 (Lazy.force reference).Trace.sizes)

(* ------------------------------------------------------------------ *)
(* Section 3.2 end-to-end                                               *)
(* ------------------------------------------------------------------ *)

let test_pipeline_acf_match_short_lags () =
  (* Fig 8's claim: the synthetic foreground ACF tracks the empirical
     one. Check the SRD region (lags 1..40) tightly and mid lags
     loosely (long lags suffer the LRD sample-ACF bias both traces
     share only in expectation). *)
  let model, _ = Lazy.force fitted in
  let sizes = (Lazy.force reference).Trace.sizes in
  let synth = Generate.foreground model ~n:32_768 (Rng.create ~seed:21) in
  let re = D.acf sizes ~max_lag:150 in
  let rs = D.acf synth ~max_lag:150 in
  List.iter
    (fun k ->
      if abs_float (re.(k) -. rs.(k)) > 0.12 then
        Alcotest.failf "ACF mismatch at lag %d: %.3f vs %.3f" k re.(k) rs.(k))
    [ 1; 2; 5; 10; 20; 40 ];
  List.iter
    (fun k ->
      if abs_float (re.(k) -. rs.(k)) > 0.2 then
        Alcotest.failf "ACF mismatch at mid lag %d: %.3f vs %.3f" k re.(k) rs.(k))
    [ 80; 120; 150 ]

let test_pipeline_marginal_match () =
  (* Fig 12/13's claim: histogram inversion reproduces the marginal.
     A single LRD path's empirical distribution wanders with the
     path's location, so compare the KS distance averaged over
     independent paths. *)
  let model, _ = Lazy.force fitted in
  let sizes = (Lazy.force reference).Trace.sizes in
  let emp = Empirical.of_data sizes in
  let pooled =
    List.concat_map
      (fun seed ->
        Array.to_list
          (Generate.foreground model ~n:32_768 (Rng.create ~seed)))
      [ 22; 122; 222; 322 ]
    |> Array.of_list
  in
  let ks = Empirical.ks_distance emp (Empirical.of_data pooled) in
  if ks > 0.1 then Alcotest.failf "pooled KS distance too large: %.3f" ks

let test_pipeline_hurst_preserved () =
  (* The synthetic trace must inherit the adopted Hurst parameter
     (Appendix A invariance through the whole pipeline). *)
  let model, _ = Lazy.force fitted in
  let synth = Generate.foreground model ~n:32_768 (Rng.create ~seed:23) in
  let h = (Hurst.variance_time synth).Hurst.h in
  if abs_float (h -. model.Model.hurst) > 0.15 then
    Alcotest.failf "synthetic H %.3f far from adopted %.2f" h model.Model.hurst

let test_pipeline_deterministic () =
  let model, _ = Lazy.force fitted in
  let a = Generate.foreground model ~n:1024 (Rng.create ~seed:24) in
  let b = Generate.foreground model ~n:1024 (Rng.create ~seed:24) in
  Array.iteri (fun i v -> close "reproducible pipeline" v b.(i)) a

(* ------------------------------------------------------------------ *)
(* Section 3.3 composite end-to-end                                     *)
(* ------------------------------------------------------------------ *)

let test_composite_pipeline_matches_reference () =
  let reference = Scene.generate { Scene.default with frames = 36_000 } (Rng.create ~seed:15) in
  let m = Mpeg.fit ~i_max_lag:60 reference in
  let synth = Mpeg.generate m ~n:36_000 (Rng.create ~seed:25) in
  (* Marginals per type (Fig 12): medians within 20%. *)
  List.iter
    (fun k ->
      let want = D.median (Trace.of_kind reference k) in
      let got = D.median (Trace.of_kind synth k) in
      if abs_float (want -. got) /. want > 0.2 then
        Alcotest.failf "%c median: %.0f vs %.0f" (Ss_video.Frame.to_char k) want got)
    [ Ss_video.Frame.I; Ss_video.Frame.P; Ss_video.Frame.B ];
  (* The frame-level ACF oscillates with the GOP in both (Figs 9-11):
     compare at multiples of 12 where both peak. *)
  let re = D.acf reference.Trace.sizes ~max_lag:60 in
  let rs = D.acf synth.Trace.sizes ~max_lag:60 in
  List.iter
    (fun k ->
      if abs_float (re.(k) -. rs.(k)) > 0.25 then
        Alcotest.failf "composite ACF at lag %d: %.3f vs %.3f" k re.(k) rs.(k))
    [ 12; 24; 36; 48; 60 ]

(* ------------------------------------------------------------------ *)
(* Queueing consistency                                                 *)
(* ------------------------------------------------------------------ *)

let test_is_agrees_with_plain_mc_on_model () =
  (* For a moderately rare event the IS estimate (twisted) and plain
     MC (twist 0) must agree within confidence bands. *)
  let model, _ = Lazy.force fitted in
  let mean = model.Model.mean in
  let table = Generate.table model ~n:400 in
  let arrival = Generate.arrival_fn model in
  let service = mean /. 0.7 in
  let buffer = 20.0 *. mean in
  let cfg twist =
    Is.make_config ~table ~arrival ~service ~buffer ~horizon:400 ~twist ()
  in
  let mc = Is.estimate (cfg 0.0) ~replications:3000 (Rng.create ~seed:26) in
  let is = Is.estimate (cfg 1.2) ~replications:3000 (Rng.create ~seed:27) in
  if mc.Mc.hits < 10 then Alcotest.failf "event too rare for this check: %d hits" mc.Mc.hits;
  let band e = 4.0 *. sqrt (e.Mc.variance /. float_of_int e.Mc.replications) in
  close ~eps:(band mc +. band is) "IS vs MC" mc.Mc.p is.Mc.p

let test_model_queueing_tracks_trace_queueing () =
  (* Fig 16's core claim: overflow curves from the synthetic model
     track the ones from the trace itself, at least in order of
     magnitude, at moderate utilization. *)
  let model, _ = Lazy.force fitted in
  let sizes = (Lazy.force reference).Trace.sizes in
  let mean = model.Model.mean in
  let utilization = 0.8 in
  (* Trace side: single long run. *)
  let qp = Trace_sim.queue_path ~arrivals:sizes ~utilization in
  let b_abs = 20.0 *. mean in
  let p_trace = Trace_sim.overflow_fraction ~queue_path:qp ~buffer:b_abs in
  (* Model side: transient probability at a long horizon approximates
     steady state. *)
  let table = Generate.table model ~n:600 in
  let cfg =
    Is.make_config ~table ~arrival:(Generate.arrival_fn model) ~service:(mean /. utilization)
      ~buffer:b_abs ~horizon:600 ~twist:0.8 ()
  in
  let p_model = (Is.estimate cfg ~replications:2000 (Rng.create ~seed:28)).Mc.p in
  if p_trace <= 0.0 then Alcotest.fail "trace never overflows at uti 0.8 b=20";
  let ratio = p_model /. p_trace in
  if ratio < 0.1 || ratio > 10.0 then
    Alcotest.failf "model (%.3g) vs trace (%.3g) overflow differ by >10x" p_model p_trace

let test_srd_only_decays_faster () =
  (* Fig 17's claim is a shape: the SRD-only overflow curve decays
     faster with buffer size than the SRD+LRD one, so the ratio
     p_srd / p_full must shrink as the buffer grows (the curves are
     close at small buffers and diverge at large ones). *)
  let model, diag = Lazy.force fitted in
  let mean = model.Model.mean in
  let srd_model =
    Model.with_dependence model (Model.Srd_only diag.Fit.raw_fit.Acf_fit.lambda)
  in
  let service = mean /. 0.6 in
  let p_of m buffer_norm seed =
    let horizon = int_of_float (10.0 *. buffer_norm) in
    let table = Generate.table m ~n:horizon in
    let cfg =
      Is.make_config ~table ~arrival:(Generate.arrival_fn m) ~service
        ~buffer:(buffer_norm *. mean) ~horizon ~twist:1.5 ()
    in
    (Is.estimate cfg ~replications:1500 (Rng.create ~seed)).Mc.p
  in
  let ratio b = p_of srd_model b 30 /. p_of model b 29 in
  let small = ratio 10.0 and large = ratio 80.0 in
  if Float.is_nan small || Float.is_nan large then Alcotest.fail "no hits at some buffer";
  if large >= small then
    Alcotest.failf "SRD-only/full ratio did not shrink with buffer: %.3g -> %.3g" small large

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "integration"
    [
      ( "section-3.2",
        [
          tc "ACF match" test_pipeline_acf_match_short_lags;
          tc "marginal match" test_pipeline_marginal_match;
          tc "Hurst preserved" test_pipeline_hurst_preserved;
          tc "deterministic" test_pipeline_deterministic;
        ] );
      ("section-3.3", [ tc "composite matches reference" test_composite_pipeline_matches_reference ]);
      ( "section-4",
        [
          tc "IS agrees with MC" test_is_agrees_with_plain_mc_on_model;
          tc "model tracks trace queueing" test_model_queueing_tracks_trace_queueing;
          tc "SRD-only decays faster" test_srd_only_decays_faster;
        ] );
    ]
