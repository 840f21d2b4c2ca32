(* The full Section-3.2 workflow in detail: every intermediate the
   paper reports — Hurst estimates from two estimators, the knee fit,
   the attenuation factor from both quadrature and simulation, and
   the quality of the final match.

     dune exec examples/fit_and_generate.exe *)

module Rng = Ss_stats.Rng
module D = Ss_stats.Descriptive
module Empirical = Ss_stats.Empirical
module Hurst = Ss_fractal.Hurst
module Transform = Ss_fractal.Transform
module Acf_fit = Ss_fractal.Acf_fit
module Scene = Ss_video.Scene_source
module Trace = Ss_video.Trace
module Gop = Ss_video.Gop
module Fit = Ss_core.Fit
module Model = Ss_core.Model
module Generate = Ss_core.Generate

let () =
  let movie =
    Scene.generate
      { Scene.default with frames = 65_536; gop = Gop.of_string "I" }
      (Rng.create ~seed:15)
  in
  let sizes = movie.Trace.sizes in

  (* Step 1 by hand: the two Hurst estimators the paper combines. *)
  let vt = Hurst.variance_time sizes in
  let rs = Hurst.rs sizes in
  Format.printf "step 1: variance-time H = %.3f (slope %.4f), R/S H = %.3f@." vt.Hurst.h
    vt.Hurst.fit.Ss_stats.Regression.slope rs.Hurst.h;

  (* Steps 1-4 through the pipeline. *)
  let model, diag = Fit.fit ~max_lag:300 sizes in
  Format.printf "step 2: fitted knee model   %a@." Ss_core.Report.pp_params diag.Fit.raw_fit;
  Format.printf "step 3: attenuation         quadrature a = %.4f@." diag.Fit.attenuation;
  let measured =
    Transform.attenuation_measured
      ~acf:(Acf_fit.to_acf diag.Fit.raw_fit)
      ~n:16_384
      ~lags:(List.init 8 (fun i -> 60 + (30 * i)))
      (Rng.create ~seed:2) model.Model.transform
  in
  Format.printf "                            measured   a = %.4f (paper: 0.94)@." measured;
  Format.printf "step 4: Eq-14 compensation  %a@." Ss_core.Report.pp_params diag.Fit.compensated;
  Format.printf "        (model uses exact Hermite inversion of the response)@.";

  (* Generate and audit the match the paper shows in Figs 8 and 12-13. *)
  let synth = Generate.foreground model ~n:65_536 (Rng.create ~seed:3) in
  let re = D.acf sizes ~max_lag:300 and rsynth = D.acf synth ~max_lag:300 in
  Format.printf "@.lag    empirical  synthetic@.";
  List.iter
    (fun k -> Format.printf "%4d   %8.3f  %8.3f@." k re.(k) rsynth.(k))
    [ 1; 5; 10; 25; 50; 100; 200; 300 ];
  let ks =
    Empirical.ks_distance (Empirical.of_data sizes) (Empirical.of_data synth)
  in
  Format.printf "@.marginal KS distance: %.4f@." ks;
  let hq = (Hurst.variance_time synth).Hurst.h in
  Format.printf "synthetic Hurst (variance-time): %.3f (adopted %.2f)@." hq diag.Fit.h_adopted
