(* Quickstart: synthesize a "movie", fit the unified self-similar
   model to it, and generate statistically equivalent traffic.

     dune exec examples/quickstart.exe *)

module Rng = Ss_stats.Rng
module D = Ss_stats.Descriptive
module Scene = Ss_video.Scene_source
module Trace = Ss_video.Trace
module Gop = Ss_video.Gop

let () =
  (* 1. A two-minute intraframe-coded VBR video source (the library's
     stand-in for a real MPEG-1 trace). *)
  let rng = Rng.create ~seed:15 in
  let config =
    { Scene.default with frames = 16_384; gop = Gop.of_string "I" }
  in
  let movie = Scene.generate config rng in
  Format.printf "--- reference trace ---@.%a@." Trace.pp_summary (Trace.summarize movie);

  (* 2. Fit the paper's unified model: Hurst estimation, composite
     SRD+LRD autocorrelation fit, attenuation compensation. *)
  let model, diagnostics = Ss_core.Fit.fit ~max_lag:150 movie.Trace.sizes in
  Format.printf "--- fitted model ---@.%a@." Ss_core.Report.pp_diagnostics diagnostics;

  (* 3. Generate a synthetic trace with the same marginal distribution
     and both short- and long-range dependence. *)
  let synthetic =
    Ss_core.Generate.foreground model ~n:16_384 (Rng.create ~seed:7)
  in
  Format.printf "--- synthetic vs reference ---@.";
  Format.printf "mean   %8.0f  vs %8.0f bytes/frame@." (D.mean synthetic) (D.mean movie.Trace.sizes);
  Format.printf "std    %8.0f  vs %8.0f@." (D.std synthetic) (D.std movie.Trace.sizes);
  let rs = D.acf synthetic ~max_lag:100 and re = D.acf movie.Trace.sizes ~max_lag:100 in
  List.iter
    (fun k -> Format.printf "r(%3d) %8.3f  vs %8.3f@." k rs.(k) re.(k))
    [ 1; 10; 50; 100 ]
