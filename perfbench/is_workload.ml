(* is_overflow: the paper's importance-sampled overflow estimator
   (Mux_is) over 16 exact sources. Replications run in fixed chunks,
   each a Fanout over its own seeded substream; a chunk is this
   workload's segment. *)

open Ss_stats
open Ss_mux
open Common

let n_sources = 16
let order = 256
let horizon = 500
let utilization = 0.7
let buffer_per_source = 50.0

(* p recorded at the default seed with --seconds 20. *)
let recorded_p = 0.000399673

(* The twist rule of the mux-is experiment: the background shift whose
   foreground drift carries the queue across the buffer around 60% of
   the horizon (per-source share of service and buffer). *)
let twist_rule ~arrival ~service ~buffer ~horizon =
  let target_rate = service +. (buffer /. (0.6 *. float_of_int horizon)) in
  let mean_at m = Quadrature.gaussian_expectation (fun z -> arrival 0 (z +. m)) in
  let lo = ref 0.0 and hi = ref 8.0 in
  if mean_at !hi < target_rate then !hi
  else begin
    for _ = 1 to 40 do
      let mid = (!lo +. !hi) /. 2.0 in
      if mean_at mid < target_rate then lo := mid else hi := mid
    done;
    (!lo +. !hi) /. 2.0
  end

let config model =
  let mean = model.Ss_core.Model.mean in
  let twist =
    twist_rule ~arrival:(Ss_core.Generate.arrival_fn model) ~service:(mean /. utilization)
      ~buffer:(buffer_per_source *. mean) ~horizon
  in
  Mux_is.make_config ~model ~sources:n_sources ~order
    ~service:(float_of_int n_sources *. mean /. utilization)
    ~buffer:(buffer_per_source *. mean *. float_of_int n_sources)
    ~slots:horizon ~twist ()

let rel95 (e : Ss_queueing.Mc.estimate) =
  if e.p > 0.0 then 1.96 *. sqrt (e.variance /. float_of_int e.replications) /. e.p else infinity

let estimate reps = Ss_queueing.Mc.estimate_of_log_samples (Array.map (fun r -> r.Mux_is.log_weight) reps)
let fingerprint (e : Ss_queueing.Mc.estimate) = Marshal.to_string e [ Marshal.No_sharing ]

let setup_workload ctx inputs =
  let trace = Lazy.force inputs.intra in
  let once () =
    let t0 = Probe.now_ns () in
    let model, _ = Ss_core.Fit.fit_trace trace in
    let t1 = Probe.now_ns () in
    ignore (Ss_fractal.Hosking.Table.make ~acf:(Ss_core.Model.background_acf model) ~n:(order + 1));
    let t2 = Probe.now_ns () in
    let cfg = config model in
    let t3 = Probe.now_ns () in
    let s a b = float_of_int (b - a) *. 1e-9 in
    (cfg, [ ("fit", s t0 t1); ("table", s t1 t2); ("is_config", s t2 t3) ])
  in
  Common.setup ctx once

let chunk_size ctx = if ctx.small then 8 else 64
let nominal_chunk_s = 0.27

let chunk_rngs inputs chunks = Rng.split_n (Rng.copy inputs.is) chunks

let run_chunk ?pool cfg ~k rng = Ss_parallel.Fanout.map ?pool ~rng ~n:k (fun sub _ -> Mux_is.replicate cfg sub)

let source_slots reps =
  float_of_int (n_sources * Array.fold_left (fun a r -> a + r.Mux_is.stop_slot) 0 reps)

let timed ctx inputs ~pool (cfg : Mux_is.config) (setup : setup) =
  let k = chunk_size ctx in
  let chunks = batches ctx ~nominal_s:nominal_chunk_s in
  let rngs = chunk_rngs inputs chunks in
  let reps = ref [] and secs = ref [] and failed = ref 0 and notes = ref [] in
  (* An untimed warm-up chunk first: the first chunk after set-up pays
     heap growth and cold caches. *)
  (match run_chunk ?pool cfg ~k (Rng.copy rngs.(0)) with
  | _ -> ()
  | exception e -> notes := ("warm-up chunk raised " ^ Printexc.to_string e) :: !notes);
  Array.iteri
    (fun c rng ->
      spread_before setup ~units:chunks c;
      let t0 = Probe.now_ns () in
      match run_chunk ?pool cfg ~k (Rng.copy rng) with
      | r ->
        secs := Probe.secs_since t0 :: !secs;
        reps := r :: !reps
      | exception e ->
        failed := !failed + k;
        notes := ("chunk raised " ^ Printexc.to_string e) :: !notes)
    rngs;
  let reps = Array.concat (List.rev !reps) in
  let secs = Array.of_list (List.rev !secs) in
  let total_s = Array.fold_left ( +. ) 0.0 secs in
  let e = estimate reps in
  let rel = rel95 e in
  let own95 = 1.96 *. sqrt (e.variance /. float_of_int (max 1 e.replications)) in
  let checks =
    [ ("the estimator recorded overflow events", e.hits > 0) ]
    @
    if checks_recorded ctx then
      [ ("estimate within its own 95% interval of the recorded one", Float.abs (e.p -. recorded_p) <= own95) ]
    else []
  in
  List.iter
    (fun (what, ok) ->
      if not ok then begin
        failed := !failed + Array.length reps;
        notes := ("check failed: " ^ what) :: !notes
      end)
    checks;
  let segs = Array.map (fun s -> s *. 1e3) secs in
  let pct, tail, beyond = Probe.tail segs in
  (* The answer is the estimate over the run's fixed replication
     budget. Seconds to a 10% relative half-width (the estimator's
     figure of merit) are printed too, but not bounded: the sample
     variance of the likelihood weights is heavy-tailed, and across
     seeds it moved by a factor of three at this budget. *)
  let to_rel95 = total_s *. ((rel /. 0.10) ** 2.0) in
  let notes =
    List.rev !notes
    @ [
        Printf.sprintf "twist %.4f, %d chunks of %d replications, p=%.6g, hits=%d, rel95=%.4f"
          cfg.Mux_is.twist chunks k e.p e.hits rel;
        Printf.sprintf "is_s_to_rel95_10pct %.6g s" to_rel95;
        Printf.sprintf "segment_ms_tail is p%d (%d chunks beyond it)" pct beyond;
      ]
  in
  let metrics =
    [
      ("source_slots_per_s", source_slots reps /. total_s);
      ("segment_ms_p50", Probe.median segs);
      ("segment_ms_tail", tail);
      ("answer_s", total_s);
      ("setup_s", snd (setup_summary setup));
      ("peak_rss_mb", Probe.peak_rss_mb ());
    ]
  in
  {
    Out.attempted = chunks * k;
    failed = min !failed (chunks * k);
    metrics = complete end_to_end_units metrics;
    notes;
  }

(* One replication timed from inside its Fanout item: wall time, minor
   words on the domain that ran it, and that domain's index. *)
type timed_rep = { rep : Mux_is.replication; ns : int; words : float; domain : int }

let traced ctx inputs ~pool ~cache0 (cfg : Mux_is.config) (setup : setup) =
  let d = ctx.domains in
  let k = chunk_size ctx in
  let chunks = min (batches ctx ~nominal_s:nominal_chunk_s) (if ctx.small then 1 else 8) in
  let rngs = chunk_rngs inputs chunks in
  let pass f =
    let t0 = Probe.now_ns () in
    let out = Array.map (fun rng -> f (Rng.copy rng)) rngs in
    (out, Probe.secs_since t0)
  in
  (* One chunk first to warm the heap and caches, as the mux workloads
     run a warm-up batch. *)
  ignore (run_chunk ?pool cfg ~k (Rng.copy rngs.(0)));
  (* Timed and traced chunks alternate, so the host's drifting load
     falls on both alike: the layer sum compares the two. *)
  let timed_chunk rng =
    Ss_parallel.Fanout.map ?pool ~rng ~n:k (fun sub _ ->
        let domain = Probe.domain_index () in
        let w0 = Gc.minor_words () in
        let t0 = Probe.now_ns () in
        let rep = Mux_is.replicate cfg sub in
        { rep; ns = Probe.now_ns () - t0; words = Gc.minor_words () -. w0; domain })
  in
  let plain_s = ref 0.0 and traced_s = ref 0.0 and majors = ref 0 in
  let both =
    Array.map
      (fun rng ->
        let t0 = Probe.now_ns () in
        let p = run_chunk ?pool cfg ~k (Rng.copy rng) in
        plain_s := !plain_s +. Probe.secs_since t0;
        let m0 = (Gc.quick_stat ()).Gc.major_collections in
        let t0 = Probe.now_ns () in
        let t = timed_chunk (Rng.copy rng) in
        traced_s := !traced_s +. Probe.secs_since t0;
        majors := !majors + (Gc.quick_stat ()).Gc.major_collections - m0;
        (p, t))
      rngs
  in
  let plain = Array.map fst both and traced = Array.map snd both in
  let plain_s = !plain_s and traced_s = !traced_s in
  let d1, d1_s = pass (fun rng -> Mux_is.estimate cfg ~replications:k rng) in
  let checks =
    List.concat
      (List.init chunks (fun c ->
           let ref_e = estimate plain.(c) in
           [
             ( Printf.sprintf "chunk %d: traced estimate equals the timed one bitwise" c,
               fingerprint (estimate (Array.map (fun t -> t.rep) traced.(c))) = fingerprint ref_e );
             ( Printf.sprintf "chunk %d: Mux_is.estimate at 1 domain equals the timed one bitwise" c,
               fingerprint d1.(c) = fingerprint ref_e );
           ]))
  in
  let failed = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let all_plain = Array.concat (Array.to_list plain) in
  let all_tr = Array.concat (Array.to_list traced) in
  let ss = source_slots all_plain in
  let u = ss /. plain_s and u_tr = ss /. traced_s and u_d1 = ss /. d1_s in
  let rep_ms = Array.map (fun t -> float_of_int t.ns *. 1e-6) all_tr in
  let _, rep_tail, _ = Probe.tail rep_ms in
  let hits = Array.fold_left (fun a t -> if t.rep.Mux_is.hit then a + 1 else a) 0 all_tr in
  let nreps = float_of_int (Array.length all_tr) in
  let mean_stop = ss /. float_of_int n_sources /. nreps in
  let busy = Array.make d 0.0 in
  Array.iter (fun t -> if t.domain < d then busy.(t.domain) <- busy.(t.domain) +. float_of_int t.ns) all_tr;
  let busy_total = Array.fold_left ( +. ) 0.0 busy in
  (* Per-layer microbenchmarks at this workload's sizes. *)
  let model = cfg.Mux_is.model in
  let seed = ctx.seed in
  let draw = Micro.rng ~block:horizon ~seed in
  let table = Source.table_for ~acf:(Ss_core.Model.background_acf model) ~order in
  let ar = Micro.hosking ~table ~order ~block:horizon ~seed ~draw () in
  let h = model.Ss_core.Model.transform in
  let tx = Micro.transform h ~block:horizon ~seed in
  let txr = Micro.transform (Ss_fractal.Transform.relax h) ~block:horizon ~seed in
  let plan = cfg.Mux_is.plans.(0) in
  (* The replication layers run on every domain at once, as the
     replications themselves do. *)
  let lik =
    Micro.on_domains ?pool (fun () ->
        let s = Ss_fastsim.Likelihood.stream_of_plan plan in
        let innov = Array.make horizon 0.0 in
        Rng.fill_gaussian (Rng.create ~seed) innov ~off:0 ~len:horizon;
        Micro.measure ~reps:256 ~units:horizon (fun () ->
            Ss_fastsim.Likelihood.stream_reset s;
            for j = 0 to horizon - 1 do
              Ss_fastsim.Likelihood.stream_step s ~k:j ~innovation:(Array.unsafe_get innov j)
            done))
  in
  (* A twisted source's life in one replication: construction (per
     source), then pulls up to the mean stopping slot. *)
  let stop = max 1 (int_of_float (Float.round mean_stop)) in
  let shift = Ss_fastsim.Twist.shift (Ss_fastsim.Likelihood.plan_profile plan) in
  let build =
    Micro.on_domains ?pool (fun () ->
        let r = Rng.create ~seed in
        Micro.measure ~reps:32 ~units:1 (fun () ->
            ignore (Source.of_model_twisted ~order ~shift model (Rng.split r))))
  in
  let twisted =
    Micro.on_domains ?pool (fun () ->
        let r = Rng.create ~seed in
        let wbuf = Array.make stop 0.0 and cbuf = Array.make stop 0 in
        let srcs = Array.init 33 (fun _ -> Source.of_model_twisted ~order ~shift model (Rng.split r)) in
        let next = ref 0 in
        Micro.measure ~reps:32 ~units:stop (fun () ->
            ignore (Source.next_block srcs.(!next) wbuf cbuf ~off:0 ~len:stop);
            incr next))
  in
  (* The probed engine alone: Mux.run with the first-passage probe over
     replays of recorded foreground output, minus the replay pulls. *)
  let engine =
    let r = Rng.create ~seed in
    let paths =
      Array.init n_sources (fun _ ->
          let src = Source.of_model ~order model (Rng.split r) in
          let w = Array.make horizon 0.0 and c = Array.make horizon 0 in
          ignore (Source.next_block src w c ~off:0 ~len:horizon);
          w)
    in
    Micro.on_domains ?pool (fun () ->
        let reps = 32 in
        let acc = Timed.pulls ~sources:n_sources ~max_blocks:1 in
        let t0 = Probe.now_ns () in
        for _ = 1 to reps do
          let srcs = Timed.sources acc (Array.map (fun w -> Source.of_array w) paths) in
          ignore
            (Mux.run ~quantiles:[] ~service:cfg.Mux_is.service ~slots:horizon
               ~probe:(fun _ q -> if q > cfg.Mux_is.buffer then ())
               srcs)
        done;
        let wall = Probe.now_ns () - t0 in
        { Micro.ns = float_of_int (wall - Timed.total_ns acc) /. float_of_int (reps * n_sources * horizon);
          words = 0.0 })
  in
  let build_per_slot = build.ns /. mean_stop in
  let layers_ns = (build_per_slot +. twisted.ns +. lik.ns +. engine.ns) /. float_of_int d in
  let unattributed, sum_note = layer_sum ~layers_ns ~untraced_ns:(1e9 /. u) in
  let hits_c, misses_c =
    let h1, m1 = cache_totals () in
    (h1 - fst cache0, m1 - snd cache0)
  in
  let measured =
    [
      ("rng.ns_per_draw", draw.ns);
      ("rng.words_per_draw", draw.words);
      ("hosking.exact_ns_per_slot", ar.ns);
      ("hosking.words_per_slot", ar.words);
      ("transform.exact_ns_per_slot", tx.ns);
      ("transform.relaxed_ns_per_slot", txr.ns);
      ("transform.words_per_slot", tx.words);
      ( "source.cache_hit_ratio",
        if hits_c + misses_c > 0 then float_of_int hits_c /. float_of_int (hits_c + misses_c) else 0.0 );
      ("mux.self_ns_per_source_slot", engine.ns);
      ("parallel.shard_busy_imbalance", Array.fold_left max 0.0 busy /. Probe.mean busy);
      ("parallel.wait_share", 1.0 -. (busy_total /. (float_of_int d *. traced_s *. 1e9)));
      ("parallel.speedup_over_d1", u /. u_d1);
      ("is.replication_ms_p50", Probe.median rep_ms);
      ("is.replication_ms_tail", rep_tail);
      ("is.hit_ratio", float_of_int hits /. nreps);
      ("is.s_to_rel95_10pct", plain_s *. ((rel95 (estimate all_plain) /. 0.10) ** 2.0));
      ("is.mean_stop_slot", mean_stop);
      ("is.likelihood_ns_per_step", lik.ns);
      ("is.twisted_pull_ns_per_slot", twisted.ns);
      ("is.source_build_us", build.ns *. 1e-3);
      ( "gc.minor_words_per_source_slot",
        Array.fold_left (fun a t -> a +. t.words) 0.0 all_tr /. ss );
      ("gc.major_collections", float_of_int !majors);
      ("trace.unattributed_share", unattributed);
      ("trace.overhead_pct", 100.0 *. (u -. u_tr) /. u);
    ]
    @ setup_metrics setup
  in
  {
    Out.attempted = List.length checks;
    failed;
    metrics = complete per_layer_units measured;
    notes = sum_note :: check_notes checks;
  }
