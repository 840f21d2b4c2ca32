(* The three multiplexer workloads (fleet_exact, replay_wide,
   abr_policed): what each builds, checks and microbenchmarks, and the
   shared timed (--trace 0) and traced (--trace 1) runners. *)

open Ss_stats
open Ss_mux
open Common

(* What runs after the mux on the same batch (abr_policed: the client
   fleets over the captured trajectory). *)
type after = {
  extra_s : float;  (** wall time of the phase *)
  chunks : int;  (** client chunks simulated *)
  words : float;  (** minor words on the main domain (complete only without a pool) *)
  digest : string;  (** bitwise fingerprint of its outputs *)
}

let no_after = { extra_s = 0.0; chunks = 0; words = 0.0; digest = "" }

type workload = {
  spec : Muxrun.spec;
  nominal_s : float;  (** one batch's wall time on the reference host *)
  recorded_digest : string;  (** report digest at the default seed *)
  bare : bool;  (** measure the engine on a replay of the recorded pulls *)
  after : ?pool:Ss_parallel.Pool.t -> Muxrun.run -> after;
  checks : Muxrun.run -> (string * bool) list;
  micro : unit -> (string * float) list * float;
      (** per-layer microbenchmarks, and the synthesis ns per slot they
          account for inside a pull (draw + AR kernel + transform) *)
}

(* ------------------------------------------------------------------ *)
(* fleet_exact                                                          *)
(* ------------------------------------------------------------------ *)

let order = 512

let fleet_exact ctx inputs =
  let n = if ctx.small then 32 else 256 in
  let slots = if ctx.small then 2048 else 8192 in
  let trace = Lazy.force inputs.intra in
  let build_with model wrap =
    let rng = Rng.copy inputs.sources in
    wrap
      (Array.init n (fun i ->
           Source.of_model ~name:(Printf.sprintf "m%d" i) ~order model (Rng.split rng)))
  in
  let once () =
    let t0 = Probe.now_ns () in
    let model, _ = Ss_core.Fit.fit_trace trace in
    let t1 = Probe.now_ns () in
    ignore (Ss_fractal.Hosking.Table.make ~acf:(Ss_core.Model.background_acf model) ~n:(order + 1));
    let t2 = Probe.now_ns () in
    ignore (build_with model Fun.id);
    let t3 = Probe.now_ns () in
    let s a b = float_of_int (b - a) *. 1e-9 in
    (model, [ ("fit", s t0 t1); ("table", s t1 t2); ("sources", s t2 t3) ])
  in
  let model, pool, setup = Common.setup ctx once in
  let service = float_of_int n *. model.Ss_core.Model.mean /. 0.7 in
  let spec =
    {
      Muxrun.n;
      slots;
      every = 2048;
      per_segment = 1;
      service;
      buffer = 10.0 *. service;
      thresholds = [];
      build = build_with model;
      faulted = false;
      police = false;
      slot_s = None;
      snapshot = None;
    }
  in
  let micro () =
    let block = spec.Muxrun.every in
    let draw = Micro.rng ~block ~seed:ctx.seed in
    let table = Source.table_for ~acf:(Ss_core.Model.background_acf model) ~order in
    let ar = Micro.hosking ~table ~order ~block ~seed:ctx.seed ~draw () in
    let h = model.Ss_core.Model.transform in
    let tx = Micro.transform h ~block ~seed:ctx.seed in
    let txr = Micro.transform (Ss_fractal.Transform.relax h) ~block ~seed:ctx.seed in
    ( [
        ("rng.ns_per_draw", draw.ns);
        ("rng.words_per_draw", draw.words);
        ("hosking.exact_ns_per_slot", ar.ns);
        ("hosking.words_per_slot", ar.words);
        ("transform.exact_ns_per_slot", tx.ns);
        ("transform.relaxed_ns_per_slot", txr.ns);
        ("transform.words_per_slot", tx.words);
      ],
      draw.ns +. ar.ns +. tx.ns )
  in
  ( {
      spec;
      nominal_s = 1.0;
      recorded_digest = "4807d6ab8576cbe8557ee5564f571952";
      bare = true;
      after = (fun ?pool:_ _ -> no_after);
      checks = (fun _ -> []);
      micro;
    },
    pool,
    setup )

(* ------------------------------------------------------------------ *)
(* replay_wide                                                          *)
(* ------------------------------------------------------------------ *)

let replay_wide ctx inputs =
  let n = if ctx.small then 1024 else 8192 in
  let slots = if ctx.small then 256 else 1024 in
  let sizes = (Lazy.force inputs.intra).Ss_video.Trace.sizes in
  (* One window per source, as long as the run, at a seeded offset into
     the shared trace: the sources are staggered without 8192 copies
     of the whole trace in memory. *)
  let windows =
    let r = Rng.copy inputs.offsets in
    Array.init n (fun _ ->
        Array.sub sizes (Rng.int_range r 0 (Array.length sizes - slots)) slots)
  in
  let build wrap =
    wrap (Array.init n (fun i -> Source.of_array ~name:(Printf.sprintf "r%d" i) windows.(i)))
  in
  let once () =
    let t0 = Probe.now_ns () in
    ignore (build Fun.id);
    ((), [ ("sources", Probe.secs_since t0) ])
  in
  let (), pool, setup = Common.setup ctx once in
  let mean = Probe.mean sizes in
  let service = float_of_int n *. mean /. 0.9 in
  let spec =
    {
      Muxrun.n;
      slots;
      every = 512;
      per_segment = 1;
      service;
      buffer = 4.0 *. service;
      thresholds = [ 0.5 *. service; service; 2.0 *. service ];
      build;
      faulted = false;
      police = false;
      slot_s = None;
      snapshot = None;
    }
  in
  ( {
      spec;
      nominal_s = 0.45;
      recorded_digest = "64ffa97a37dcd1e3d399a4c7e05601ef";
      bare = false;
      after = (fun ?pool:_ _ -> no_after);
      checks = (fun _ -> []);
      micro = (fun () -> ([], 0.0));
    },
    pool,
    setup )

(* ------------------------------------------------------------------ *)
(* abr_policed                                                          *)
(* ------------------------------------------------------------------ *)

let abr_policed ctx inputs =
  let n = if ctx.small then 8 else 64 in
  let slots = if ctx.small then 8192 else 16_384 in
  let clients = if ctx.small then 64 else 1024 in
  let ibp = Lazy.force inputs.ibp in
  let faults = Fault.parse "0:drift@2048+512x3.0;*:corrupt@0.0001" in
  let build_with mpeg wrap =
    let rng = Rng.copy inputs.sources in
    let srcs =
      Array.init n (fun i ->
          Source.of_mpeg ~name:(Printf.sprintf "v%d" i) ~order ~kernel:`Fft ~priority:true
            ~phase:(i mod 12) mpeg (Rng.split rng))
    in
    Fault.wrap_all ~rng:(Rng.copy inputs.faults) faults (wrap srcs)
  in
  let once () =
    let t0 = Probe.now_ns () in
    let mpeg = Ss_core.Mpeg.fit ibp in
    let t1 = Probe.now_ns () in
    let table = Ss_fractal.Hosking.Table.make ~acf:mpeg.Ss_core.Mpeg.background ~n:(order + 1) in
    let t2 = Probe.now_ns () in
    ignore (Ss_fractal.Hosking.Fft_plan.make ~table ~order);
    let t3 = Probe.now_ns () in
    ignore (build_with mpeg Fun.id);
    let t4 = Probe.now_ns () in
    let s a b = float_of_int (b - a) *. 1e-9 in
    (mpeg, [ ("fit", s t0 t1); ("table", s t1 t2); ("fft_plan", s t2 t3); ("sources", s t3 t4) ])
  in
  let mpeg, pool, setup = Common.setup ctx once in
  let probe_src = (build_with mpeg Fun.id).(1) in
  let mean = probe_src.Source.mean in
  let service = float_of_int n *. mean /. 0.8 in
  let prefix = Filename.concat ctx.tmp "abr_policed.ckpt" in
  let spec =
    {
      Muxrun.n;
      slots;
      every = 1024;
      per_segment = 4;
      service;
      buffer = 4.0 *. service;
      thresholds = [ service; 2.0 *. service ];
      build = build_with mpeg;
      faulted = true;
      police = true;
      slot_s = Some (1.0 /. ibp.Ss_video.Trace.fps);
      snapshot = Some prefix;
    }
  in
  let ladder = Ss_abr.Ladder.of_trace ~chunk_frames:30 ibp in
  let config = Ss_abr.Client.default in
  let after ?pool (r : Muxrun.run) =
    let trajectory = Option.get r.Muxrun.capture in
    let fleet policy =
      fst
        (Ss_abr.Fleet.run ?pool ~rng:(Rng.copy inputs.clients) ~clients ~policy ~ladder
           ~trajectory ~config ())
    in
    let w0 = Gc.minor_words () in
    let t0 = Probe.now_ns () in
    let bba = fleet (Ss_abr.Policy.bba ()) in
    let rate = fleet (Ss_abr.Policy.rate ()) in
    let extra_s = Probe.secs_since t0 in
    {
      extra_s;
      chunks = 2 * clients * config.Ss_abr.Client.chunks;
      words = Gc.minor_words () -. w0;
      digest = Digest.to_hex (Digest.string (Marshal.to_string (bba, rate) [ Marshal.No_sharing ]));
    }
  in
  let checks (r : Muxrun.run) =
    let p = Option.get r.Muxrun.policer in
    let decodes =
      match r.Muxrun.last_snapshot with
      | None -> false
      | Some (path, _) -> (
        match Ss_checkpoint.of_file ~path ~kind:Muxrun.kind with
        | _ -> true
        | exception Ss_checkpoint.Corrupt _ -> false)
    in
    (* Offered work of the clean sources, before any sanction, against
       the model mean. The band is four standard deviations of a pooled
       LRD sample mean (sigma * T^(H-1) / sqrt(sources)) plus 1%. *)
    let clean = Array.sub r.Muxrun.report.Mux.per_source 1 (n - 1) in
    let raw =
      Array.fold_left
        (fun a (s : Mux.source_report) -> a +. s.offered +. s.throttled +. s.discarded)
        0.0 clean
    in
    let got = raw /. float_of_int ((n - 1) * slots) in
    let sd =
      sqrt probe_src.Source.sigma2
      *. (float_of_int slots ** (probe_src.Source.hurst -. 1.0))
      /. sqrt (float_of_int (n - 1))
    in
    [
      ("police flags the drifting source", Police.detected_at p 0 <> None);
      ("last snapshot decodes", decodes);
      ("clean offered mean within band", Float.abs (got -. mean) <= (4.0 *. sd) +. (0.01 *. mean));
    ]
  in
  let micro () =
    let block = spec.Muxrun.every in
    let draw = Micro.rng ~block ~seed:ctx.seed in
    let acf = mpeg.Ss_core.Mpeg.background in
    let table = Source.table_for ~acf ~order in
    let fft_plan = Source.fft_plan_for ~acf ~order in
    let ar = Micro.hosking ~fft_plan ~table ~order ~block ~seed:ctx.seed ~draw () in
    let h = mpeg.Ss_core.Mpeg.i_model.Ss_core.Model.transform in
    let tx = Micro.transform h ~block ~seed:ctx.seed in
    let txr = Micro.transform (Ss_fractal.Transform.relax h) ~block ~seed:ctx.seed in
    ( [
        ("rng.ns_per_draw", draw.ns);
        ("rng.words_per_draw", draw.words);
        ("hosking.fft_ns_per_slot", ar.ns);
        ("hosking.words_per_slot", ar.words);
        ("transform.exact_ns_per_slot", tx.ns);
        ("transform.relaxed_ns_per_slot", txr.ns);
        ("transform.words_per_slot", txr.words);
      ],
      draw.ns +. ar.ns +. txr.ns )
  in
  ( { spec; nominal_s = 0.75; recorded_digest = "08f11dc6b6bde586b072010dc48d330c"; bare = true; after; checks; micro },
    pool,
    setup )

(* ------------------------------------------------------------------ *)
(* Runners                                                              *)
(* ------------------------------------------------------------------ *)

(* --trace 0: a warm-up batch, then the timed batches. Every batch is
   rebuilt from the same inputs, so each must reproduce the warm-up
   batch bitwise. The warm-up's timings are not used: it pays heap
   growth and cold caches, and its segments alone would fill the
   tail. *)
let timed ctx ~pool (wl : workload) (setup : setup) =
  let spec = wl.spec in
  let nb = batches ctx ~nominal_s:wl.nominal_s in
  let tputs = ref [] and segs = ref [] and answers = ref [] and extra = ref [] in
  let failed = ref 0 and notes = ref [] and first = ref None in
  for b = -1 to nb - 1 do
    if b >= 0 then spread_before setup ~units:nb b;
    (* Each batch starts from a collected heap, as a fresh run would,
       instead of paying the previous batch's collection debt. *)
    Gc.full_major ();
    match
      let r = Muxrun.run ?pool ~shards:ctx.domains ~mode:Plain spec in
      (r, wl.after ?pool r)
    with
    | r, a ->
      let digest = Out.report_digest r.Muxrun.report in
      let checks = wl.checks r in
      let checks =
        match !first with
        | None ->
          first := Some (digest, a.digest);
          notes := Printf.sprintf "report digest %s" digest :: !notes;
          if checks_recorded ctx then
            checks @ [ ("report digest equals the one recorded at the default seed", digest = wl.recorded_digest) ]
          else checks
        | Some (d0, a0) ->
          checks @ [ ("batch reproduces the warm-up batch bitwise", d0 = digest && a0 = a.digest) ]
      in
      let bad = check_notes checks in
      if bad <> [] then begin
        incr failed;
        notes := List.rev_append bad !notes
      end;
      if b >= 0 then begin
        tputs := Muxrun.throughput spec r :: !tputs;
        segs := r.Muxrun.segments :: !segs;
        answers := (r.Muxrun.mux_s +. a.extra_s) :: !answers;
        if a.chunks > 0 then extra := (float_of_int a.chunks /. a.extra_s) :: !extra
      end
    | exception e ->
      incr failed;
      notes := ("batch raised " ^ Printexc.to_string e) :: !notes
  done;
  let segs = Array.concat !segs in
  let pct, tail, beyond = Probe.tail segs in
  let notes =
    List.rev !notes
    @ [
        Printf.sprintf "%d timed batches of %d sources x %d slots, %d segments of %d slots" nb
          spec.Muxrun.n spec.Muxrun.slots (Array.length segs)
          (spec.Muxrun.every * spec.Muxrun.per_segment);
        Printf.sprintf "segment_ms_tail is p%d (%d segments beyond it)" pct beyond;
      ]
    @ (if !extra = [] then []
       else [ Printf.sprintf "abr_chunks_per_s %.6g 1/s" (Probe.median (Array.of_list !extra)) ])
  in
  let metrics =
    [
      ("source_slots_per_s", Probe.median (Array.of_list !tputs));
      ("segment_ms_p50", Probe.median segs);
      ("segment_ms_tail", tail);
      ("answer_s", Probe.median (Array.of_list !answers));
      ("setup_s", snd (setup_summary setup));
      ("peak_rss_mb", Probe.peak_rss_mb ());
    ]
  in
  { Out.attempted = nb + 1; failed = !failed; metrics = complete end_to_end_units metrics; notes }

let median_of f xs = Probe.median (Array.of_list (List.map f xs))

(* --trace 1: after a warm-up batch, timed and traced batches
   alternately (the median of each is used: the host's load drifts
   between batches, and the layer sum compares the two), one batch at
   a single domain and shard (a different layout, so the layout
   independence of the report is checked too), and — for workloads
   whose pulls synthesize — one over replays of the recorded pulls to
   measure the engine alone. Each starts from a collected heap, as the
   timed batches do. *)
let traced ctx ~pool ~cache0 (wl : workload) (setup : setup) =
  let spec = wl.spec in
  let d = ctx.domains in
  let ss = Muxrun.source_slots spec in
  let batch ?pool ~shards mode =
    Gc.full_major ();
    Muxrun.run ?pool ~shards ~mode spec
  in
  let warm = batch ?pool ~shards:d Plain in
  ignore (wl.after ?pool warm);
  let pairs =
    List.init 3 (fun _ ->
        let p = batch ?pool ~shards:d Plain in
        let pa = wl.after ?pool p in
        (p, pa, batch ?pool ~shards:d Traced))
  in
  let median_by f l = List.nth (List.sort (fun a b -> compare (f a) (f b)) l) (List.length l / 2) in
  let plain, plain_after, _ = median_by (fun (p, _, _) -> p.Muxrun.mux_s) pairs in
  let _, _, tr = median_by (fun (_, _, t) -> t.Muxrun.mux_s) pairs in
  let rec_ = if wl.bare then Some (Muxrun.recorded spec) else None in
  let d1 =
    batch ~shards:1 (match rec_ with Some r -> Muxrun.Recording r | None -> Muxrun.Plain)
  in
  let d1_after = wl.after d1 in
  let bare = Option.map (fun r -> batch ?pool ~shards:d (Muxrun.Bare r)) d1.Muxrun.recorded in
  let same (r : Muxrun.run) = Mux.equal_report plain.Muxrun.report r.Muxrun.report in
  let all_same rs = List.for_all same rs in
  let checks =
    [
      ( "warm-up and timed runs equal each other bitwise",
        all_same (warm :: List.map (fun (p, _, _) -> p) pairs)
        && List.for_all (fun (_, pa, _) -> pa.digest = plain_after.digest) pairs );
      ("traced runs equal the timed run bitwise", all_same (List.map (fun (_, _, t) -> t) pairs));
      ("1-domain run equals the timed run bitwise", same d1 && d1_after.digest = plain_after.digest);
      ( "snapshot bytes equal across runs",
        Option.map snd tr.Muxrun.last_snapshot = Option.map snd plain.Muxrun.last_snapshot );
    ]
    @ (match bare with
      | Some b -> [ ("engine on replayed pulls equals the timed run bitwise", same b) ]
      | None -> [])
    @ wl.checks plain
  in
  let failed = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let micro, synth_ns = wl.micro () in
  let outer = Option.get tr.Muxrun.outer in
  let crit, _, wait = Timed.critical_path outer ~domains:d in
  let pull_ns = float_of_int (Timed.total_ns outer) /. ss in
  let synth_pull_ns =
    match tr.Muxrun.inner with
    | Some inner -> float_of_int (Timed.total_ns inner) /. ss
    | None -> pull_ns
  in
  let fault_ns =
    match tr.Muxrun.inner with
    | Some inner -> float_of_int (Timed.total_ns outer - Timed.total_ns inner) /. ss
    | _ -> 0.0
  in
  let police_ns, police_incidents =
    match (d1.Muxrun.recorded, plain.Muxrun.policer) with
    | Some r, Some p -> (fst (Muxrun.police_replay spec r), float_of_int (Police.incident_count p))
    | _ -> (0.0, 0.0)
  in
  let snaps = tr.Muxrun.snapshots in
  let snap_ns = List.fold_left (fun a s -> a + s.Muxrun.serialize_ns + s.encode_ns + s.write_ns) 0 snaps in
  let snap_minor = List.fold_left (fun a s -> a +. s.Muxrun.snap_minor_words) 0.0 snaps in
  let snap_major = List.fold_left (fun a s -> a +. s.Muxrun.snap_major_words) 0.0 snaps in
  let sink_ns = float_of_int tr.Muxrun.sink_ns /. ss in
  (* Engine self time: measured on the replay where there is one (its
     pulls are blits), else the traced run's remainder; police runs
     inside the engine loop and is reported as its own layer. *)
  let self_ns =
    let of_run (r : Muxrun.run) ~snap =
      let o = Option.get r.Muxrun.outer in
      let c, _, _ = Timed.critical_path o ~domains:d in
      ((r.Muxrun.mux_s *. 1e9) -. float_of_int c -. float_of_int r.Muxrun.sink_ns -. snap) /. ss
    in
    (match bare with Some b -> of_run b ~snap:0.0 | None -> of_run tr ~snap:(float_of_int snap_ns))
    -. police_ns
  in
  let u = Muxrun.throughput spec plain in
  let u_tr = Muxrun.throughput spec tr in
  let layers_ns =
    (float_of_int crit /. ss) +. sink_ns +. (float_of_int snap_ns /. ss) +. police_ns +. self_ns
  in
  let unattributed, sum_note = layer_sum ~layers_ns ~untraced_ns:(1e9 /. u) in
  let per_snap f = median_of f snaps in
  let hits, misses =
    let h1, m1 = cache_totals () in
    (h1 - fst cache0, m1 - snd cache0)
  in
  let measured =
    micro
    @ [
        ("source.pull_ns_per_source_slot", pull_ns);
        ("source.pull_words_per_source_slot", Timed.total_words outer /. ss);
        ("source.glue_ns_per_slot", if synth_ns > 0.0 then synth_pull_ns -. synth_ns else 0.0);
        ( "source.cache_hit_ratio",
          if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses) else 0.0 );
        ("fault.ns_per_source_slot", fault_ns);
        ("mux.self_ns_per_source_slot", self_ns);
        ( "mux.words_per_source_slot",
          (tr.Muxrun.caller_words
          -. (Timed.total_words outer -. Timed.total_remote_words outer)
          -. snap_minor)
          /. ss );
        ("mux.major_words_per_source_slot", (tr.Muxrun.major_words -. snap_major) /. ss);
        ("parallel.shard_busy_imbalance", Timed.shard_imbalance outer ~shards:d);
        ( "parallel.wait_share",
          if crit > 0 then float_of_int wait /. float_of_int (crit * d) else 0.0 );
        ("parallel.speedup_over_d1", u /. Muxrun.throughput spec d1);
        ("police.ns_per_source_slot", police_ns);
        ("police.incidents", police_incidents);
        ("trajectory.sink_ns_per_source_slot", sink_ns);
        ("gc.minor_words_per_source_slot", (tr.Muxrun.caller_words +. Timed.total_remote_words outer) /. ss);
        ("gc.major_collections", float_of_int tr.Muxrun.major_collections);
        ("trace.unattributed_share", unattributed);
        ("trace.overhead_pct", 100.0 *. (u -. u_tr) /. u);
      ]
    @ (if snaps = [] then []
       else
         [
           ("checkpoint.serialize_ms", per_snap (fun s -> float_of_int s.Muxrun.serialize_ns *. 1e-6));
           ("checkpoint.encode_ms", per_snap (fun s -> float_of_int s.Muxrun.encode_ns *. 1e-6));
           ("checkpoint.write_ms", per_snap (fun s -> float_of_int s.Muxrun.write_ns *. 1e-6));
           ("checkpoint.bytes", per_snap (fun s -> float_of_int s.Muxrun.bytes));
           ("checkpoint.major_words", per_snap (fun s -> s.Muxrun.snap_major_words));
         ])
    @ (if d1_after.chunks = 0 then []
       else
         [
           ("fleet.ns_per_chunk", d1_after.extra_s *. 1e9 /. float_of_int d1_after.chunks);
           ("fleet.words_per_chunk", d1_after.words /. float_of_int d1_after.chunks);
         ])
    @ setup_metrics setup
  in
  {
    Out.attempted = List.length checks;
    failed;
    metrics = complete per_layer_units measured;
    notes = sum_note :: check_notes checks;
  }
