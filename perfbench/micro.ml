(* Per-layer microbenchmarks: each times one library entry point in
   isolation at the workload's own sizes (block length, AR order,
   marginal), on the main domain unless run through [on_domains], and
   reports ns and minor words per unit of work. *)

open Ss_stats

type cost = { ns : float; words : float }

(* Run [f] [reps] times over [units] units each, after one warm-up
   call; ns and words per unit. *)
let measure ~reps ~units f =
  f ();
  let w0 = Gc.minor_words () in
  let t0 = Probe.now_ns () in
  for _ = 1 to reps do
    f ()
  done;
  let dt = Probe.now_ns () - t0 in
  let dw = Gc.minor_words () -. w0 in
  let u = float_of_int (reps * units) in
  { ns = float_of_int dt /. u; words = dw /. u }

(* The same microbenchmark on every pool domain at once, averaged: for
   layers whose workload keeps every domain busy, so the measurement
   sees the same contention for memory and the collector. *)
let on_domains ?pool (f : unit -> cost) =
  let costs =
    match pool with
    | None -> [| f () |]
    | Some p -> Ss_parallel.Pool.run p (Array.init (Ss_parallel.Pool.size p) (fun _ -> f))
  in
  let k = float_of_int (Array.length costs) in
  {
    ns = Array.fold_left (fun a c -> a +. c.ns) 0.0 costs /. k;
    words = Array.fold_left (fun a c -> a +. c.words) 0.0 costs /. k;
  }

let rng ~block ~seed =
  let r = Rng.create ~seed in
  let buf = Array.make block 0.0 in
  measure ~reps:(max 1 (262_144 / block)) ~units:block (fun () ->
      Rng.fill_gaussian r buf ~off:0 ~len:block)

(* Block.fill at the workload's order, minus the Gaussian draws it
   makes (one per slot). *)
let hosking ?fft_plan ~table ~order ~block ~seed ~(draw : cost) () =
  let r = Rng.create ~seed in
  let blk = Ss_fractal.Hosking.Block.create ?fft_plan ~table ~order () in
  let buf = Array.make block 0.0 in
  (* Past the exact-recursion warm-up, so the frozen-AR steady state
     is what gets timed. *)
  let warm = ref 0 in
  while !warm < order + block do
    Ss_fractal.Hosking.Block.fill blk r buf ~off:0 ~len:block;
    warm := !warm + block
  done;
  let c =
    measure ~reps:(max 1 (131_072 / block)) ~units:block (fun () ->
        Ss_fractal.Hosking.Block.fill blk r buf ~off:0 ~len:block)
  in
  { ns = c.ns -. draw.ns; words = c.words -. draw.words }

let transform h ~block ~seed =
  let r = Rng.create ~seed in
  let xs = Array.make block 0.0 in
  Rng.fill_gaussian r xs ~off:0 ~len:block;
  let ys = Array.make block 0.0 in
  measure ~reps:(max 1 (131_072 / block)) ~units:block (fun () ->
      for j = 0 to block - 1 do
        Array.unsafe_set ys j (Ss_fractal.Transform.apply1 h (Array.unsafe_get xs j))
      done)
