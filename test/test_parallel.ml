(* Tests for the deterministic domain-pool execution layer: the pool
   itself (ordering, exactly-once execution, exception propagation),
   the Fanout combinator's bit-identity guarantee across domain
   counts, and the pooled variants of the simulation hot paths
   (Mc/Is replications, Mux.run, Hosking table construction) — plus
   the fixed-seed regression pinning the double-buffered streaming
   Hosking generators and the structural Source table-cache key. *)

module Rng = Ss_stats.Rng
module Pool = Ss_parallel.Pool
module Fanout = Ss_parallel.Fanout
module Barrier = Ss_parallel.Barrier
module Acf = Ss_fractal.Acf
module Hosking = Ss_fractal.Hosking
module Mc = Ss_queueing.Mc
module Is = Ss_fastsim.Is_estimator
module Source = Ss_mux.Source
module Mux = Ss_mux.Mux

let raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

(* Run [f] against a fresh pool of every size in [sizes] (plus the
   sequential [None] path) and check all results agree per [eq]. *)
let across_pools ?(sizes = [ 1; 2; 4 ]) ~eq ~pp f =
  let reference = f None in
  List.iter
    (fun d ->
      Pool.with_pool ~domains:d (fun _ ->
          (* with_pool gives None for d <= 1; always exercise a real
             pool here, including the degenerate 1-domain one. *)
          ());
      let p = Pool.create ~domains:d in
      let got = Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f (Some p)) in
      if not (eq reference got) then
        Alcotest.failf "domains=%d: %s <> sequential %s" d (pp got) (pp reference))
    sizes

let bits = Int64.bits_of_float
let float_eq a b = bits a = bits b

let float_array_eq a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> float_eq x y) a b

(* ------------------------------------------------------------------ *)
(* Pool basics                                                          *)
(* ------------------------------------------------------------------ *)

let test_pool_invalid () =
  raises_invalid "domains = 0" (fun () -> Pool.create ~domains:0);
  raises_invalid "domains too large" (fun () -> Pool.create ~domains:1000);
  let p = Pool.create ~domains:2 in
  Alcotest.(check int) "size" 2 (Pool.size p);
  Pool.shutdown p;
  Pool.shutdown p;
  raises_invalid "use after shutdown" (fun () -> Pool.run p [| (fun () -> 0) |])

let test_pool_with_pool () =
  Pool.with_pool ~domains:1 (function
    | None -> ()
    | Some _ -> Alcotest.fail "domains=1 must take the sequential path");
  Pool.with_pool ~domains:3 (function
    | None -> Alcotest.fail "domains=3 must build a pool"
    | Some p -> Alcotest.(check int) "size" 3 (Pool.size p))

let test_pool_map_order () =
  List.iter
    (fun d ->
      let p = Pool.create ~domains:d in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
      let xs = Array.init 100 (fun i -> i) in
      let ys = Pool.map p (fun i -> i * i) xs in
      Array.iteri
        (fun i y -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) y)
        ys)
    [ 1; 2; 4 ]

let test_pool_exactly_once () =
  List.iter
    (fun d ->
      let p = Pool.create ~domains:d in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
      let n = 257 in
      let counts = Array.init n (fun _ -> Atomic.make 0) in
      let _ =
        Pool.run p (Array.init n (fun i () -> Atomic.incr counts.(i)))
      in
      Array.iteri
        (fun i c ->
          Alcotest.(check int) (Printf.sprintf "item %d runs once" i) 1 (Atomic.get c))
        counts)
    [ 1; 2; 4 ]

let test_pool_exception_propagates () =
  let p = Pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  (match
     Pool.run p
       (Array.init 64 (fun i () ->
            if i mod 17 = 3 then invalid_arg (Printf.sprintf "boom %d" i) else i))
   with
  | exception Invalid_argument m ->
    (* Lowest faulting index wins so failures are reproducible. *)
    Alcotest.(check string) "lowest index exception" "boom 3" m
  | _ -> Alcotest.fail "expected the item exception to propagate");
  (* The pool must survive a failed batch. *)
  let ys = Pool.run p (Array.init 8 (fun i () -> i + 1)) in
  Alcotest.(check (array int)) "usable after failure" (Array.init 8 (fun i -> i + 1)) ys

let test_static_for () =
  (* The precompiled batch runs every index exactly once per trigger,
     for any domain count, and survives repeated dispatch. *)
  let n = 37 in
  List.iter
    (fun d ->
      let p = Pool.create ~domains:d in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
      let marks = Array.init n (fun _ -> Atomic.make 0) in
      let trigger = Pool.static_for p ~n (fun i -> Atomic.incr marks.(i)) in
      trigger ();
      trigger ();
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 2 then
            Alcotest.failf "index %d ran %d times over 2 triggers" i (Atomic.get c))
        marks;
      raises_invalid "n <= 0" (fun () -> Pool.static_for p ~n:0 (fun _ -> ())))
    [ 1; 3 ];
  let p = Pool.create ~domains:2 in
  let trigger = Pool.static_for p ~n:4 (fun _ -> ()) in
  Pool.shutdown p;
  raises_invalid "trigger after shutdown" (fun () -> trigger ())

(* ------------------------------------------------------------------ *)
(* Barrier: coarse per-block shard dispatch                             *)
(* ------------------------------------------------------------------ *)

let test_barrier_runs_every_task () =
  (* Every task index runs exactly once per dispatch, sequentially
     (no pool), on a degenerate 1-domain pool, and on a real pool. *)
  let with_pool domains k =
    match domains with
    | None -> k None
    | Some d ->
        let p = Pool.create ~domains:d in
        Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> k (Some p))
  in
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          let tasks = 7 in
          let marks = Array.init tasks (fun _ -> Atomic.make 0) in
          let b = Barrier.make ?pool ~tasks (fun s -> Atomic.incr marks.(s)) in
          Alcotest.(check int) "tasks" tasks (Barrier.tasks b);
          Barrier.run b;
          Barrier.run b;
          Array.iteri
            (fun s c ->
              if Atomic.get c <> 2 then
                Alcotest.failf "task %d ran %d times over 2 dispatches" s (Atomic.get c))
            marks))
    [ None; Some 1; Some 3 ]

let test_barrier_is_a_barrier () =
  (* run returns only once every task has finished: tasks write
     disjoint slots and the caller must observe all of them right
     after run — the determinism contract the sharded mux stages
     blocks under. *)
  let p = Pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let n = 11 in
  let out = Array.make n 0.0 in
  let b = Barrier.make ~pool:p ~tasks:n (fun s -> out.(s) <- float_of_int (s * s)) in
  for round = 1 to 3 do
    Array.fill out 0 n 0.0;
    Barrier.run b;
    Array.iteri
      (fun s v ->
        if v <> float_of_int (s * s) then
          Alcotest.failf "round %d: slot %d unwritten at return" round s)
      out
  done

let test_barrier_invalid_and_shutdown () =
  raises_invalid "tasks < 1" (fun () -> Barrier.make ~tasks:0 (fun _ -> ()));
  let p = Pool.create ~domains:2 in
  let b = Barrier.make ~pool:p ~tasks:4 (fun _ -> ()) in
  Barrier.run b;
  Pool.shutdown p;
  raises_invalid "run after pool shutdown" (fun () -> Barrier.run b)

(* Supervision: a task body that raises must not wedge the block —
   peers still run, the pool join completes, and the caller gets
   Task_error with the lowest failing shard index and the original
   exception. The barrier is then poisoned (mid-block state is torn),
   refusing further runs with the same error. Exercised sequentially
   and on a real pool, at 2 and 4 shards. *)
let test_barrier_task_error_propagates () =
  List.iter
    (fun shards ->
      List.iter
        (fun pool_domains ->
          let with_pool k =
            match pool_domains with
            | None -> k None
            | Some d ->
              let p = Pool.create ~domains:d in
              Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> k (Some p))
          in
          with_pool (fun pool ->
              let label fmt =
                Printf.ksprintf
                  (fun s ->
                    Printf.sprintf "shards=%d domains=%s: %s" shards
                      (match pool_domains with None -> "seq" | Some d -> string_of_int d)
                      s)
                  fmt
              in
              let ran = Array.init shards (fun _ -> Atomic.make 0) in
              let b =
                Barrier.make ?pool ~tasks:shards (fun s ->
                    Atomic.incr ran.(s);
                    if s >= 1 then failwith (Printf.sprintf "shard %d died" s))
              in
              (match Barrier.run b with
              | exception Barrier.Task_error { task; exn = Failure m } ->
                Alcotest.(check int) (label "lowest failing shard wins") 1 task;
                Alcotest.(check string) (label "original exception") "shard 1 died" m
              | exception e ->
                Alcotest.failf "%s" (label "unexpected %s" (Printexc.to_string e))
              | () -> Alcotest.fail (label "expected Task_error"))
              ;
              Array.iteri
                (fun s c ->
                  Alcotest.(check int) (label "shard %d still ran its block" s) 1
                    (Atomic.get c))
                ran;
              if not (Barrier.poisoned b) then
                Alcotest.fail (label "barrier not poisoned after failure");
              match Barrier.run b with
              | exception Barrier.Task_error { task = 1; _ } -> ()
              | exception e ->
                Alcotest.failf "%s" (label "poisoned rerun: %s" (Printexc.to_string e))
              | () -> Alcotest.fail (label "poisoned barrier must refuse")))
        [ None; Some shards ])
    [ 2; 4 ]

(* End-to-end supervision: a source whose pull raises mid-run inside
   the sharded mux must surface on the caller within one staged block
   as Task_error carrying the shard that owns the source — not hang
   the barrier, not kill a worker domain silently. *)
let test_mux_worker_exception_surfaces () =
  List.iter
    (fun shards ->
      let p = Pool.create ~domains:shards in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
      let n = 4 in
      let src i =
        if i = n - 1 then
          let pulls = ref 0 in
          Source.make ~name:"dying" ~mean:1.0 ~sigma2:0.1 ~hurst:0.5 (fun () ->
              incr pulls;
              if !pulls > 10 then failwith "sensor failure" else (1.0, 0))
        else
          Source.of_array ~name:(Printf.sprintf "s%d" i) ~cycle:true
            (Array.init 97 (fun t -> abs_float (sin (float_of_int (t + (13 * i))))))
      in
      match Mux.run ~pool:p ~shards ~service:4.0 ~slots:4096 (Array.init n src) with
      | exception Barrier.Task_error { task; exn = Failure m } ->
        Alcotest.(check string)
          (Printf.sprintf "shards=%d: original error" shards)
          "sensor failure" m;
        (* Contiguous partition of 4 sources: the dying source (index
           3) lives in the last shard. *)
        Alcotest.(check int) (Printf.sprintf "shards=%d: failing shard" shards) (shards - 1)
          task
      | exception e ->
        Alcotest.failf "shards=%d: unexpected %s" shards (Printexc.to_string e)
      | _ -> Alcotest.fail (Printf.sprintf "shards=%d: expected Task_error" shards))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Fanout determinism                                                   *)
(* ------------------------------------------------------------------ *)

let test_fanout_deterministic () =
  let work sub i = (float_of_int i *. 1000.0) +. Rng.gaussian sub in
  across_pools ~eq:float_array_eq
    ~pp:(fun xs -> Printf.sprintf "[|%g;...|]" xs.(0))
    (fun pool ->
      let rng = Rng.create ~seed:41 in
      let out = Fanout.map ?pool ~rng ~n:37 work in
      (* The parent stream must advance identically too. *)
      Array.append out [| Rng.gaussian rng |])

let test_fanout_fold_deterministic () =
  across_pools
    ~eq:(fun a b -> float_eq a b)
    ~pp:(Printf.sprintf "%h")
    (fun pool ->
      let rng = Rng.create ~seed:42 in
      Fanout.fold ?pool ~rng ~n:23 ~f:( +. ) ~init:0.0 (fun sub _ -> Rng.gaussian sub))

let test_fanout_edge_cases () =
  let rng = Rng.create ~seed:1 in
  Alcotest.(check int) "n=0" 0 (Array.length (Fanout.map ~rng ~n:0 (fun _ i -> i)));
  raises_invalid "n<0" (fun () -> Fanout.map ~rng ~n:(-1) (fun _ i -> i))

(* ------------------------------------------------------------------ *)
(* Hot paths: bit-identical estimates at every domain count            *)
(* ------------------------------------------------------------------ *)

let is_config () =
  let table = Hosking.Table.make ~acf:(Acf.fgn ~h:0.8) ~n:120 in
  Is.make_config ~table
    ~arrival:(fun _ x -> x +. 0.3)
    ~service:0.5 ~buffer:4.0 ~horizon:120 ~twist:0.8 ()

let test_is_estimate_domain_invariant () =
  let cfg = is_config () in
  across_pools
    ~eq:(fun a b -> float_eq a.Mc.p b.Mc.p && a.Mc.hits = b.Mc.hits)
    ~pp:(fun e -> Printf.sprintf "p=%h hits=%d" e.Mc.p e.Mc.hits)
    (fun pool -> Is.estimate ?pool cfg ~replications:60 (Rng.create ~seed:5))

let test_mc_domain_invariant () =
  across_pools
    ~eq:(fun a b -> float_eq a.Mc.p b.Mc.p && a.Mc.hits = b.Mc.hits)
    ~pp:(fun e -> Printf.sprintf "p=%h" e.Mc.p)
    (fun pool ->
      Mc.overflow_probability ?pool
        ~gen:(fun sub -> Array.init 150 (fun _ -> abs_float (Rng.gaussian sub)))
        ~service:1.1 ~buffer:4.0 ~horizon:150 ~replications:80
        (Rng.create ~seed:6))

let test_mux_domain_invariant () =
  let report pool =
    (* Fresh sources per run: a source is stateful. Work arrays are
       longer than the prefetch block so pooled runs cross a block
       boundary. *)
    let src i =
      let xs = Array.init 300 (fun t -> abs_float (sin (float_of_int (t + (31 * i))))) in
      Source.of_array ~name:(Printf.sprintf "s%d" i) ~cycle:true xs
    in
    Mux.run ?pool ~buffer:3.0 ~thresholds:[ 0.5; 1.5 ] ~service:1.9 ~slots:1000
      (Array.init 5 src)
  in
  across_pools
    ~eq:(fun a b ->
      float_eq a.Mux.mean_queue b.Mux.mean_queue
      && float_eq a.Mux.loss_fraction b.Mux.loss_fraction
      && List.for_all2
           (fun (_, x) (_, y) -> float_eq x y)
           a.Mux.overflow b.Mux.overflow
      && Array.for_all2
           (fun (x : Mux.source_report) (y : Mux.source_report) ->
             float_eq x.Mux.offered y.Mux.offered && float_eq x.Mux.lost y.Mux.lost)
           a.Mux.per_source b.Mux.per_source)
    ~pp:(fun r -> Printf.sprintf "mean_queue=%h" r.Mux.mean_queue)
    report

(* ------------------------------------------------------------------ *)
(* Source table cache: structural key                                   *)
(* ------------------------------------------------------------------ *)

let test_source_cache_keyed_structurally () =
  (* Two distinct ACFs deliberately sharing a display name: a cache
     keyed by name would hand the second stream the first one's
     table. *)
  let acf_of lambda =
    Acf.of_fun ~name:"shared-name" (fun k ->
        if k = 0 then 1.0 else exp (-.lambda *. float_of_int k))
  in
  let order = 24 in
  let stream acf =
    let b = Hosking.Block.create ~table:(Source.table_for ~acf ~order) ~order () in
    let rng = Rng.create ~seed:77 and x = [| 0.0 |] in
    fun () ->
      Hosking.Block.fill b rng x ~off:0 ~len:1;
      x.(0)
  in
  let a = stream (acf_of 0.05) in
  let b = stream (acf_of 1.5) in
  let differs = ref false in
  for _ = 1 to 64 do
    let xa = a () and xb = b () in
    if not (float_eq xa xb) then differs := true
  done;
  if not !differs then Alcotest.fail "same-name ACFs shared one cached table";
  (* And equal structure still shares: same ACF twice, same seed, the
     streams coincide (cache hit or not is unobservable). *)
  let c = stream (acf_of 0.05) and d = stream (acf_of 0.05) in
  for i = 1 to 64 do
    let xc = c () and xd = d () in
    if not (float_eq xc xd) then Alcotest.failf "identical ACFs diverged at %d" i
  done

(* ------------------------------------------------------------------ *)
(* Streaming-Hosking fixed-seed regression                              *)
(* ------------------------------------------------------------------ *)

(* Pins the exact output of the double-buffered generate_stream /
   generate_truncated (verified bit-identical to the historical
   fresh-array-per-step implementation when the buffer reuse was
   introduced). *)
let test_hosking_stream_regression () =
  let acf = Acf.fgn ~h:0.8 in
  let check name xs expected =
    List.iter
      (fun (i, hex) ->
        let got = bits xs.(i) in
        if got <> Int64.of_string ("0x" ^ hex) then
          Alcotest.failf "%s[%d]: got %Lx, want %s" name i got hex)
      expected
  in
  let s = Hosking.generate_stream ~acf ~n:600 (Rng.create ~seed:7) in
  check "stream" s
    [
      (0, "3ffac8da7097b412");
      (1, "3fd88b4671873280");
      (17, "3fe9de13595bda90");
      (299, "bfd8f4b509b8ee34");
      (599, "3ff4bf8e78f3d6c6");
    ];
  let t = Hosking.generate_truncated ~acf ~n:900 ~max_order:64 (Rng.create ~seed:9) in
  check "trunc" t
    [
      (0, "3fff0c5cbf69a4b0");
      (63, "bfff78ef7e20d908");
      (64, "bfa613c7fa1437b0");
      (500, "bff74bc679d01d38");
      (899, "3ff6f84eb5300bec");
    ]

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                    *)
(* ------------------------------------------------------------------ *)

let prop_pool_map_is_map =
  QCheck.Test.make ~name:"Pool.map agrees with Array.map" ~count:30
    QCheck.(
      pair (int_range 1 4) (array_of_size Gen.(int_range 0 120) (int_range (-1000) 1000)))
    (fun (d, xs) ->
      let p = Pool.create ~domains:d in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
      Pool.map p (fun x -> (2 * x) - 7) xs = Array.map (fun x -> (2 * x) - 7) xs)

let prop_pool_run_exactly_once =
  QCheck.Test.make ~name:"Pool.run executes every thunk exactly once" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 0 150))
    (fun (d, n) ->
      let p = Pool.create ~domains:d in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
      let counts = Array.init n (fun _ -> Atomic.make 0) in
      let out = Pool.run p (Array.init n (fun i () -> Atomic.incr counts.(i); i)) in
      out = Array.init n (fun i -> i)
      && Array.for_all (fun c -> Atomic.get c = 1) counts)

let prop_fanout_pool_size_irrelevant =
  QCheck.Test.make ~name:"Fanout.map result independent of pool size" ~count:15
    QCheck.(pair (int_range 2 4) (int_range 1 40))
    (fun (d, n) ->
      let run pool =
        Fanout.map ?pool ~rng:(Rng.create ~seed:(n + 100)) ~n (fun sub i ->
            Rng.gaussian sub +. float_of_int i)
      in
      let p = Pool.create ~domains:d in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
      float_array_eq (run None) (run (Some p)))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pool_map_is_map; prop_pool_run_exactly_once; prop_fanout_pool_size_irrelevant ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ss_parallel"
    [
      ( "pool",
        [
          tc "invalid args / shutdown" test_pool_invalid;
          tc "with_pool dispatch" test_pool_with_pool;
          tc "map preserves order" test_pool_map_order;
          tc "items run exactly once" test_pool_exactly_once;
          tc "exceptions propagate" test_pool_exception_propagates;
          tc "static_for reusable batch" test_static_for;
        ] );
      ( "barrier",
        [
          tc "every task once per dispatch" test_barrier_runs_every_task;
          tc "returns after all tasks" test_barrier_is_a_barrier;
          tc "invalid / shutdown" test_barrier_invalid_and_shutdown;
          tc "task error propagates + poisons" test_barrier_task_error_propagates;
          tc "mux worker exception surfaces" test_mux_worker_exception_surfaces;
        ] );
      ( "fanout",
        [
          tc "map deterministic across pools" test_fanout_deterministic;
          tc "fold deterministic across pools" test_fanout_fold_deterministic;
          tc "edge cases" test_fanout_edge_cases;
        ] );
      ( "hot-paths",
        [
          tc "Is.estimate domain-invariant" test_is_estimate_domain_invariant;
          tc "Mc.overflow_probability domain-invariant" test_mc_domain_invariant;
          tc "Mux.run domain-invariant" test_mux_domain_invariant;
        ] );
      ( "regressions",
        [
          tc "source cache keyed structurally" test_source_cache_keyed_structurally;
          tc "streaming Hosking fixed-seed" test_hosking_stream_regression;
        ] );
      ("properties", qcheck_cases);
    ]
