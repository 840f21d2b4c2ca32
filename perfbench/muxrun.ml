(* One batch of a multiplexer workload — Mux.run over freshly built
   sources — in one of four modes:

   - [Plain]: the timed run the end-to-end metrics come from;
   - [Traced]: every engine-visible source pull, the trajectory sink
     and each checkpoint phase timed from the outside;
   - [Recording]: plain, but each source's delivered work and classes
     are copied out, to be replayed by [Bare];
   - [Bare]: the same engine configuration over replays of the
     recorded output, so the engine's own cost shows without any
     synthesis in the pulls.

   All four must return bitwise the same report. *)

open Ss_mux

type spec = {
  n : int;
  slots : int;
  every : int;  (** checkpoint-hook interval in slots *)
  per_segment : int;  (** hook calls per timed segment *)
  service : float;
  buffer : float;
  thresholds : float list;
  build : (Source.t array -> Source.t array) -> Source.t array;
      (** fresh, identical sources on every call; the argument wraps
          the synthesis sources before any fault injection *)
  faulted : bool;  (** [build] puts a fault layer between synthesis and engine *)
  police : bool;
  slot_s : float option;  (** [Some s]: capture a trajectory with s seconds per slot *)
  snapshot : string option;  (** [Some prefix]: write real snapshots to [prefix.N] *)
}

type recorded = { work : float array array; cls : int array array; like : Source.t array }

type mode = Plain | Traced | Recording of recorded | Bare of recorded

let recorded spec =
  {
    work = Array.init spec.n (fun _ -> Array.make spec.slots 0.0);
    cls = Array.init spec.n (fun _ -> Array.make spec.slots 0);
    like = [||];
  }

type snapshot_cost = {
  serialize_ns : int;
  encode_ns : int;
  write_ns : int;
  bytes : int;
  snap_major_words : float;
  snap_minor_words : float;
}

type run = {
  report : Mux.report;
  mux_s : float;  (** Mux.run wall time *)
  segments : float array;  (** ms per segment *)
  capture : Ss_abr.Trajectory.t option;
  policer : Police.t option;
  outer : Timed.pulls option;  (** engine-visible pulls ([Traced], [Bare]) *)
  inner : Timed.pulls option;  (** synthesis pulls under the fault layer ([Traced], faulted) *)
  sink_ns : int;
  snapshots : snapshot_cost list;
  caller_words : float;  (** minor words allocated by the main domain during Mux.run *)
  major_words : float;
  major_collections : int;
  last_snapshot : (string * string) option;  (** path and bytes of the last snapshot *)
  recorded : recorded option;
}

let kind = "perfbench"

(* Ss_checkpoint.to_file split into its three phases so each can be
   timed; the file it leaves is byte-identical. *)
let write_atomic path record =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc record;
  close_out oc;
  Sys.rename tmp path

let run ?pool ~shards ~mode spec =
  let traced = match mode with Traced | Bare _ -> true | Plain | Recording _ -> false in
  let max_blocks = spec.slots + 1 in
  let outer = if traced then Some (Timed.pulls ~sources:spec.n ~max_blocks) else None in
  let inner =
    match mode with
    | Traced when spec.faulted -> Some (Timed.pulls ~sources:spec.n ~max_blocks)
    | _ -> None
  in
  let srcs, recorded =
    match mode with
    | Bare r ->
      (Array.init spec.n (fun i -> Timed.replay ~like:r.like.(i) r.work.(i) r.cls.(i)), None)
    | Plain | Traced | Recording _ ->
      let wrap = match inner with Some acc -> Timed.sources acc | None -> Fun.id in
      let srcs = spec.build wrap in
      (match mode with
      | Recording r ->
        let r = { r with like = srcs } in
        (Array.mapi (fun i s -> Timed.recorder r.work.(i) r.cls.(i) s) srcs, Some r)
      | _ -> (srcs, None))
  in
  let srcs = match outer with Some acc -> Timed.sources acc srcs | None -> srcs in
  let policer =
    if spec.police then Some (Police.create (Array.map Admission.descr_of_source srcs)) else None
  in
  let capture =
    Option.map
      (fun slot_s -> Ss_abr.Trajectory.create ~slots:spec.slots ~sources:spec.n ~slot_s)
      spec.slot_s
  in
  let sink_ns = ref 0 in
  let trajectory =
    Option.map
      (fun cap ->
        let sink = Ss_abr.Trajectory.sink cap in
        if traced then (fun ~slot ~served ~delays ->
          let t0 = Probe.now_ns () in
          sink ~slot ~served ~delays;
          sink_ns := !sink_ns + (Probe.now_ns () - t0))
        else sink)
      capture
  in
  let seg = Timed.segments ~per_segment:spec.per_segment in
  let snapshots = ref [] in
  (* Each snapshot goes to a new file and the previous one is removed
     once it is published, so no rename ever replaces a file: on ext4,
     renaming over a file starts writeback of the new data, which put
     the shared disk's latency into the segment times. *)
  let published = ref None and seq = ref 0 in
  let next_path prefix =
    incr seq;
    Printf.sprintf "%s.%d" prefix !seq
  in
  let publish path =
    Option.iter Sys.remove !published;
    published := Some path
  in
  let checkpoint =
    match (spec.snapshot, mode) with
    | None, _ | Some _, Bare _ -> Timed.segment_hook seg ~every:spec.every
    | Some prefix, (Plain | Recording _) ->
      {
        Mux.every = spec.every;
        save =
          (fun ~slot:_ fill ->
            Timed.mark seg;
            let path = next_path prefix in
            Ss_checkpoint.to_file ~path ~kind ~meta:"" fill;
            publish path);
      }
    | Some prefix, Traced ->
      {
        Mux.every = spec.every;
        save =
          (fun ~slot:_ fill ->
            Timed.mark seg;
            let path = next_path prefix in
            let mj0 = (Gc.quick_stat ()).Gc.major_words in
            let mw0 = Gc.minor_words () in
            let t0 = Probe.now_ns () in
            let w = Ss_checkpoint.W.create () in
            fill w;
            let payload = Ss_checkpoint.W.contents w in
            let t1 = Probe.now_ns () in
            let record = Ss_checkpoint.encode ~kind ~meta:"" payload in
            let t2 = Probe.now_ns () in
            write_atomic path record;
            publish path;
            let t3 = Probe.now_ns () in
            let mw1 = Gc.minor_words () in
            let mj1 = (Gc.quick_stat ()).Gc.major_words in
            snapshots :=
              {
                serialize_ns = t1 - t0;
                encode_ns = t2 - t1;
                write_ns = t3 - t2;
                bytes = String.length record;
                snap_major_words = mj1 -. mj0;
                snap_minor_words = mw1 -. mw0;
              }
              :: !snapshots);
      }
  in
  let st0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Probe.now_ns () in
  Timed.stamp seg;
  let report =
    Mux.run ?pool ~shards ~buffer:spec.buffer ~thresholds:spec.thresholds ?police:policer
      ?trajectory ~checkpoint ~service:spec.service ~slots:spec.slots srcs
  in
  Timed.stamp seg;
  let mux_s = Probe.secs_since t0 in
  let caller_words = Gc.minor_words () -. w0 in
  let st1 = Gc.quick_stat () in
  let last_snapshot =
    Option.bind !published (fun path ->
        Option.map (fun bytes -> (path, bytes)) (Probe.read_file path))
  in
  {
    report;
    mux_s;
    segments = Timed.segment_ms seg;
    capture;
    policer;
    outer;
    inner;
    sink_ns = !sink_ns;
    snapshots = List.rev !snapshots;
    caller_words;
    major_words = st1.Gc.major_words -. st0.Gc.major_words;
    major_collections = st1.Gc.major_collections - st0.Gc.major_collections;
    last_snapshot;
    recorded;
  }

let source_slots spec = float_of_int (spec.n * spec.slots)
let throughput spec r = source_slots spec /. r.mux_s

(* Police.observe replayed over the run's offered-work stream (the
   recorded engine-visible pulls), in the engine's order: corrupt work
   goes to note_corrupt, evicted sources are skipped. Returns ns per
   source-slot and the replayed policer. *)
let police_replay spec (r : recorded) =
  let p = Police.create (Array.map Admission.descr_of_source r.like) in
  let t0 = Probe.now_ns () in
  for t = 0 to spec.slots - 1 do
    for i = 0 to spec.n - 1 do
      let w = r.work.(i).(t) in
      if Float.is_nan w || w < 0.0 || w = infinity then Police.note_corrupt p ~slot:t i
      else if not (Police.evicted p i) then Police.observe p ~slot:t i w
    done
  done;
  (float_of_int (Probe.now_ns () - t0) /. source_slots spec, p)
