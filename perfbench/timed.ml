(* Timing wrappers placed around the library's public call points.
   Every wrapper is observational: it forwards the wrapped function's
   arguments and results untouched (sources keep their name and
   checkpoint capability), so a traced run must report bitwise the same
   result as an untraced one — the benchmark checks that. *)

open Ss_mux

(* Accounting for one group of wrapped sources. Per-source cells are
   written only by the domain that pulls that source in the current
   block, and [busy.(d).(k)] only by domain [d], so no cell is ever
   written by two domains at once. *)
type pulls = {
  ns : int array;  (** per source: nanoseconds inside [pull_block] *)
  words : float array;  (** per source: minor words allocated inside [pull_block] *)
  remote_words : float array;  (** the part of [words] allocated off the main domain *)
  calls : int array;  (** per source: [pull_block] calls so far = block index *)
  busy : int array array;  (** [busy.(d).(k)]: ns domain [d] spent pulling in block [k] *)
}

let pulls ~sources ~max_blocks =
  {
    ns = Array.make sources 0;
    words = Array.make sources 0.0;
    remote_words = Array.make sources 0.0;
    calls = Array.make sources 0;
    busy = Array.init Probe.max_domains (fun _ -> Array.make max_blocks 0);
  }

(* Wrap source [i] so that every block pull is timed and its minor
   allocation counted. [Gc.minor_words] is domain-local in OCaml 5,
   which is what makes per-pull counts right on pool domains. The
   engine pulls every live source exactly once per staging block, so a
   source's call count is the block index. *)
let source acc i (src : Source.t) =
  let pull_block wbuf cbuf off len =
    let d = Probe.domain_index () in
    let w0 = Gc.minor_words () in
    let t0 = Probe.now_ns () in
    let f = src.Source.pull_block wbuf cbuf off len in
    let dt = Probe.now_ns () - t0 in
    let dw = Gc.minor_words () -. w0 in
    let k = acc.calls.(i) in
    acc.calls.(i) <- k + 1;
    acc.ns.(i) <- acc.ns.(i) + dt;
    acc.words.(i) <- acc.words.(i) +. dw;
    if d <> 0 then acc.remote_words.(i) <- acc.remote_words.(i) +. dw;
    let row = acc.busy.(d) in
    if k < Array.length row then row.(k) <- row.(k) + dt;
    f
  in
  Source.make ~pull_block ?ckpt:src.Source.ckpt ~name:src.Source.name ~mean:src.Source.mean
    ~sigma2:src.Source.sigma2 ~hurst:src.Source.hurst src.Source.pull

let sources acc srcs = Array.mapi (source acc) srcs
let total_ns acc = Array.fold_left ( + ) 0 acc.ns
let total_words acc = Array.fold_left ( +. ) 0.0 acc.words
let total_remote_words acc = Array.fold_left ( +. ) 0.0 acc.remote_words

(* Critical path of the pulls: per block, the busiest domain sets the
   block's pull time (the barrier waits for it). Returns
   (critical ns, total ns, waiting ns) where waiting is the idle time
   the other domains spend at the barrier behind the busiest one. *)
let critical_path acc ~domains =
  let blocks = Array.length acc.busy.(0) in
  let crit = ref 0 and total = ref 0 and wait = ref 0 in
  for k = 0 to blocks - 1 do
    let mx = ref 0 in
    for d = 0 to domains - 1 do
      let b = acc.busy.(d).(k) in
      total := !total + b;
      if b > !mx then mx := b
    done;
    crit := !crit + !mx;
    for d = 0 to domains - 1 do
      wait := !wait + (!mx - acc.busy.(d).(k))
    done
  done;
  (!crit, !total, !wait)

(* Max over mean of the per-shard pull busy time, with the engine's
   documented contiguous partition (shard s owns sources
   [s*n/shards, (s+1)*n/shards)). *)
let shard_imbalance acc ~shards =
  let n = Array.length acc.ns in
  let shards = max 1 (min shards n) in
  let busy =
    Array.init shards (fun s ->
        let lo = s * n / shards and hi = (s + 1) * n / shards in
        let t = ref 0 in
        for i = lo to hi - 1 do
          t := !t + acc.ns.(i)
        done;
        float_of_int !t)
  in
  let mean = Probe.mean busy in
  if mean > 0.0 then Array.fold_left max 0.0 busy /. mean else 1.0

(* Replay of recorded source output (work and class per slot) at the
   cost of an array blit: the engine's own work, measured without any
   synthesis in the pulls. Checkpointable (the cursor is its state) so
   it can run under the same snapshot hook as the source it replaces. *)
let replay ~(like : Source.t) (work : float array) (cls : int array) =
  let n = Array.length work in
  let pos = ref 0 in
  let pull_block wbuf cbuf off len =
    let take = min len (n - !pos) in
    Array.blit work !pos wbuf off take;
    Array.blit cls !pos cbuf off take;
    pos := !pos + take;
    take
  in
  let pull () =
    if !pos >= n then raise Source.End_of_stream;
    let w = work.(!pos) and c = cls.(!pos) in
    incr pos;
    (w, c)
  in
  let ckpt =
    {
      Source.ck_save = (fun w -> Ss_checkpoint.W.int w !pos);
      ck_restore = (fun r -> pos := Ss_checkpoint.R.int r);
    }
  in
  Source.make ~pull_block ~ckpt ~name:like.Source.name ~mean:like.Source.mean
    ~sigma2:like.Source.sigma2 ~hurst:like.Source.hurst pull

(* Wrap a source so that its delivered work and classes are copied
   into preallocated per-source arrays (for a later replay). *)
let recorder (work : float array) (cls : int array) (src : Source.t) =
  let pos = ref 0 in
  let pull_block wbuf cbuf off len =
    let f = src.Source.pull_block wbuf cbuf off len in
    let take = min f (Array.length work - !pos) in
    Array.blit wbuf off work !pos take;
    Array.blit cbuf off cls !pos take;
    pos := !pos + take;
    f
  in
  Source.make ~pull_block ?ckpt:src.Source.ckpt ~name:src.Source.name ~mean:src.Source.mean
    ~sigma2:src.Source.sigma2 ~hurst:src.Source.hurst src.Source.pull

(* Segment clock: a checkpoint hook whose save records only the time,
   so segment boundaries come from the engine's own staging points.
   The hook caps the engine's staging block at [every] slots, so a
   timing-only hook uses an [every] no shorter than the block the
   engine picks by itself. *)
type segments = { per_segment : int; mutable calls : int; mutable marks : int list }

let segments ~per_segment = { per_segment; calls = 0; marks = [] }
let stamp seg = seg.marks <- Probe.now_ns () :: seg.marks

(* A hook call: every [per_segment]-th one closes a segment. *)
let mark seg =
  seg.calls <- seg.calls + 1;
  if seg.calls mod seg.per_segment = 0 then stamp seg

let segment_hook seg ~every =
  { Mux.every; save = (fun ~slot:_ (_ : Ss_checkpoint.W.t -> unit) -> mark seg) }

(* Durations (ms) between consecutive marks, oldest first. *)
let segment_ms seg =
  let a = Array.of_list (List.rev seg.marks) in
  if Array.length a < 2 then [||]
  else Array.init (Array.length a - 1) (fun i -> float_of_int (a.(i + 1) - a.(i)) *. 1e-6)
