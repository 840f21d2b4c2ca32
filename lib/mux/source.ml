module Rng = Ss_stats.Rng
module Acf = Ss_fractal.Acf
module Hosking = Ss_fractal.Hosking
module Davies_harte = Ss_fractal.Davies_harte
module Plan_cache = Ss_fractal.Plan_cache
module Transform = Ss_fractal.Transform
module Gop = Ss_video.Gop
module Frame = Ss_video.Frame
module Model = Ss_core.Model
module Mpeg = Ss_core.Mpeg

module W = Ss_checkpoint.W
module R = Ss_checkpoint.R

exception End_of_stream

type ckpt = { ck_save : W.t -> unit; ck_restore : R.t -> unit }

(* What [next_blocks] needs to pull an exact streaming model source as
   one lane of a group: its generator, the innovation stream, the
   slots left before a horizon, the twist pass of an importance-
   sampling source ([twist buf off len], run on the fresh background
   values before the transform) and the marginal transform. These are
   the very objects its own [pull_block] closes over; [t] is private,
   so no copy of a source can pair its lane with another
   [pull_block]. *)
type lane = {
  blk : Hosking.Block.t;
  rng : Rng.t;
  remaining : int ref;
  twist : (float array -> int -> int -> unit) option;
  h : Transform.t;
}

type t = {
  name : string;
  mean : float;
  sigma2 : float;
  hurst : float;
  pull : unit -> float * int;
  pull_block : float array -> int array -> int -> int -> int;
  ckpt : ckpt option;
  lane : lane option;
}

type backend = [ `Hosking | `Davies_harte ]
type kernel = [ `Exact | `Fft ]

(* Default block implementation over a scalar pull: one call per slot
   in slot order, so adapted sources consume their state (and their
   substreams) exactly as per-slot pulls would — the block path is
   bit-identical by construction. A mid-block [End_of_stream] ends
   the block short; later blocks keep returning 0 because the
   underlying pull keeps raising. *)
let block_of_pull pull =
  fun wbuf cbuf off len ->
    if len < 0 || off < 0 || off + len > Array.length wbuf || off + len > Array.length cbuf
    then invalid_arg "Source.pull_block: range outside the buffers";
    let i = ref 0 in
    (try
       while !i < len do
         let w, c = pull () in
         wbuf.(off + !i) <- w;
         cbuf.(off + !i) <- c;
         incr i
       done
     with End_of_stream -> ());
    !i

let make ?pull_block ?ckpt ~name ~mean ~sigma2 ~hurst pull =
  if mean < 0.0 then invalid_arg "Source.make: mean < 0";
  if sigma2 < 0.0 then invalid_arg "Source.make: sigma2 < 0";
  if hurst <= 0.0 || hurst >= 1.0 then invalid_arg "Source.make: hurst outside (0,1)";
  let pull_block = match pull_block with Some f -> f | None -> block_of_pull pull in
  { name; mean; sigma2; hurst; pull; pull_block; ckpt; lane = None }

let supports_checkpoint t = Option.is_some t.ckpt

let save t w =
  match t.ckpt with
  | Some c ->
    W.tag w "source";
    W.string w t.name;
    c.ck_save w
  | None ->
    invalid_arg
      (Printf.sprintf
         "Source.save: source %S does not support checkpointing (hand-rolled pull \
          without ~ckpt)"
         t.name)

let restore t r =
  match t.ckpt with
  | Some c ->
    R.tag r "source";
    let name = R.string r in
    if not (String.equal name t.name) then
      raise
        (Ss_checkpoint.Corrupt
           (Printf.sprintf "source: checkpoint holds state for %S, restoring into %S" name
              t.name));
    c.ck_restore r
  | None ->
    invalid_arg
      (Printf.sprintf "Source.restore: source %S does not support checkpointing" t.name)

let next t = t.pull ()
let next_block t wbuf cbuf ~off ~len = t.pull_block wbuf cbuf off len

let of_array ?(name = "array") ?(hurst = 0.5) ?(cycle = false) xs =
  if Array.length xs = 0 then invalid_arg "Source.of_array: empty array";
  let n = Array.length xs in
  let i = ref 0 in
  let pull () =
    if !i >= n then if cycle then i := 0 else raise End_of_stream;
    let v = xs.(!i) in
    incr i;
    (v, 0)
  in
  (* Native block path: segment blits from the backing array, classes
     all 0 — same replay order and the same exhaustion slot as the
     scalar pull. *)
  let pull_block wbuf cbuf off len =
    if len < 0 || off < 0 || off + len > Array.length wbuf || off + len > Array.length cbuf
    then invalid_arg "Source.pull_block: range outside the buffers";
    let filled = ref 0 in
    let continue = ref true in
    while !filled < len && !continue do
      if !i >= n then if cycle then i := 0 else continue := false;
      if !continue then begin
        let take = Stdlib.min (len - !filled) (n - !i) in
        Array.blit xs !i wbuf (off + !filled) take;
        i := !i + take;
        filled := !filled + take
      end
    done;
    Array.fill cbuf off !filled 0;
    !filled
  in
  let ckpt =
    {
      ck_save =
        (fun w ->
          W.tag w "array-src";
          W.int w !i);
      ck_restore =
        (fun r ->
          R.tag r "array-src";
          let i' = R.int r in
          if i' < 0 || i' > n then
            raise
              (Ss_checkpoint.Corrupt
                 (Printf.sprintf "array-src: replay index %d outside [0, %d]" i' n));
          i := i');
    }
  in
  make ~pull_block ~ckpt ~name ~mean:(Ss_stats.Descriptive.mean xs)
    ~sigma2:(Ss_stats.Descriptive.variance xs) ~hurst pull

(* The table and plan lookups of model sources: the process-wide
   caches of [Plan_cache], with this module's range checks. *)
type cache_stats = Plan_cache.stats = { hits : int; misses : int; evictions : int }

let cache_stats = Plan_cache.stats

let table_for ~acf ~order =
  if order < 1 || order > 19_999 then
    invalid_arg "Source.table_for: order outside [1, 19999]";
  Plan_cache.table ~acf ~order

let fft_plan_for ~acf ~order =
  if order < 1 || order > 19_999 then
    invalid_arg "Source.fft_plan_for: order outside [1, 19999]";
  Plan_cache.fft_plan ~acf ~order

let check_horizon who horizon =
  match horizon with
  | Some h when h < 1 -> invalid_arg (who ^ ": horizon < 1")
  | _ -> ()

(* Background block filler: [fill buf off len] appends up to [len]
   fresh background values, returning the count (short only once a
   finite horizon is exhausted). The Hosking backend streams through
   the cache-blocked ring kernel (overlap-save FFT kernel under
   [`Fft]); the Davies–Harte backend materializes the whole
   fixed-horizon path exactly in O(n log n) on first use and replays
   it — the kernel choice only governs the streaming Hosking
   recursion, so it is ignored there. The third component is the
   exact streaming generator and its horizon counter, the state a
   lane pull advances ([None] for the other kernels). *)
let bg_filler ~who ~acf ~order ~backend ~horizon ~kernel rng =
  match backend with
  | `Hosking ->
    let table = table_for ~acf ~order in
    let blk =
      match kernel with
      | `Exact -> Hosking.Block.create ~table ~order ()
      | `Fft -> Hosking.Block.create ~fft_plan:(fft_plan_for ~acf ~order) ~table ~order ()
    in
    let remaining = ref (match horizon with None -> max_int | Some h -> h) in
    let fill buf off len =
      let take = if len < !remaining then len else !remaining in
      Hosking.Block.fill blk rng buf ~off ~len:take;
      remaining := !remaining - take;
      take
    in
    let ckpt =
      {
        ck_save =
          (fun w ->
            W.tag w "bg-hosking";
            Rng.save rng w;
            Hosking.Block.save blk w;
            W.int w !remaining);
        ck_restore =
          (fun r ->
            R.tag r "bg-hosking";
            Rng.restore rng r;
            Hosking.Block.restore blk r;
            let rem = R.int r in
            let bad =
              rem < 0 || match horizon with Some h -> rem > h | None -> false
            in
            if bad then
              raise
                (Ss_checkpoint.Corrupt
                   (Printf.sprintf "bg-hosking: remaining slots %d outside [0, %s]" rem
                      (match horizon with Some h -> string_of_int h | None -> "max_int")));
            remaining := rem);
      }
    in
    let exact = match kernel with `Exact -> Some (blk, remaining) | `Fft -> None in
    (fill, ckpt, exact)
  | `Davies_harte ->
    let n =
      match horizon with
      | Some h -> h
      | None ->
        invalid_arg
          (who
         ^ ": backend `Davies_harte synthesizes a fixed-length path; pass ~horizon (or use \
            `Hosking for open-ended streaming)")
    in
    if order < 1 || order > 19_999 then invalid_arg (who ^ ": order outside [1, 19999]");
    let plan = Plan_cache.dh_plan ~acf ~n in
    (* Deferred so construction consumes no randomness — like the
       Hosking streams, the generator state only advances on pulls.
       An explicit option (not [lazy]) so restore can reset it: the
       checkpoint stores the generator's *initial* state ([rng0],
       captured here) plus the replay position — O(1), never the
       O(horizon) path, which is regenerated bit-identically from
       [rng0] on the first post-restore pull. *)
    let rng0 = Rng.copy rng in
    let path = ref None in
    let ensure () =
      match !path with
      | Some xs -> xs
      | None ->
        let xs = Davies_harte.generate plan rng in
        path := Some xs;
        xs
    in
    let pos = ref 0 in
    let fill buf off len =
      let xs = ensure () in
      let take = Stdlib.min len (n - !pos) in
      Array.blit xs !pos buf off take;
      pos := !pos + take;
      take
    in
    let ckpt =
      {
        ck_save =
          (fun w ->
            W.tag w "bg-materialized";
            Rng.save rng0 w;
            W.int w !pos);
        ck_restore =
          (fun r ->
            R.tag r "bg-materialized";
            Rng.restore rng0 r;
            Rng.copy_into ~src:rng0 ~dst:rng;
            let pos' = R.int r in
            if pos' < 0 || pos' > n then
              raise
                (Ss_checkpoint.Corrupt
                   (Printf.sprintf "bg-materialized: position %d outside [0, %d]" pos' n));
            pos := pos';
            path := None);
      }
    in
    (fill, ckpt, None)

(* The foreground pull shared by [of_model] and [of_model_twisted]:
   [fill_bg] appends background values, then [finish_block] maps the
   filled range through the marginal transform in place and clamps
   it at zero like [of_mpeg] (histogram-inverse transforms can dip
   slightly negative in the far tail, and Mux.run rejects negative
   work). The clamp is [Stdlib.max 0.0 w] monomorphized
   ([if 0.0 >= w then 0.0 else w] — the same definition on a float
   comparison, NaN passed through), avoiding a boxed
   polymorphic-compare call per slot. [next_blocks] finishes lane
   pulls through the same function. With [lane] (the generator, the
   innovation stream and the horizon counter [fill_bg] advances) the
   source can be pulled as a lane of a group. *)
let finish_block h wbuf cbuf off f =
  Transform.apply_into h wbuf ~off ~len:f;
  for j = off to off + f - 1 do
    let w = Array.unsafe_get wbuf j in
    Array.unsafe_set wbuf j (if 0.0 >= w then 0.0 else w)
  done;
  Array.fill cbuf off f 0

let of_background ~name ~fill_bg ?ckpt ?lane ~h model =
  let _, sigma2 = Transform.mean_variance h in
  let pull_block wbuf cbuf off len =
    if len < 0 || off < 0 || off + len > Array.length wbuf || off + len > Array.length cbuf
    then invalid_arg "Source.pull_block: range outside the buffers";
    let f = fill_bg wbuf off len in
    finish_block h wbuf cbuf off f;
    f
  in
  (* The scalar pull is the block path at block size one, so scalar
     and block consumption interleave coherently on one source. *)
  let wtmp = [| 0.0 |] and ctmp = [| 0 |] in
  let pull () = if pull_block wtmp ctmp 0 1 = 1 then (wtmp.(0), 0) else raise End_of_stream in
  let src =
    make ~pull_block ?ckpt ~name ~mean:model.Model.mean ~sigma2 ~hurst:model.Model.hurst pull
  in
  {
    src with
    lane = Option.map (fun (blk, rng, remaining, twist) -> { blk; rng; remaining; twist; h }) lane;
  }

let of_model ?(name = "model") ?(order = 512) ?(backend = `Hosking) ?(kernel = `Exact)
    ?horizon model rng =
  check_horizon "Source.of_model" horizon;
  let acf = Model.background_acf model in
  let fill_bg, bg_ckpt, exact =
    bg_filler ~who:"Source.of_model" ~acf ~order ~backend ~horizon ~kernel rng
  in
  (* The FFT kernel is already seed-incompatible with the exact tier,
     so it rides the relaxed marginal transform for the same per-slot
     speed; only [`Exact] keeps the erf-backed CDF. *)
  let h =
    match kernel with
    | `Exact -> model.Model.transform
    | `Fft -> Transform.relax model.Model.transform
  in
  (* The marginal transform is stateless: the background filler is the
     whole checkpointable state. *)
  let lane = Option.map (fun (blk, remaining) -> (blk, rng, remaining, None)) exact in
  of_background ~name ~fill_bg ~ckpt:bg_ckpt ?lane ~h model

(* The exact Hosking block kernel under the mean-shifted law: the ring
   keeps the *untwisted* values (so conditional means stay those of
   the original law); the twist pass then feeds the block's
   innovations to [probe] in slot order and adds [shift k] to the
   emitted value only. A lane pull runs the same pass after the
   group's AR chains. *)
let of_model_twisted ?(name = "model-is") ?(order = 512) ~shift ?probe model rng =
  let table = table_for ~acf:(Model.background_acf model) ~order in
  let blk = Hosking.Block.create ~table ~order () in
  (* Block-sized innovation scratch, grown on demand: a mux stages a
     few dozen slots per block, so it stays small. *)
  let innovations = ref [||] in
  let k = ref 0 in
  let twist buf off len =
    if Option.is_some probe then begin
      if Array.length !innovations < len then innovations := Array.make len 0.0;
      Hosking.Block.innovations blk !innovations ~off:0 ~len
    end;
    let innov = !innovations in
    for j = 0 to len - 1 do
      (match probe with None -> () | Some f -> f ~k:!k ~innovation:innov.(j));
      buf.(off + j) <- buf.(off + j) +. shift !k;
      incr k
    done
  in
  let fill_bg buf off len =
    Hosking.Block.fill blk rng buf ~off ~len;
    twist buf off len;
    len
  in
  of_background ~name ~fill_bg ~lane:(blk, rng, ref max_int, Some twist) ~h:model.Model.transform
    model

(* Lane members are the non-skipped sources with a lane whose horizon
   leaves at least [len] slots; their pulls are exactly [pull_block]'s
   with [take = len]. *)
let lane_member sources skip len i =
  (not (Array.unsafe_get skip i))
  &&
  let s = Array.unsafe_get sources i in
  match s.lane with
  | Some l -> !(l.remaining) >= len
  | None -> false

(* The members of [lo, hi) as (index, lane) pairs, or [||] when they
   cannot fill one lane group or when a source is listed twice (two
   members would then advance one generator): such a range is pulled
   per source. *)
let lane_group sources skip len ~lo ~hi =
  let count = ref 0 and first = ref lo in
  for i = hi - 1 downto lo do
    if lane_member sources skip len i then begin
      incr count;
      first := i
    end
  done;
  if !count < Hosking.Block.lanes || len = 0 then [||]
  else begin
    let group = Array.make !count (!first, Option.get sources.(!first).lane) in
    let c = ref 0 in
    for i = lo to hi - 1 do
      if lane_member sources skip len i then begin
        group.(!c) <- (i, Option.get sources.(i).lane);
        incr c
      end
    done;
    let dup = ref false in
    Array.iteri
      (fun a (_, la) ->
        for b = 0 to a - 1 do
          if (snd group.(b)).blk == la.blk then dup := true
        done)
      group;
    if !dup then [||] else group
  end

let next_blocks sources ~skip ~lo ~hi wbuf cbuf ~stride ~len ~filled =
  if lo < 0 || hi > Array.length sources || hi > Array.length skip
     || hi > Array.length filled || stride < len || len < 0
  then invalid_arg "Source.next_blocks: bad range";
  let group = lane_group sources skip len ~lo ~hi in
  let grouped = Array.length group > 0 in
  for i = lo to hi - 1 do
    if not (skip.(i) || (grouped && lane_member sources skip len i)) then
      filled.(i) <- next_block sources.(i) wbuf cbuf ~off:(i * stride) ~len
  done;
  if grouped then begin
    Hosking.Block.fill_many
      (Array.map (fun (_, l) -> l.blk) group)
      (Array.map (fun (_, l) -> l.rng) group)
      wbuf
      ~offs:(Array.map (fun (i, _) -> i * stride) group)
      ~len;
    Array.iter
      (fun (i, l) ->
        l.remaining := !(l.remaining) - len;
        Option.iter (fun f -> f wbuf (i * stride) len) l.twist;
        finish_block l.h wbuf cbuf (i * stride) len;
        filled.(i) <- len)
      group
  end

let of_mpeg ?(name = "mpeg") ?(order = 512) ?(backend = `Hosking) ?(kernel = `Exact)
    ?horizon ?(phase = 0) ?(priority = false) m rng =
  if phase < 0 then invalid_arg "Source.of_mpeg: phase < 0";
  check_horizon "Source.of_mpeg" horizon;
  let relaxed = kernel = `Fft in
  let gop = m.Mpeg.gop in
  let fill_bg, bg_ckpt, _ =
    bg_filler ~who:"Source.of_mpeg" ~acf:m.Mpeg.background ~order ~backend ~horizon ~kernel
      rng
  in
  let klass kind =
    if not priority then 0
    else match kind with Frame.I -> 0 | Frame.P -> 1 | Frame.B -> 2
  in
  let transform =
    let exact kind = Ss_video.Composite.transform m.Mpeg.composite kind in
    if not relaxed then exact
    else begin
      (* Relax each per-kind transform once up front — [transform] is
         called per slot in the block loop. *)
      let ti = Transform.relax (exact Frame.I) in
      let tp = Transform.relax (exact Frame.P) in
      let tb = Transform.relax (exact Frame.B) in
      function Frame.I -> ti | Frame.P -> tp | Frame.B -> tb
    end
  in
  (* GOP-pattern-averaged per-slot moments: the process is
     cyclostationary, so average E[h_k] and E[h_k^2] over one
     pattern. *)
  let period = Gop.length gop in
  let mean, sigma2 =
    let sum_m = ref 0.0 and sum_m2 = ref 0.0 in
    for i = 0 to period - 1 do
      let h = transform (Gop.kind_at gop i) in
      let mk, vk = Transform.mean_variance h in
      sum_m := !sum_m +. mk;
      sum_m2 := !sum_m2 +. vk +. (mk *. mk)
    done;
    let m1 = !sum_m /. float_of_int period in
    (m1, Stdlib.max 0.0 ((!sum_m2 /. float_of_int period) -. (m1 *. m1)))
  in
  let t = ref phase in
  let pull_block wbuf cbuf off len =
    if len < 0 || off < 0 || off + len > Array.length wbuf || off + len > Array.length cbuf
    then invalid_arg "Source.pull_block: range outside the buffers";
    let f = fill_bg wbuf off len in
    for j = off to off + f - 1 do
      let kind = Gop.kind_at gop !t in
      incr t;
      let w = Transform.apply1 (transform kind) (Array.unsafe_get wbuf j) in
      wbuf.(j) <- (if 0.0 >= w then 0.0 else w);
      cbuf.(j) <- klass kind
    done;
    f
  in
  let wtmp = [| 0.0 |] and ctmp = [| 0 |] in
  let pull () =
    if pull_block wtmp ctmp 0 1 = 1 then (wtmp.(0), ctmp.(0)) else raise End_of_stream
  in
  let ckpt =
    {
      ck_save =
        (fun w ->
          bg_ckpt.ck_save w;
          W.tag w "mpeg-gop";
          W.int w !t);
      ck_restore =
        (fun r ->
          bg_ckpt.ck_restore r;
          R.tag r "mpeg-gop";
          let t' = R.int r in
          if t' < 0 then
            raise (Ss_checkpoint.Corrupt (Printf.sprintf "mpeg-gop: GOP position %d < 0" t'));
          t := t');
    }
  in
  make ~pull_block ~ckpt ~name ~mean ~sigma2 ~hurst:m.Mpeg.i_model.Model.hurst pull
