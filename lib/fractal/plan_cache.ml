(* One Hosking table (or Davies–Harte / overlap-save plan) per
   (background ACF, order/length) — N same-model sources and every
   importance-sampling configuration share the O(order^2)
   coefficients.

   The key is a structural fingerprint of the ACF — its values
   sampled on a fixed lag grid — not the ACF's display name: two
   distinct models that happen to share a name must not collide. The
   table is fully determined by [r] on lags 0..order, so equal
   fingerprints that still differed beyond the grid could at worst
   share bit-identical-by-construction coefficients of a different
   model; 64 sampled lags spread across the whole range make that a
   measure-zero concern for the smooth ACF families used here. *)
let fingerprint ~acf ~order =
  let samples = 64 in
  let buf = Buffer.create (samples * 8) in
  for i = 0 to samples - 1 do
    let k = i * order / (samples - 1) in
    Buffer.add_int64_le buf (Int64.bits_of_float (acf.Acf.r k))
  done;
  Digest.string (Buffer.contents buf)

type stats = { hits : int; misses : int; evictions : int }

(* Bounded LRU under a mutex, shared by the table and plan caches.
   Values are deterministic functions of the key, so eviction only
   costs a rebuild — a re-fit after eviction is bit-identical (unit
   tested). Builds happen OUTSIDE the lock (construction is
   O(order^2)), inserted if-absent on completion, so a cold start
   never serializes distinct keys behind one Durbin–Levinson fit —
   N shards warming N different models fit concurrently. Same-key
   racers do not duplicate the fit either: the first requester
   registers the key as [pending] and builds; later requesters wait
   on the condition variable and pick up the winner's entry, so
   concurrent lookups of one key always yield one shared (physically
   equal) table. A failed build unregisters the key, wakes the
   waiters, and lets the next requester retry. *)
module Lru = struct
  type 'a entry = { value : 'a; mutable last_use : int }

  type 'a t = {
    tbl : (string * int, 'a entry) Hashtbl.t;
    pending : (string * int, unit) Hashtbl.t;  (* keys being built *)
    built : Condition.t;  (* a pending build completed or failed *)
    mutex : Mutex.t;
    mutable cap : int;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create cap =
    {
      tbl = Hashtbl.create 8;
      pending = Hashtbl.create 4;
      built = Condition.create ();
      mutex = Mutex.create ();
      cap;
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let evict_lru_locked t =
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.last_use -> acc
          | _ -> Some (k, e.last_use))
        t.tbl None
    in
    match victim with
    | None -> ()
    | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evictions <- t.evictions + 1

  let stats t =
    Mutex.lock t.mutex;
    let s = { hits = t.hits; misses = t.misses; evictions = t.evictions } in
    Mutex.unlock t.mutex;
    s

  let set_capacity t cap =
    Mutex.lock t.mutex;
    t.cap <- cap;
    while Hashtbl.length t.tbl > t.cap do
      evict_lru_locked t
    done;
    Mutex.unlock t.mutex

  let length t =
    Mutex.lock t.mutex;
    let n = Hashtbl.length t.tbl in
    Mutex.unlock t.mutex;
    n

  let find_or_build t key build =
    let claim =
      Mutex.lock t.mutex;
      let rec decide () =
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          t.tick <- t.tick + 1;
          e.last_use <- t.tick;
          t.hits <- t.hits + 1;
          `Hit e.value
        | None ->
          if Hashtbl.mem t.pending key then begin
            (* Someone is fitting this key right now: wait for the
               completion broadcast instead of burning a domain on a
               duplicate O(order^2) fit, then re-check (the winner's
               entry is normally there; if the build failed or the
               entry was already evicted, retry as a builder). *)
            Condition.wait t.built t.mutex;
            decide ()
          end
          else begin
            Hashtbl.add t.pending key ();
            t.misses <- t.misses + 1;
            `Build
          end
      in
      let r = decide () in
      Mutex.unlock t.mutex;
      r
    in
    match claim with
    | `Hit v -> v
    | `Build ->
      let v =
        try build ()
        with e ->
          Mutex.lock t.mutex;
          Hashtbl.remove t.pending key;
          Condition.broadcast t.built;
          Mutex.unlock t.mutex;
          raise e
      in
      Mutex.lock t.mutex;
      Hashtbl.remove t.pending key;
      let winner =
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          (* Unreachable while pending dedup holds (only the claimant
             inserts this key), kept as insert-if-absent so a racing
             insert could never shadow an entry. *)
          t.tick <- t.tick + 1;
          e.last_use <- t.tick;
          e.value
        | None ->
          while Hashtbl.length t.tbl >= t.cap do
            evict_lru_locked t
          done;
          t.tick <- t.tick + 1;
          Hashtbl.add t.tbl key { value = v; last_use = t.tick };
          v
      in
      Condition.broadcast t.built;
      Mutex.unlock t.mutex;
      winner
end

let default_capacity = 16
let tables : Hosking.Table.t Lru.t = Lru.create default_capacity
let dh_plans : Davies_harte.plan Lru.t = Lru.create default_capacity
let fft_plans : Hosking.Fft_plan.t Lru.t = Lru.create default_capacity

let set_table_capacity cap =
  if cap < 1 then invalid_arg "Plan_cache.set_table_capacity: capacity < 1";
  Lru.set_capacity tables cap

let table_count () = Lru.length tables

let stats () =
  [
    ("hosking-table", Lru.stats tables);
    ("davies-harte-plan", Lru.stats dh_plans);
    ("hosking-fft-plan", Lru.stats fft_plans);
  ]

let table ~acf ~order =
  if order < 0 || order > 19_999 then invalid_arg "Plan_cache.table: order outside [0, 19999]";
  Lru.find_or_build tables (fingerprint ~acf ~order, order) (fun () ->
      Hosking.Table.make ~acf ~n:(order + 1))

let dh_plan ~acf ~n =
  if n < 1 then invalid_arg "Plan_cache.dh_plan: n < 1";
  Lru.find_or_build dh_plans (fingerprint ~acf ~order:n, n) (fun () -> Davies_harte.plan ~acf ~n)

let fft_plan ~acf ~order =
  if order < 1 || order > 19_999 then
    invalid_arg "Plan_cache.fft_plan: order outside [1, 19999]";
  Lru.find_or_build fft_plans (fingerprint ~acf ~order, order)
    (* The plan is a pure function of (ACF, order): the table lookup
       below hits (or populates) the table cache, and the partition
       spectra derived from any bit-identical re-fit are themselves
       bit-identical. *)
    (fun () -> Hosking.Fft_plan.make ~table:(table ~acf ~order) ~order)
