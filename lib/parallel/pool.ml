(* Fixed-size domain pool. Workers block on a condition variable
   until a batch is published; items are claimed with an atomic
   counter so a slow item does not leave domains idle while others
   remain. Determinism comes from the item->slot mapping and from all
   reductions happening on the calling domain in index order, never
   from scheduling. *)

type batch = {
  work : unit -> unit;  (* claims items until the batch is drained *)
  id : int;  (* generation tag so a worker joins each batch once *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  batch_done : Condition.t;
  mutable batch : batch option;
  mutable active : int;  (* workers currently inside a batch *)
  mutable next_id : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable alive : bool;
}

let worker_loop t =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    let rec await () =
      if t.stop then ()
      else
        match t.batch with
        | Some b when b.id <> !last -> ()
        | _ ->
          Condition.wait t.work_ready t.mutex;
          await ()
    in
    await ();
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      let b = Option.get t.batch in
      last := b.id;
      t.active <- t.active + 1;
      Mutex.unlock t.mutex;
      (* [work] captures its own exceptions; nothing escapes here. *)
      b.work ();
      Mutex.lock t.mutex;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.batch_done;
      Mutex.unlock t.mutex
    end
  done

let create ~domains =
  if domains < 1 || domains > 128 then invalid_arg "Pool.create: domains outside [1, 128]";
  let t =
    {
      size = domains;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      batch = None;
      active = 0;
      next_id = 0;
      stop = false;
      workers = [];
      alive = true;
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let env_domains () =
  match Option.bind (Sys.getenv_opt "SS_DOMAINS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> 1

let with_pool ~domains f =
  if domains <= 1 then f None
  else begin
    let t = create ~domains in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f (Some t))
  end

let check_alive t name = if not t.alive then invalid_arg ("Pool." ^ name ^ ": pool shut down")

(* On a machine with no real parallelism, waking worker domains for a
   batch only adds scheduler round-trips at every join — the caller
   claims items from the same atomic counter either way, so running
   the whole batch on the calling domain is the identical computation
   minus the oversubscription tax. *)
let hw_parallelism = Domain.recommended_domain_count ()

let run t thunks =
  check_alive t "run";
  let n = Array.length thunks in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* First error by item index, so a failure is reproducible under
       any scheduling. *)
    let error = Atomic.make None in
    let work () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          match thunks.(i) () with
          | v -> results.(i) <- Some v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            let rec record () =
              match Atomic.get error with
              | Some (j, _, _) when j < i -> ()
              | cur -> if not (Atomic.compare_and_set error cur (Some (i, e, bt))) then record ()
            in
            record ()
      done
    in
    if t.size = 1 || n = 1 || hw_parallelism <= 1 then work ()
    else begin
      Mutex.lock t.mutex;
      t.next_id <- t.next_id + 1;
      t.batch <- Some { work; id = t.next_id };
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      (* The caller is a participant, not just a dispatcher. *)
      work ();
      Mutex.lock t.mutex;
      while t.active > 0 do
        Condition.wait t.batch_done t.mutex
      done;
      t.batch <- None;
      Mutex.unlock t.mutex
    end;
    match Atomic.get error with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map (function Some v -> v | None -> invalid_arg "Pool.run: lost item") results
  end

let map t f xs = run t (Array.map (fun x () -> f x) xs)

(* Repeated fan-outs over a fixed index range (the multiplexer's
   per-block source prefetch) build their item closures once instead
   of once per batch; only the per-batch claim/result machinery of
   [run] remains. *)
let static_for t ~n f =
  check_alive t "static_for";
  if n <= 0 then invalid_arg "Pool.static_for: n <= 0";
  let thunks = Array.init n (fun i () -> f i) in
  fun () -> ignore (run t thunks : unit array)
