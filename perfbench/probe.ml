(* Measurement primitives shared by every workload: a monotonic
   nanosecond clock, a per-domain index, process memory, the machine
   record, and order statistics. None of these allocate on the timed
   paths: the clock read and [Gc.minor_words] are unboxed externals. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Small dense index per domain: the first domain to ask gets 0, so
   [init_caller] must run on the main domain before any pool exists.
   Pull wrappers use it to split busy time by domain. *)
let max_domains = 8
let next_index = Atomic.make 0
let index_key = Domain.DLS.new_key (fun () -> Atomic.fetch_and_add next_index 1)
let domain_index () = Domain.DLS.get index_key
let init_caller () = assert (domain_index () = 0)

let read_file path =
  match open_in path with
  | ic ->
    let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
    Some s
  | exception Sys_error _ -> None

(* Peak resident set of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> nan
  | Some s ->
    let kb = ref nan in
    List.iter
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun k -> kb := float_of_int k)
        | _ -> ())
      (String.split_on_char '\n' s);
    !kb /. 1024.0

(* Online CPUs from the kernel's range list ("0-1", "0,2-3"). *)
let nproc () =
  match read_file "/sys/devices/system/cpu/online" with
  | None -> Domain.recommended_domain_count ()
  | Some s ->
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
        | [ a ] when a <> "" -> acc + 1
        | _ -> acc)
      0
      (String.split_on_char ',' s)

(* Size and level of the highest cache level visible to cpu0. *)
let last_level_cache () =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let best = ref (0, "unknown") in
  (match Sys.readdir dir with
  | entries ->
    Array.iter
      (fun e ->
        let get f = Option.map String.trim (read_file (Filename.concat (Filename.concat dir e) f)) in
        match (get "level", get "size") with
        | Some l, Some size -> (
          match int_of_string_opt l with
          | Some l when l > fst !best -> best := (l, size)
          | _ -> ())
        | _ -> ())
      entries
  | exception Sys_error _ -> ());
  !best

let machine_json ~domains =
  let level, size = last_level_cache () in
  Printf.sprintf
    "{\"nproc\": %d, \"recommended_domain_count\": %d, \"domains\": %d, \
     \"ocaml_version\": \"%s\", \"flambda\": %b, \"llc_level\": %d, \"llc_size\": \"%s\", \
     \"word_size\": %d}"
    (nproc ())
    (Domain.recommended_domain_count ())
    domains Build_info.ocaml_version Build_info.flambda level size Sys.word_size

(* Domains a workload uses: two where the host has them (the contract
   caps every workload at nproc = 2), otherwise one. *)
let workload_domains () = max 1 (min 2 (min (nproc ()) (Domain.recommended_domain_count ())))

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Type-7 sample quantile of an ascending array. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5

(* The highest percentile that still leaves at least ten samples
   beyond it: with n samples, 100 * (n - 10) / n (floored to a whole
   percent). Returns (percentile, value, samples beyond). Runs too
   short to have one report their maximum, as percentile 100. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (100, nan, 0)
  else if n <= 10 then (100, a.(n - 1), 0)
  else
    let pct = 100 * (n - 10) / n in
    let v = quantile_sorted a (float_of_int pct /. 100.0) in
    let beyond = Array.fold_left (fun c x -> if x > v then c + 1 else c) 0 a in
    (pct, v, beyond)

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)
