(* Result records: metric lines for people, the final JSON line for the
   harness, and the bitwise report digest the output checks compare. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Every float by IEEE-754 bit pattern, every int and name exactly —
   the same fields [Mux.equal_report] compares — folded into one MD5. *)
let report_digest (r : Ss_mux.Mux.report) =
  let b = Buffer.create 4096 in
  let f x = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float x)) in
  let i x = Buffer.add_string b (Printf.sprintf "%d;" x) in
  let pairs l = List.iter (fun (x, y) -> f x; f y) l in
  let open Ss_mux.Mux in
  i r.slots;
  f r.service;
  f r.buffer;
  f r.offered_utilization;
  f r.carried_utilization;
  f r.loss_fraction;
  f r.mean_queue;
  f r.max_queue;
  pairs r.queue_quantiles;
  pairs r.delay_quantiles;
  List.iter (fun (c, l) -> i c; pairs l) r.class_delay_quantiles;
  pairs r.overflow;
  Array.iter
    (fun (s : source_report) ->
      Buffer.add_string b s.name;
      f s.offered;
      f s.admitted;
      f s.lost;
      f s.loss_fraction;
      f s.mean_rate;
      f s.peak_rate;
      i s.corrupt_slots;
      f s.throttled;
      f s.discarded;
      i (Option.value s.departed_at ~default:(-1)))
    r.per_source;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Outcome of one workload invocation. [attempted]/[failed] count the
   workload's units (batches, or replications for the importance
   sampler); [notes] are free-form lines printed before the result. *)
type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

let number v =
  (* Full precision, and never a non-JSON token: a value that is not
     finite (a run too short to measure it) is written as 0. *)
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line r =
  let metrics =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (number m.value)
             m.unit_)
         r.metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0 && r.attempted > 0)
    r.attempted r.failed metrics
