module Table = Ss_fractal.Hosking.Table

type plan = {
  table : Table.t;
  profile : Twist.t;
  delta : float array;  (* delta_k = m_k - sum_j phi_{k,j} m_{k-j} *)
}

let plan ~table ~profile =
  let n = Table.length table in
  let delta =
    match Twist.constant_value profile with
    | Some m0 when m0 = 0.0 -> Array.make n 0.0
    | Some m0 -> Array.init n (fun k -> m0 *. (1.0 -. Table.row_sum table k))
    | None ->
      (* General profile: delta_k = m_k - sum_j phi_{k,j} m_{k-j},
         one conditional-mean pass over the profile itself. *)
      let m = Array.init n (Twist.shift profile) in
      Array.init n (fun k -> m.(k) -. Table.cond_mean table m k)
  in
  { table; profile; delta }

let plan_profile p = p.profile

(* Streaming accumulator over the truncated-Hosking recursion: exact
   rows up to [order = Table.length - 1], then the frozen AR(order)
   filter, mirroring Hosking.Block. Memory is O(order)
   regardless of horizon. *)
type stream = {
  sp : plan;
  order : int;  (* Table.length sp.table - 1 *)
  mhist : float array;
      (* last [order] profile shifts, chronological; empty for
         constant profiles, whose tail delta is just sp.delta.(order) *)
  mutable log_l : float;
  mutable next_k : int;
}

let stream_of_plan sp =
  let order = Table.length sp.table - 1 in
  let mhist =
    match Twist.constant_value sp.profile with
    | Some _ -> [||]
    | None -> Array.make (Stdlib.max order 1) 0.0
  in
  { sp; order; mhist; log_l = 0.0; next_k = 0 }

let stream ~table ~profile = stream_of_plan (plan ~table ~profile)

let stream_reset t =
  t.log_l <- 0.0;
  t.next_k <- 0;
  Array.fill t.mhist 0 (Array.length t.mhist) 0.0

let stream_step t ~k ~innovation =
  if k <> t.next_k then
    invalid_arg (Printf.sprintf "Likelihood.stream_step: expected step %d, got %d" t.next_k k);
  let sp = t.sp in
  let kk = if k < t.order then k else t.order in
  let delta =
    if Array.length t.mhist = 0 then
      (* Constant profile: delta depends only on the (clamped) row. *)
      sp.delta.(kk)
    else begin
      let m_k = Twist.shift sp.profile k in
      let d =
        if k <= t.order then sp.delta.(k)
        else m_k -. Table.cond_mean sp.table t.mhist t.order
      in
      (if t.order > 0 then
         if k < t.order then t.mhist.(k) <- m_k
         else begin
           Array.blit t.mhist 1 t.mhist 0 (t.order - 1);
           t.mhist.(t.order - 1) <- m_k
         end);
      d
    end
  in
  (if delta <> 0.0 then
     let v = Table.cond_var sp.table kk in
     t.log_l <- t.log_l -. (((2.0 *. innovation *. delta) +. (delta *. delta)) /. (2.0 *. v)));
  t.next_k <- k + 1

let stream_log_ratio t = t.log_l
let stream_steps t = t.next_k
