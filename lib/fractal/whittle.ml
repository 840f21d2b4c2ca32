let two_pi = 8.0 *. atan 1.0

(* Unnormalized Paley-Wiener sum for the FGN spectral shape. 50
   aliasing terms keep the relative truncation error below ~1e-5 for
   H >= 0.5. *)
let pw_sum ~h lambda =
  let expo = -.((2.0 *. h) +. 1.0) in
  let s = ref (abs_float lambda ** expo) in
  for j = 1 to 50 do
    let fj = two_pi *. float_of_int j in
    s := !s +. ((lambda +. fj) ** expo) +. (abs_float (lambda -. fj) ** expo)
  done;
  (1.0 -. cos lambda) *. !s

(* Normalizing constant for unit process variance: the density must
   integrate to 1 over (-pi, pi). The integrand has a lambda^{1-2H}
   singularity at the origin, so integrate in log-lambda where it is
   smooth. Cached per H in an immutable map swapped in by
   compare-and-set, so concurrent domains read it without a lock; a
   racing duplicate build is deterministic and the first one
   published wins. *)
module Float_map = Map.Make (Float)

let norm_cache : float Float_map.t Atomic.t = Atomic.make Float_map.empty

let rec publish h c =
  let m = Atomic.get norm_cache in
  match Float_map.find_opt h m with
  | Some published -> published
  | None -> if Atomic.compare_and_set norm_cache m (Float_map.add h c m) then c else publish h c

let normalization ~h =
  match Float_map.find_opt h (Atomic.get norm_cache) with
  | Some c -> c
  | None ->
    let integral =
      Ss_stats.Quadrature.simpson ~eps:1e-9 ~max_depth:30
        (fun t ->
          let lambda = exp t in
          pw_sum ~h lambda *. lambda)
        ~lo:(log 1e-10)
        ~hi:(log (two_pi /. 2.0))
    in
    publish h (1.0 /. (2.0 *. integral))

let fgn_spectral_density ~h lambda =
  if h <= 0.0 || h >= 1.0 then invalid_arg "Whittle.fgn_spectral_density: h outside (0,1)";
  if lambda <= 0.0 || lambda > two_pi /. 2.0 then
    invalid_arg "Whittle.fgn_spectral_density: lambda outside (0, pi]";
  normalization ~h *. pw_sum ~h lambda

type estimate = {
  h : float;
  objective : float;
}

let estimate ?(low_fraction = 0.5) x =
  if Array.length x < 128 then invalid_arg "Whittle.estimate: need >= 128 points";
  let pts = Ss_fft.Periodogram.compute x in
  let keep =
    Stdlib.max 8 (int_of_float (low_fraction *. float_of_int (Array.length pts)))
  in
  let pts = Array.sub pts 0 (Stdlib.min keep (Array.length pts)) in
  let objective h =
    (* Q(H) = log(mean I/f) + mean log f, evaluated on the raw
       spectral shape: any H-dependent normalizing constant cancels
       between the two terms, so pw_sum is used directly. *)
    let n = Array.length pts in
    let ratio = ref 0.0 and logf = ref 0.0 in
    Array.iter
      (fun (l, i) ->
        let f = pw_sum ~h l in
        ratio := !ratio +. (i /. f);
        logf := !logf +. log f)
      pts;
    log (!ratio /. float_of_int n) +. (!logf /. float_of_int n)
  in
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let a = ref 0.501 and b = ref 0.999 in
  let c = ref (!b -. (phi *. (!b -. !a))) in
  let d = ref (!a +. (phi *. (!b -. !a))) in
  let fc = ref (objective !c) and fd = ref (objective !d) in
  for _ = 1 to 40 do
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (phi *. (!b -. !a));
      fc := objective !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (phi *. (!b -. !a));
      fd := objective !d
    end
  done;
  let h = (!a +. !b) /. 2.0 in
  { h; objective = objective h }
