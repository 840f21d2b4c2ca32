module Plan_cache = Ss_fractal.Plan_cache
module Transform = Ss_fractal.Transform

let table model ~n =
  if n <= 0 || n > 20_000 then invalid_arg "Generate.table: n outside [1, 20000]";
  Plan_cache.table ~acf:(Model.background_acf model) ~order:(n - 1)

let background model ~n rng =
  if n <= 0 then invalid_arg "Generate.background: n <= 0";
  Ss_fractal.Davies_harte.generate (Plan_cache.dh_plan ~acf:(Model.background_acf model) ~n) rng

let foreground model ~n rng = Transform.apply model.Model.transform (background model ~n rng)

let arrival_fn model =
  let h = model.Model.transform in
  fun _i x -> Transform.apply1 h x
