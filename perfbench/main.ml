(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload NAME --held-out --seconds S --trace 0|1
     main.exe --smoke

   Runs one seeded workload through the public library API, checks its
   outputs, prints the machine record and every metric as
   "name value unit" lines, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
   end-to-end metrics, --trace 1 the per-layer ones. See README.md. *)

let workloads = [ "fleet_exact"; "replay_wide"; "abr_policed"; "is_overflow" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (fleet_exact|replay_wide|abr_policed|is_overflow) \
     (--seed N | --held-out) --seconds S --trace 0|1\n\
    \       main.exe --smoke";
  exit 2

let run_workload (ctx : Common.ctx) name =
  let inputs = Common.inputs ~seed:ctx.seed in
  (* Inputs are generated before anything is timed. *)
  ignore (Lazy.force inputs.intra);
  ignore (Lazy.force inputs.ibp);
  let cache0 = Common.cache_totals () in
  let with_pool pool f = Fun.protect ~finally:(fun () -> Option.iter Ss_parallel.Pool.shutdown pool) f in
  match name with
  | "is_overflow" ->
    let cfg, pool, setup = Is_workload.setup_workload ctx inputs in
    with_pool pool (fun () ->
        if ctx.trace then Is_workload.traced ctx inputs ~pool ~cache0 cfg setup
        else Is_workload.timed ctx inputs ~pool cfg setup)
  | _ ->
    let build =
      match name with
      | "fleet_exact" -> Mux_workloads.fleet_exact
      | "replay_wide" -> Mux_workloads.replay_wide
      | _ -> Mux_workloads.abr_policed
    in
    let wl, pool, setup = build ctx inputs in
    with_pool pool (fun () ->
        if ctx.trace then Mux_workloads.traced ctx ~pool ~cache0 wl setup
        else Mux_workloads.timed ctx ~pool wl setup)

let lines ctx name (r : Out.result) =
  [ Printf.sprintf "# workload %s seed %d seconds %g trace %d" name ctx.Common.seed ctx.seconds
      (if ctx.trace then 1 else 0);
    "# machine " ^ Probe.machine_json ~domains:ctx.domains ]
  @ List.map (fun n -> "# " ^ n) r.notes
  @ List.map (fun (m : Out.metric) -> Printf.sprintf "%s %.6g %s" m.name m.value m.unit_) r.metrics
  @ [
      Printf.sprintf "failed_ratio %.6g ratio" (float_of_int r.failed /. float_of_int (max 1 r.attempted));
      Out.json_line r;
    ]

let scratch () =
  let dir = ".perfbench-tmp" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let remove_scratch dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Seconds-scale self-check: every workload at smoke sizes, both
   modes; each JSON line must be strict JSON (Ss_json.validate) and
   carry exactly its mode's metric catalogue. *)
let smoke () =
  let tmp = scratch () in
  let ok = ref true in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let ctx =
            { Common.seed = Common.default_seed; seconds = 0.1; trace; small = true; tmp;
              domains = Probe.workload_domains () }
          in
          let r = run_workload ctx name in
          let json = Out.json_line r in
          let names = List.map (fun (m : Out.metric) -> m.name) r.metrics in
          let expected = List.map fst (if trace then Common.per_layer_units else Common.end_to_end_units) in
          let verdict =
            match Ss_json.validate json with
            | Error e -> Some ("invalid JSON: " ^ e)
            | Ok () when names <> expected -> Some "metric names differ from the catalogue"
            | Ok () when r.failed > 0 -> Some (String.concat "; " r.notes)
            | Ok () -> None
          in
          Printf.printf "smoke %s trace=%b: %s\n%!" name trace
            (match verdict with None -> "ok" | Some e -> ok := false; "FAILED " ^ e))
        [ false; true ])
    workloads;
  remove_scratch tmp;
  exit (if !ok then 0 else 1)

let () =
  Probe.init_caller ();
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let smoke_mode = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> (match int_of_string_opt v with Some s -> seed := Some s | None -> usage ()); parse rest
    | "--held-out" :: rest -> seed := Some Common.held_out_seed; parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := int_of_string v; parse rest
    | "--smoke" :: rest -> smoke_mode := true; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !smoke_mode then smoke ();
  if not (List.mem !workload workloads) then usage ();
  let tmp = scratch () in
  let ctx =
    {
      Common.seed = Option.value !seed ~default:Common.default_seed;
      seconds = !seconds;
      trace = !trace = 1;
      small = false;
      tmp;
      domains = Probe.workload_domains ();
    }
  in
  let r =
    match run_workload ctx !workload with
    | r -> r
    | exception e ->
      (* A run that raised is one failed unit; nothing was measured. *)
      let catalogue = if ctx.trace then Common.per_layer_units else Common.end_to_end_units in
      {
        Out.attempted = 1;
        failed = 1;
        metrics = Common.complete catalogue [];
        notes = [ "run raised " ^ Printexc.to_string e ];
      }
  in
  remove_scratch tmp;
  List.iter print_endline (lines ctx !workload r)
