(* End-to-end benchmark of [rapid check] on four pinned workloads.

   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] it sets the workload up from the seed several
   times (setup_s), then spawns [rapid check --jobs 1 <inputs>] one
   child at a time for S seconds, timing each from outside and checking
   every verdict it reports.  With [--trace 1] it instead repeats the
   in-process traced run (Layers) for S seconds and reports per-layer
   metrics; that run takes the CLI's default path on a 2-core host,
   the work-stealing scheduler over 2 domains.

   The children check sequentially because a 2-domain child needs both
   cores of a 2-core host at once: whatever else takes one core for a
   while (another guest's steal, a neighbour's process) stalls its
   parallel section and the idle domain spins in the scheduler's
   helping wait, so wall and CPU time follow the host's load rather
   than the program.  On a 2-core virtual machine, one busy process on
   one core slowed a 2-domain child of the independent workload by 60%
   and a 1-domain child by 4%.  The sharded path is measured by the
   traced run instead.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   [--workload all] runs every workload and prints one table;
   [--smoke] runs all four at a tiny scale in both modes and fails
   unless every metric is present and every verdict is right. *)

(* Timings are reported as the median and the 90th percentile of the
   children of a run; only the percentiles are in the result line (and
   BENCHMARK.json).  Over a run, a child's time swings between two
   levels, up to 2x apart, as the host lends the cores a faster clock
   or takes it back.  The median follows the share of the run spent at
   the fast level, which drifts from run to run; the 90th percentile
   follows the slow level, which is steady, and grows with the
   program's work just the same. *)
let e2e_names =
  [ "verdict_s"; "verdict_p90_s"; "cpu_s"; "cpu_p90_s"; "peak_rss_mb"; "setup_s" ]

let gated = [ "verdict_p90_s"; "cpu_p90_s"; "peak_rss_mb"; "setup_s" ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if name = "peak_rss_mb" || ends "_mb" then "MB"
  else if ends "_meps" || ends ".meps" then "Mevent/s"
  else if ends "mb_per_s" then "MB/s"
  else if ends "_s" || ends "_s_sum" || ends "_s_max" || name = "prefilter.s" then "s"
  else if ends "_frac" || ends "efficiency" || ends "utilization" then "fraction"
  else if ends "per_event" then "words/event"
  else "count"

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank *)
let p90 = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    a.(int_of_float (Float.ceil (0.9 *. float_of_int (Array.length a))) - 1)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* inputs and result files *)
let work = "perfbench/_work"

type opts = {
  rapid : string;
  jobs : int;  (** [rapid check --jobs] of the end-to-end children *)
  domains : int;  (** scheduler domains of the traced run *)
  scale : float;
  seed : int;
  seconds : float;
  setups : int;  (** least timed set-ups per end-to-end run (median reported) *)
  setup_budget_s : float;
      (** further set-ups run until their times add up to this, so a
          workload that sets up quickly gets a steadier median *)
}

type result = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  samples : int;
  raw : (string * float list) list;  (** per-sample values, for the result file *)
}

(* ---- host record ---- *)

let git_commit () =
  try
    let r, w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
    let pid =
      Unix.create_process "git" [| "git"; "rev-parse"; "HEAD" |] null w null
    in
    Unix.close w;
    let out = In_channel.input_all (Unix.in_channel_of_descr r) in
    Unix.close r;
    Unix.close null;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> String.trim out
    | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let host o (w : Suite.t) =
  let nproc = Child.nproc () in
  let flags = String.concat " " (List.tl (Child.argv ~rapid:"rapid" ~jobs:o.jobs w [])) in
  Obs.Json.Obj
    [
      ("nproc", Obs.Json.Num (float_of_int nproc));
      ( "recommended_domain_count",
        Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())) );
      ("ocaml_version", Obs.Json.Str Sys.ocaml_version);
      ("git_commit", Obs.Json.Str (git_commit ()));
      ("seed", Obs.Json.Num (float_of_int o.seed));
      ("workload", Obs.Json.Str w.name);
      ("rapid_flags", Obs.Json.Str (flags ^ " <inputs>"));
      ("jobs", Obs.Json.Num (float_of_int o.jobs));
      ("traced_domains", Obs.Json.Num (float_of_int o.domains));
      ("fewer_cores_than_jobs", Obs.Json.Bool (nproc < max o.jobs o.domains));
      ("scale", Obs.Json.Num o.scale);
    ]

let metrics_json ms =
  Obs.Json.Obj
    (List.map
       (fun (k, v) ->
         (k, Obs.Json.Obj [ ("value", Obs.Json.Num v); ("unit", Obs.Json.Str (unit_of k)) ]))
       ms)

(* ---- the two modes ---- *)

(* Each set-up starts from a compacted heap, so the collector's state
   left by the previous one does not leak into its time. *)
let setup o (w : Suite.t) ~oracle =
  let dir = Filename.concat work w.name in
  mkdir_p dir;
  Gc.compact ();
  let inputs, seconds = Suite.build w ~scale:o.scale ~seed:o.seed ~dir ~oracle in
  Gc.compact ();
  (dir, inputs, seconds)

let end_to_end o (w : Suite.t) =
  (* the first set-up computes the expected answers and warms the heap;
     only the ones after it are timed *)
  let dir, inputs, _ = setup o w ~oracle:true in
  let rec setups acc =
    if List.length acc >= o.setups && List.fold_left ( +. ) 0. acc >= o.setup_budget_s
    then acc
    else
      let _, _, s = setup o w ~oracle:false in
      setups (s :: acc)
  in
  let setup_s = List.rev (setups []) in
  let child () = Child.run ~rapid:o.rapid ~jobs:o.jobs ~dir w inputs in
  (* one warm-up child: its verdicts count, its timings do not *)
  let warm = child () in
  let t0 = Spans.now () in
  let rec loop acc =
    if List.length acc >= 3 && Spans.now () -. t0 >= o.seconds then acc
    else loop (child () :: acc)
  in
  let runs = loop [] in
  let all = warm :: runs in
  let per stat f = stat (List.map f runs) in
  {
    metrics =
      [
        ("verdict_s", per median (fun r -> r.Child.wall_s));
        ("verdict_p90_s", per p90 (fun r -> r.Child.wall_s));
        ("cpu_s", per median (fun r -> r.Child.cpu_s));
        ("cpu_p90_s", per p90 (fun r -> r.Child.cpu_s));
        ("peak_rss_mb", per median (fun r -> r.Child.rss_mb));
        ("setup_s", median setup_s);
      ];
    attempted = List.length all * List.length inputs;
    failed = List.fold_left (fun a r -> a + r.Child.wrong) 0 all;
    samples = List.length runs;
    raw =
      [
        ("verdict_s", List.map (fun r -> r.Child.wall_s) runs);
        ("cpu_s", List.map (fun r -> r.Child.cpu_s) runs);
        ("peak_rss_mb", List.map (fun r -> r.Child.rss_mb) runs);
        ("steal", List.map (fun r -> r.Child.steal) runs);
        ("setup_s", setup_s);
      ];
  }

let traced o (w : Suite.t) =
  let _, inputs, _ = setup o w ~oracle:true in
  let domains = o.domains in
  let t0 = Spans.now () in
  let rec loop acc =
    if acc <> [] && Spans.now () -. t0 >= o.seconds then acc
    else loop (Layers.run ~domains w inputs :: acc)
  in
  let reps = loop [] in
  let values name = List.map (fun (l : Layers.run) -> List.assoc name l.metrics) reps in
  {
    metrics = List.map (fun name -> (name, median (values name))) Layers.names;
    attempted = List.fold_left (fun a (l : Layers.run) -> a + l.checked) 0 reps;
    failed = List.fold_left (fun a (l : Layers.run) -> a + l.wrong) 0 reps;
    samples = List.length reps;
    raw = [];
  }

(* ---- reporting ---- *)

let print_table name trace r =
  Printf.printf "%s (%s, %d samples)\n" name
    (if trace then "traced run, medians" else "rapid check children")
    r.samples;
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %14.6f %s\n" k v (unit_of k))
    r.metrics;
  Printf.printf "  %-28s %14.6f fraction (%d of %d)\n" "wrong_verdict_frac"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted

let run_workload o ~trace (w : Suite.t) =
  Spans.recorded := [];
  let ticks0 = Child.cpu_ticks () in
  let r = if trace then traced o w else end_to_end o w in
  let steal_frac = Child.steal_share ticks0 (Child.cpu_ticks ()) in
  let results = Filename.concat work "results" in
  mkdir_p results;
  let stem = Printf.sprintf "%s-seed%d-trace%d" w.name o.seed (Bool.to_int trace) in
  let host = host o w in
  let layer_self =
    if not trace then []
    else begin
      let path = Filename.concat results (stem ^ ".chrome.json") in
      Spans.write_chrome path ~other:host;
      Spans.layer_self_seconds path
    end
  in
  let doc =
    Obs.Json.Obj
      [
        ("host", host);
        ("cpu_steal_frac", Obs.Json.Num steal_frac);
        ("samples", Obs.Json.Num (float_of_int r.samples));
        ("attempted", Obs.Json.Num (float_of_int r.attempted));
        ("failed", Obs.Json.Num (float_of_int r.failed));
        ( "wrong_verdict_frac",
          Obs.Json.Num (float_of_int r.failed /. float_of_int (max 1 r.attempted)) );
        ("metrics", metrics_json r.metrics);
        ( "raw",
          Obs.Json.Obj
            (List.map
               (fun (k, vs) -> (k, Obs.Json.List (List.map (fun v -> Obs.Json.Num v) vs)))
               r.raw) );
        ( "layer_self_s",
          Obs.Json.Obj (List.map (fun (l, s) -> (l, Obs.Json.Num s)) layer_self) );
      ]
  in
  Out_channel.with_open_bin
    (Filename.concat results (stem ^ ".json"))
    (fun oc -> output_string oc (Json_out.to_string doc));
  print_table w.name trace r;
  Printf.printf "  %-28s %14.6f fraction (host CPU stolen by other guests)\n"
    "cpu_steal_frac" steal_frac;
  List.iter (fun (l, s) -> Printf.printf "  self %-23s %14.6f s\n" l s) layer_self;
  r

let final_line ~attempted ~failed metrics =
  print_endline
    (Json_out.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (failed = 0));
            ("attempted", Obs.Json.Num (float_of_int attempted));
            ("failed", Obs.Json.Num (float_of_int failed));
            ("metrics", metrics_json metrics);
          ]))

(* Tiny-scale run of every workload in both modes: every metric must be
   present and finite, and every verdict right. *)
let smoke o =
  let o = { o with scale = 0.002; seconds = 0.; setups = 2; setup_budget_s = 0. } in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : Suite.t) ->
      List.iter
        (fun (trace, names) ->
          let r = run_workload o ~trace w in
          if r.failed <> 0 then
            fail "%s trace=%b: %d of %d verdicts wrong" w.name trace r.failed r.attempted;
          List.iter
            (fun n ->
              match List.assoc_opt n r.metrics with
              | None -> fail "%s trace=%b: metric %s missing" w.name trace n
              | Some v when Float.is_nan v || Float.abs v = infinity ->
                fail "%s trace=%b: metric %s is %f" w.name trace n v
              | Some _ -> ())
            names)
        [ (false, e2e_names); (true, Layers.names) ])
    Suite.all;
  match List.rev !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter prerr_endline ps;
    exit 1

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--launcher" then Child.serve ();
  let workload = ref "" and trace = ref 0 and is_smoke = ref false in
  let o =
    ref
      {
        rapid = "_build/default/bin/rapid.exe";
        jobs = 1;
        (* the CLI's default --jobs budget on a 2-core host, pinned so
           results compare across hosts (a smaller host is flagged) *)
        domains = 2;
        scale = 1.0;
        seed = 1;
        seconds = 10.;
        setups = 3;
        setup_budget_s = 4.;
      }
  in
  let set f = Arg.String (fun s -> o := f !o s) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload, or all");
      ("--seed", set (fun o s -> { o with seed = int_of_string s }), "N input seed");
      ( "--seconds",
        set (fun o s -> { o with seconds = float_of_string s }),
        "S measuring time" );
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--rapid", set (fun o s -> { o with rapid = s }), "PATH rapid executable");
      ("--smoke", Arg.Set is_smoke, " tiny run of every workload, with assertions");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench: end-to-end rapid check benchmark";
  let o = !o in
  if not (Sys.file_exists o.rapid) then begin
    prerr_endline ("perfbench: no rapid executable at " ^ o.rapid);
    exit 2
  end;
  if Child.nproc () < o.domains then
    Printf.eprintf "perfbench: warning: %d cores, fewer than the traced run's %d domains\n%!"
      (Child.nproc ()) o.domains;
  Child.start_launcher ();
  at_exit Child.stop_launcher;
  if !is_smoke then smoke o
  else
    let trace = !trace = 1 in
    let workloads =
      if !workload = "all" then Suite.all
      else
        match Suite.find !workload with
        | Some w -> [ w ]
        | None ->
          prerr_endline ("perfbench: unknown workload " ^ !workload);
          exit 2
    in
    let rs = List.map (fun w -> (w, run_workload o ~trace w)) workloads in
    let result_metrics r = List.filter (fun (k, _) -> trace || List.mem k gated) r.metrics in
    let metrics =
      match rs with
      | [ (_, r) ] -> result_metrics r
      | _ ->
        List.concat_map
          (fun ((w : Suite.t), r) ->
            List.map (fun (k, v) -> (w.name ^ "." ^ k, v)) (result_metrics r))
          rs
    in
    final_line
      ~attempted:(List.fold_left (fun a (_, r) -> a + r.attempted) 0 rs)
      ~failed:(List.fold_left (fun a (_, r) -> a + r.failed) 0 rs)
      metrics
