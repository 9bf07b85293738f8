(* The traced run: the work [rapid check --jobs 2] does on a workload, redone
   in-process one layer at a time through each layer's public
   functions, with a span around every call.  Returns the per-layer
   metrics of one run; a layer the workload never reaches reads 0
   (prefilter.kept_frac included).

   Every verdict the layers produce is compared with the expected
   answer; [wrong] counts the ones that differ.

   runner.self_s is the wall of the runner call that does the whole job
   minus the walls of the layer calls that redo it piecewise: decode,
   prefilter and the sharded check for a binary trace, parse and check
   against the sequential run_file calls for the corpus.  It is negative
   when the runner's fused path beats the piecewise replay. *)

open Traces

let span = Spans.span
let opt : Aerodrome.Checker.t = (module Aerodrome.Opt)

type run = {
  metrics : (string * float) list;
  wrong : int;
  checked : int;
}

let names =
  [
    "binfmt.decode_s"; "binfmt.decode_meps"; "binfmt.footer_s";
    "parser.fold_s"; "parser.mb_per_s";
    "prefilter.s"; "prefilter.kept_frac";
    "merge.plan_s"; "merge.seamed_cuts"; "merge.planned_repair_frac";
    "merge.tainted_events";
    "shard.wall_s"; "shard.chunk_s_sum"; "shard.chunk_s_max"; "shard.merge_s";
    "shard.repaired_events"; "shard.repair_frac"; "shard.efficiency";
    "sched.steals"; "sched.failed_steals"; "sched.injected"; "sched.utilization";
    "opt.check_s"; "opt.meps"; "opt.minor_words_per_event";
    "runner.self_s"; "runner.file_p50_s"; "runner.file_p95_s"; "runner.many_s";
    "runner.fanout_efficiency";
    "gc.minor_collections"; "gc.major_collections"; "gc.top_heap_mb";
    "trace.overhead_frac";
  ]

let verdict_of = function
  | None -> Suite.Serializable
  | Some v -> Suite.Violation v.Aerodrome.Violation.index

let runner_verdict (r : Analysis.Runner.result) =
  match r.outcome with
  | Analysis.Runner.Verdict v -> Some (verdict_of v)
  | Analysis.Runner.Timed_out -> None

let file_verdict (fr : Analysis.Runner.file_report) =
  match fr.report with Ok r -> runner_verdict r | Error _ -> None

(* Events the checker consumed: up to and including a violation. *)
let consumed total = function
  | Suite.Serializable -> total
  | Suite.Violation i -> i + 1

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    a.(min (Array.length a - 1) (int_of_float (p *. float_of_int (Array.length a))))

(* Sequential Opt over an arena, with the minor words it allocated. *)
let opt_check ~threads ~locks ~vars arena =
  let w0 = Gc.minor_words () in
  let v =
    span "opt.check" (fun () ->
        Aerodrome.Checker.run_arena opt ~threads ~locks ~vars arena)
  in
  (verdict_of v, Gc.minor_words () -. w0)

(* The runner's path through the scheduler, as the CLI drives it, with
   the scheduler's own statistics read before shutdown. *)
let with_sched ~domains f =
  let sched = Parallel.Deque.create domains in
  Fun.protect
    ~finally:(fun () -> Parallel.Deque.shutdown sched)
    (fun () ->
      let r = f sched in
      (r, Parallel.Deque.stats sched))

let sched_metrics (st : Parallel.Deque.stats) =
  let busy = Array.fold_left ( +. ) 0. st.busy_seconds in
  [
    ("sched.steals", float_of_int st.steals);
    ("sched.failed_steals", float_of_int st.failed_steals);
    ("sched.injected", float_of_int st.injected);
    ( "sched.utilization",
      busy /. (float_of_int st.domains *. Float.max st.age_seconds 1e-9) );
  ]

let binary ~domains ~prefilter (input : Suite.input) =
  let path = input.path in
  let h = span "binfmt.read_header" (fun () -> Binfmt.read_header path) in
  let stats = span "binfmt.read_stats" (fun () -> Binfmt.read_stats path) in
  let _, raw = span "binfmt.read_packed" (fun () -> Binfmt.read_packed path) in
  let n_raw = Packed.Arena.length raw in
  let threads = h.threads and locks = h.locks and vars = h.vars in
  let arena, kept_frac =
    if not prefilter then (raw, 0.)
    else
      span "prefilter.filter" (fun () ->
          let st =
            match stats with
            | Some s -> s
            | None -> failwith (path ^ ": no accessor statistics footer")
          in
          let pf = Prefilter.create (Prefilter.Exact st) in
          let out = Packed.Arena.create () in
          let keep = Packed.Arena.push out in
          Packed.Arena.iter raw (fun w -> Prefilter.feed_packed pf w keep);
          Prefilter.finish_packed pf keep;
          let c = Prefilter.counts pf in
          (out, float_of_int c.kept /. float_of_int (max 1 c.events_in)))
  in
  let n = Packed.Arena.length arena in
  let v_opt, minor_words = opt_check ~threads ~locks ~vars arena in
  let outcome, _ =
    with_sched ~domains (fun sched ->
        span "shard.check_stealing" (fun () ->
            Parallel.Shard.check_stealing ~sched ~shards:0 ~threads ~locks ~vars
              arena))
  in
  let chunks = outcome.plan.targets + 1 in
  let plan =
    span "merge.plan" (fun () -> Aerodrome.Merge.plan ~threads ~shards:chunks arena)
  in
  ignore (span "merge.seams" (fun () -> Aerodrome.Merge.seams plan ~total:n));
  let prefilter_mode =
    if prefilter then Analysis.Runner.Auto else Analysis.Runner.Off
  in
  let r_many, st =
    with_sched ~domains (fun sched ->
        span "runner.run_stream" (fun () ->
            Analysis.Runner.run_stream ~prefilter:prefilter_mode ~shards:0 ~sched
              opt path))
  in
  let r_file =
    span "runner.run_file" (fun () ->
        Analysis.Runner.run_file ~prefilter:prefilter_mode opt path)
  in
  let verdicts =
    [
      Some v_opt;
      Some (verdict_of outcome.violation);
      runner_verdict r_many;
      (match r_file with Ok r -> runner_verdict r | Error _ -> None);
    ]
  in
  let wrong = List.length (List.filter (fun v -> v <> Some input.expect) verdicts) in
  let chunk_s = Array.map (fun (t : Parallel.Shard.task) -> t.seconds) outcome.tasks in
  let fin spans =
    let t = Spans.total spans in
    let decode_s = t "binfmt.read_packed" and opt_s = t "opt.check" in
    let shard_s = t "shard.check_stealing" and many_s = t "runner.run_stream" in
    let file_s = t "runner.run_file" in
    [
      ("binfmt.decode_s", decode_s);
      ("binfmt.decode_meps", float_of_int n_raw /. decode_s /. 1e6);
      ("binfmt.footer_s", t "binfmt.read_stats");
      ("prefilter.s", t "prefilter.filter");
      ("prefilter.kept_frac", kept_frac);
      ("merge.plan_s", t "merge.plan" +. t "merge.seams");
      ("merge.seamed_cuts", float_of_int plan.seamed);
      ("merge.planned_repair_frac", float_of_int plan.repair_events /. float_of_int (max 1 n));
      ("merge.tainted_events", float_of_int plan.tainted_events);
      ("shard.wall_s", shard_s);
      ("shard.chunk_s_sum", Array.fold_left ( +. ) 0. chunk_s);
      ("shard.chunk_s_max", Array.fold_left Float.max 0. chunk_s);
      ("shard.merge_s", outcome.merge_seconds);
      ("shard.repaired_events", float_of_int outcome.repaired_events);
      ("shard.repair_frac", float_of_int outcome.repaired_events /. float_of_int (max 1 n));
      ("shard.efficiency", opt_s /. (shard_s *. float_of_int domains));
      ("opt.check_s", opt_s);
      ("opt.meps", float_of_int (consumed n v_opt) /. opt_s /. 1e6);
      ("opt.minor_words_per_event", minor_words /. float_of_int (max 1 (consumed n v_opt)));
      ( "runner.self_s",
        many_s
        -. (t "binfmt.read_header" +. t "binfmt.read_stats" +. decode_s
           +. t "prefilter.filter" +. shard_s) );
      ("runner.file_p50_s", file_s);
      ("runner.file_p95_s", file_s);
      ("runner.many_s", many_s);
      ("runner.fanout_efficiency", file_s /. (many_s *. float_of_int domains));
    ]
    @ sched_metrics st
  in
  (fin, wrong, List.length verdicts)

let corpus ~domains (inputs : Suite.input list) =
  let wrong = ref 0 and checked = ref 0 in
  let tally v expect =
    incr checked;
    if v <> Some expect then incr wrong
  in
  let bytes = ref 0 and consumed_events = ref 0 and minor_words = ref 0. in
  List.iter
    (fun (i : Suite.input) ->
      bytes := !bytes + (Unix.stat i.path).st_size;
      let arena = Packed.Arena.create ~chunk_words:4096 () in
      let dims =
        span "parser.fold_file" (fun () ->
            Parser.fold_file_exn i.path
              ~init:(fun ~threads ~locks ~vars -> (threads, locks, vars))
              ~f:(fun dims e ->
                Packed.Arena.push arena (Packed.of_event e);
                dims))
      in
      let threads, locks, vars = dims in
      let v, w = opt_check ~threads ~locks ~vars arena in
      minor_words := !minor_words +. w;
      consumed_events := !consumed_events + consumed (Packed.Arena.length arena) v;
      tally (Some v) i.expect)
    inputs;
  let paths = List.map (fun (i : Suite.input) -> i.path) inputs in
  let reports, st =
    with_sched ~domains (fun sched ->
        span "runner.run_many" (fun () ->
            Analysis.Runner.run_many ~shards:0 ~sched opt paths))
  in
  List.iter2 (fun fr (i : Suite.input) -> tally (file_verdict fr) i.expect) reports inputs;
  List.iter
    (fun (i : Suite.input) ->
      let r = span "runner.run_file" (fun () -> Analysis.Runner.run_file opt i.path) in
      tally (match r with Ok r -> runner_verdict r | Error _ -> None) i.expect)
    inputs;
  let fin spans =
    let t = Spans.total spans in
    let fold_s = t "parser.fold_file" and opt_s = t "opt.check" in
    let many_s = t "runner.run_many" in
    let files = Spans.durations spans "runner.run_file" in
    let files_s = List.fold_left ( +. ) 0. files in
    [
      ("parser.fold_s", fold_s);
      ("parser.mb_per_s", float_of_int !bytes /. fold_s /. 1e6);
      ("opt.check_s", opt_s);
      ("opt.meps", float_of_int !consumed_events /. opt_s /. 1e6);
      ( "opt.minor_words_per_event",
        !minor_words /. float_of_int (max 1 !consumed_events) );
      ("runner.self_s", files_s -. (fold_s +. opt_s));
      ("runner.file_p50_s", percentile 0.5 files);
      ("runner.file_p95_s", percentile 0.95 files);
      ("runner.many_s", many_s);
      ("runner.fanout_efficiency", files_s /. (many_s *. float_of_int domains));
    ]
    @ sched_metrics st
  in
  (fin, !wrong, !checked)

(* One traced run of workload [w] over [inputs].  trace.overhead_frac
   is the share of the run's wall its spans cost: their number times
   the measured cost of one span. *)
let run ~domains (w : Suite.t) inputs =
  let per_span = Spans.cost () in
  let g0 = Gc.quick_stat () in
  let id, (fin, wrong, checked) =
    Spans.run (fun () ->
        match (w.format, inputs) with
        | Suite.Binary, [ input ] ->
          binary ~domains ~prefilter:(List.mem "--prefilter" w.flags) input
        | Suite.Binary, _ -> invalid_arg "Layers.run: one binary input expected"
        | Suite.Text, _ -> corpus ~domains inputs)
  in
  let g1 = Gc.quick_stat () in
  let spans = Spans.of_run id in
  let layer = fin spans in
  let measured =
    layer
    @ [
        ("gc.minor_collections", float_of_int (g1.minor_collections - g0.minor_collections));
        ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections));
        ( "gc.top_heap_mb",
          float_of_int
            (List.fold_left (fun m (s : Spans.span) -> max m s.heap_words) 0 spans
            * (Sys.word_size / 8))
          /. 1e6 );
        ( "trace.overhead_frac",
          float_of_int (List.length spans) *. per_span /. Spans.total spans "run" );
      ]
  in
  List.iter
    (fun (n, _) -> if not (List.mem n names) then invalid_arg ("Layers.run: metric " ^ n))
    measured;
  let metrics =
    List.map (fun n -> (n, Option.value ~default:0. (List.assoc_opt n measured))) names
  in
  { metrics; wrong; checked }
