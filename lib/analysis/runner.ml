open Traces

type outcome = Verdict of Aerodrome.Violation.t option | Timed_out

type result = {
  checker : string;
  outcome : outcome;
  seconds : float;
  events_fed : int;
  metrics : Obs.Snapshot.t;
}

type prefilter = Off | Exact | Online | Auto

type flight = {
  flight_dir : string;
  flight_window : int;
}

let check_interval = 4096

(* --- telemetry plumbing ---

   Each run executes under an ambient {!Obs.Scope} when telemetry is
   enabled: the checker constructor attaches its {!Aerodrome.Cmetrics}
   registry to the scope, and the harvested snapshot lands in
   [result.metrics] without the checker signature changing.  The inner
   run functions put any runner-level entries (ingest sizes, ring
   telemetry, time-to-first-violation) in [metrics] themselves; the
   scope snapshot is prepended.  With telemetry off the scope machinery
   is skipped entirely and [metrics] is whatever the inner function
   produced (normally {!Obs.Snapshot.empty}). *)

(* [?file] labels the scope for live exposure: while a metrics exporter
   is serving, every registry attached during this run is published with
   a [file="<path>"] label, so concurrent multi-file runs scrape as
   distinct series. *)
let collected ?file f =
  if Obs.on () then
    let labels = match file with Some p -> [ ("file", p) ] | None -> [] in
    let r, snap = Obs.Scope.collect ~labels f in
    { r with metrics = snap @ r.metrics }
  else f ()

let arm_heartbeat heartbeat ~total =
  match heartbeat with
  | None -> ()
  | Some hb ->
    Obs.Heartbeat.restart hb;
    Option.iter (Obs.Heartbeat.set_total hb) total

let tick heartbeat n =
  match heartbeat with None -> () | Some hb -> Obs.Heartbeat.tick hb n

(* First time the checker reports a violation, stamp the elapsed seconds
   and drop an instant marker on the trace timeline.  The checkers
   freeze at their first violation (feed keeps returning it), so the
   negative sentinel makes this fire once. *)
let note_violation viol_at ~started =
  if !viol_at < 0.0 then begin
    viol_at := Unix.gettimeofday () -. started;
    Obs.Chrome_trace.instant ~cat:"checker" "violation"
  end

let runner_entries ?file_bytes viol_at =
  let entries =
    if !viol_at >= 0.0 then
      [ Obs.Snapshot.entry "violation.seconds" (Obs.Snapshot.Float !viol_at) ]
    else []
  in
  match file_bytes with
  | Some b when Obs.on () ->
    Obs.Snapshot.entry "ingest.file_bytes" (Obs.Snapshot.Int b) :: entries
  | _ -> entries

let file_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> Some st_size
  | exception Unix.Unix_error _ -> None

(* --- violation flight recording ---

   With [?flight] a bounded per-thread ring of packed words rides along
   the checker ({!Traces.Flight}): every event is noted (one arithmetic
   pack plus a ring store) until the first violation freezes the
   recorder, and a violating run then emits a witness bundle — JSON
   diagnosis plus a replayable binfmt slice — via {!Witness.emit}.
   Recording needs the packed word codec, so id domains beyond
   {!Traces.Packed.fits} run without a recorder (the witness would not
   be re-encodable anyway).  The noted index is the fed-stream position
   — the same coordinate space as [Violation.index], filtered or not. *)

let flight_recorder flight ~threads ~locks ~vars =
  match flight with
  | Some f when Packed.fits ~threads ~locks ~vars ->
    Some (Flight.create ~window:f.flight_window ~threads ())
  | _ -> None

let flight_entries (info : Witness.info) =
  if not (Obs.on ()) then []
  else
    Obs.Snapshot.
      [
        entry "flight.slice_events" (Int info.Witness.slice_events);
        entry "flight.replayable" (Int (if info.Witness.replayable then 1 else 0));
        entry "flight.validated" (Int (if info.Witness.validated then 1 else 0));
      ]

(* Emit the bundle for a finished run.  A bundle that cannot be written
   (unwritable directory, full disk) degrades to a warning: the check
   verdict is the product, the witness is diagnostics. *)
let flight_finish flight fl checker ~source ~threads ~locks ~vars ?base outcome
    =
  match (flight, fl, outcome) with
  | Some fopt, Some f, Verdict (Some v) -> (
    match
      Witness.emit ~dir:fopt.flight_dir ~source ~checker ~threads ~locks ~vars
        ~flight:f ?base ~violation:v ()
    with
    | Ok info -> flight_entries info
    | Error msg ->
      Printf.eprintf "rapid: flight-record: %s\n%!" msg;
      [])
  | _ -> []

(* Sharded runs record per chunk; the bundle comes from the chunk that
   owns the reconciled violation, rebased by its arena position. *)
let flight_finish_sharded flight checker ~source ~threads ~locks ~vars
    (o : Parallel.Shard.outcome) =
  match (flight, o.Parallel.Shard.violation) with
  | Some fopt, Some v -> (
    let idx = v.Aerodrome.Violation.index in
    let owner =
      Array.to_list o.Parallel.Shard.tasks
      |> List.find_opt (fun (t : Parallel.Shard.task) ->
             t.Parallel.Shard.base <= idx && idx < t.Parallel.Shard.stop)
    in
    match owner with
    | Some ({ Parallel.Shard.flight = Some f; _ } as t) -> (
      match
        Witness.emit ~dir:fopt.flight_dir ~source ~checker ~threads ~locks
          ~vars ~flight:f ~base:t.Parallel.Shard.base ~violation:v ()
      with
      | Ok info -> flight_entries info
      | Error msg ->
        Printf.eprintf "rapid: flight-record: %s\n%!" msg;
        [])
    | _ -> [])
  | _ -> []

(* --- state reclamation ---

   [reclaim] selects the checkers' state-lifetime policy (installed
   ambiently around checker creation, see {!Aerodrome.Reclaim}): with a
   last-use oracle — computed from the materialized trace, read from a
   v2 binary footer, or built by the text decoder's one pass —
   variables are released exactly at their final access; without one,
   streaming runs fall back to the inactivity heuristic. *)

let policy ~reclaim oracle =
  if not reclaim then Aerodrome.Reclaim.Off
  else
    match oracle with
    | Some lt -> Aerodrome.Reclaim.Oracle lt
    | None ->
      Aerodrome.Reclaim.Inactivity
        { horizon = Aerodrome.Reclaim.default_horizon }

(* --- trace prefiltering ---

   [prefilter] inserts a {!Traces.Prefilter} between ingestion and the
   checker, dropping events that provably cannot change the verdict.
   [Exact] wants whole-trace accessor statistics ({!Traces.Varstats}) —
   from a materialized trace, a v3 binary footer, the text decoder's
   one pass, or a dedicated pre-scan — and [Auto] applies the
   exact mode when the statistics come for free and otherwise runs
   unfiltered: the online mode's buffering costs more than it saves on
   checker-rate workloads (BENCH_2026-08-05 measured it at 0.74x), so
   it only ever runs on explicit request.

   Composition with [reclaim] is sound as-is: the oracle releases a
   variable when the checker's event index equals the recorded last-use
   index, and dropped events only ever make filtered indices {e smaller}
   than the original ones, so a mid-lifetime access can never collide
   with the original last-use index (equality forces the access to be
   the final one).  Releases may fire late or not at all on a filtered
   stream, never early; [run] sidesteps even that by computing the
   oracle on the already-filtered trace. *)

let prefilter_mode ~prefilter ~stats =
  match (prefilter, stats) with
  | Off, _ -> None
  | (Exact | Auto), Some vs -> Some (Prefilter.Exact vs)
  | Online, _ | Exact, None -> Some Prefilter.Online
  | Auto, None -> None

(* High-water mark of the major heap, sampled at the same 4096-event
   checkpoints as the timeout — the per-run memory axis the bench
   harness compares across reclamation settings.  Registers its own
   scope-attached registry so the gauge lands in [result.metrics]
   alongside the checker's counters. *)
let heap_sampler () =
  if Obs.on () then begin
    let reg = Obs.Registry.create () in
    Obs.Scope.attach reg;
    let g = Obs.Registry.gauge reg "heap.peak_words" in
    let sample () =
      Obs.Gauge.set_max g (float_of_int (Gc.quick_stat ()).Gc.heap_words)
    in
    sample ();
    sample
  end
  else fun () -> ()

(* --- sharded checking ---

   [shards > 1] (or [shards = 0], the auto sentinel) partitions the
   (filtered) packed event stream into contiguous chunk batches at
   boundary-summary cuts and checks the chunks concurrently on a
   domain pool, reconciling the chunk verdicts left-to-right with
   window repair ({!Parallel.Shard}, {!Aerodrome.Merge}).  Reports are
   byte-identical to the sequential path: a chunk checker seeded from
   its cut's boundary summary is contained in the sequential checker
   and exact past the cut's repair window, and reconciliation re-runs
   only the window events against the true frontier (DESIGN.md §17).
   The seed argument is specific to the default Opt configuration, so
   other checkers fall back to the sequential path, as do timed-out
   runs (a per-chunk deadline would make [events_fed] racy) and
   streams that cannot pack.

   Chunk checkers run with reclamation off: per-variable lifetimes are
   chunk-local here, and reclamation is verdict-neutral either way. *)

(* Below roughly two chunks' worth of this, the planner scan and the
   per-chunk checker setup cost more than the parallelism returns, so
   auto resolves to a single shard and the sequential path runs. *)
let min_shard_events = 65536

(* [shards = 0] means auto: pick the chunk count from the trace length
   and the machine, one shard per [min_shard_events] events capped at
   the recommended domain count.  An explicit [shards] is always
   honoured (tests force tiny traces through the sharded path). *)
let resolve_shards ~shards ~events =
  if shards <> 0 then shards
  else if events < 2 * min_shard_events then 1
  else
    min (Domain.recommended_domain_count ()) (max 1 (events / min_shard_events))

let shardable ~shards ~timeout (module C : Aerodrome.Checker.S) =
  (shards = 0 || shards > 1) && timeout = None && C.name = Aerodrome.Opt.name

(* With a scheduler lent ([?sched]) the sharded paths execute on it in
   work-stealing mode ({!Parallel.Shard.check_stealing}): [shards] then
   keeps its sentinel reading — [0] lets the shard layer micro-chunk
   (oversubscribed, scheduler-sized), an explicit count forces that
   exact plan (the differential tests run the {e same} plans as static
   sharding through the stealing executor).  Auto stealing keeps the
   static path's small-trace gate: below it the planner costs more
   than the parallelism returns and the sequential path runs. *)
let steal_worthwhile ~shards ~events =
  shards > 1 || events >= 2 * min_shard_events

let shard_check ?sched ?shard_pool ?flight ~shards ~threads ~locks ~vars arena
    =
  match sched with
  | Some sched ->
    Parallel.Shard.check_stealing ~sched ?flight ~shards ~threads ~locks ~vars
      arena
  | None ->
    Parallel.Shard.check ?pool:shard_pool ?flight ~shards ~threads ~locks
      ~vars arena

let shard_entries ~events (o : Parallel.Shard.outcome) =
  if not (Obs.on ()) then []
  else
    let p = o.Parallel.Shard.plan in
    let repair_fraction =
      if events <= 0 then 0.0
      else float_of_int o.Parallel.Shard.repaired_events /. float_of_int events
    in
    Obs.Snapshot.
      [
        entry "shard.chunks" (Int (Array.length o.Parallel.Shard.tasks));
        entry "shard.quiescent_cuts" (Int p.Aerodrome.Merge.quiescent);
        entry "shard.seamed_cuts" (Int p.Aerodrome.Merge.seamed);
        entry "shard.tainted_events" (Int p.Aerodrome.Merge.tainted_events);
        entry "shard.repaired_events" (Int o.Parallel.Shard.repaired_events);
        entry "shard.repair_fraction" (Float repair_fraction);
        entry "shard.plan_seconds" (Float o.Parallel.Shard.plan_seconds);
        entry "shard.merge_seconds" (Float o.Parallel.Shard.merge_seconds);
      ]
    @ List.concat
        (List.mapi
           (fun i (t : Parallel.Shard.task) ->
             Obs.Snapshot.
               [
                 entry
                   (Printf.sprintf "shard.chunk%d.events" i)
                   (Int (t.Parallel.Shard.stop - t.Parallel.Shard.base));
                 entry
                   (Printf.sprintf "shard.chunk%d.seconds" i)
                   (Float t.Parallel.Shard.seconds);
               ])
           (Array.to_list o.Parallel.Shard.tasks))

(* Wrap a shard outcome as a runner result; the timer is the caller's
   (it covers ingestion into the arena, like the sequential paths'
   decode). *)
let finish_sharded (module C : Aerodrome.Checker.S) ~started ?file_bytes
    ?flight ~source ~threads ~locks ~vars (o : Parallel.Shard.outcome)
    ~events_fed =
  let seconds = Unix.gettimeofday () -. started in
  let viol_at =
    ref (if o.Parallel.Shard.violation <> None then seconds else -1.0)
  in
  let chunk_metrics =
    Obs.Snapshot.merge
      (Array.to_list o.Parallel.Shard.tasks
      |> List.map (fun (t : Parallel.Shard.task) -> t.Parallel.Shard.metrics))
    (* additive merge is right for the event/txn counters but not for
       the violation-index gauge, which is chunk-local: rewrite it to
       the reconciled arena-global index *)
    |> List.map (fun (e : Obs.Snapshot.entry) ->
           if e.Obs.Snapshot.name = "violation.index" then
             {
               e with
               Obs.Snapshot.value =
                 Obs.Snapshot.Int
                   (match o.Parallel.Shard.violation with
                   | Some v -> v.Aerodrome.Violation.index
                   | None -> -1);
             }
           else e)
  in
  let flight_metrics =
    flight_finish_sharded flight
      (module C : Aerodrome.Checker.S)
      ~source ~threads ~locks ~vars o
  in
  {
    checker = C.name;
    outcome = Verdict o.Parallel.Shard.violation;
    seconds;
    events_fed;
    metrics =
      chunk_metrics @ runner_entries ?file_bytes viol_at
      @ shard_entries ~events:events_fed o
      @ flight_metrics;
  }

(* Sharded variant of [run]: filter like the sequential path, pack the
   (filtered) trace into an arena, fan chunk checkers out. *)
let run_trace_sharded ?heartbeat ~prefilter ~shards ?shard_pool ?sched ?flight
    (module C : Aerodrome.Checker.S) tr =
  collected (fun () ->
      let tr =
        match prefilter with
        | Off -> tr
        | Exact | Auto -> fst (Prefilter.run_trace `Exact tr)
        | Online -> fst (Prefilter.run_trace `Online tr)
      in
      let n = Trace.length tr in
      arm_heartbeat heartbeat ~total:(Some n);
      let started = Unix.gettimeofday () in
      let arena = Packed.Arena.create () in
      Trace.iteri (fun _ e -> Packed.Arena.push arena (Packed.of_event e)) tr;
      let o =
        shard_check ?sched ?shard_pool
          ?flight:(Option.map (fun f -> f.flight_window) flight)
          ~shards ~threads:(Trace.threads tr) ~locks:(Trace.locks tr)
          ~vars:(Trace.vars tr) arena
      in
      tick heartbeat n;
      finish_sharded (module C) ~started ?flight ~source:"trace"
        ~threads:(Trace.threads tr) ~locks:(Trace.locks tr)
        ~vars:(Trace.vars tr) o ~events_fed:n)

let run ?timeout ?heartbeat ?(reclaim = true) ?(prefilter = Off) ?(shards = 1)
    ?shard_pool ?sched ?flight (module C : Aerodrome.Checker.S) tr =
  let events = Trace.length tr in
  let stealing =
    sched <> None
    && shardable ~shards ~timeout (module C)
    && steal_worthwhile ~shards ~events
  in
  let shards = if stealing then shards else resolve_shards ~shards ~events in
  if
    (stealing || shardable ~shards ~timeout (module C))
    && Packed.fits ~threads:(Trace.threads tr) ~locks:(Trace.locks tr)
         ~vars:(Trace.vars tr)
  then
    run_trace_sharded ?heartbeat ~prefilter ~shards ?shard_pool
      ?sched:(if stealing then sched else None)
      ?flight
      (module C : Aerodrome.Checker.S)
      tr
  else
  collected (fun () ->
      (* filtering and the oracle pass run before the timer starts, like
         trace I/O; the oracle is computed on the filtered trace so its
         indices match what the checker sees *)
      let tr =
        match prefilter with
        | Off -> tr
        | Exact | Auto -> fst (Prefilter.run_trace `Exact tr)
        | Online -> fst (Prefilter.run_trace `Online tr)
      in
      let oracle = if reclaim then Some (Lifetime.of_trace tr) else None in
      let st =
        Aerodrome.Reclaim.with_policy (policy ~reclaim oracle) (fun () ->
            C.create ~threads:(Trace.threads tr) ~locks:(Trace.locks tr)
              ~vars:(Trace.vars tr))
      in
      let sample_heap = heap_sampler () in
      let fl =
        flight_recorder flight ~threads:(Trace.threads tr)
          ~locks:(Trace.locks tr) ~vars:(Trace.vars tr)
      in
      let n = Trace.length tr in
      arm_heartbeat heartbeat ~total:(Some n);
      let deadline =
        Option.map (fun budget -> Unix.gettimeofday () +. budget) timeout
      in
      let started = Unix.gettimeofday () in
      let timed_out = ref false in
      let viol_at = ref (-1.0) in
      let i = ref 0 in
      (try
         while !i < n do
           let e = Trace.get tr !i in
           (match fl with
           | Some f when !viol_at < 0.0 -> Flight.note f !i (Packed.of_event e)
           | _ -> ());
           (match C.feed st e with
           | Some _ -> note_violation viol_at ~started
           | None -> ());
           incr i;
           if !i land (check_interval - 1) = 0 then begin
             tick heartbeat !i;
             sample_heap ();
             match deadline with
             | Some d when Unix.gettimeofday () > d ->
               timed_out := true;
               raise Exit
             | _ -> ()
           end
         done
       with Exit -> ());
      sample_heap ();
      let seconds = Unix.gettimeofday () -. started in
      let outcome =
        if !timed_out then Timed_out else Verdict (C.violation st)
      in
      {
        checker = C.name;
        outcome;
        seconds;
        events_fed = !i;
        metrics =
          runner_entries viol_at
          @ flight_finish flight fl
              (module C : Aerodrome.Checker.S)
              ~source:"trace" ~threads:(Trace.threads tr)
              ~locks:(Trace.locks tr) ~vars:(Trace.vars tr) outcome;
      })

let run_seq ?timeout ?heartbeat ?total ?(reclaim = true) ?last_use
    ?(prefilter = Off) ?stats ?flight ?(source = "stream")
    (module C : Aerodrome.Checker.S) ~threads ~locks ~vars events =
  collected ?file:(if source = "stream" then None else Some source) (fun () ->
      let events =
        match prefilter_mode ~prefilter ~stats with
        | None -> events
        | Some mode -> Prefilter.filter_seq (Prefilter.create mode) events
      in
      let st =
        Aerodrome.Reclaim.with_policy (policy ~reclaim last_use) (fun () ->
            C.create ~threads ~locks ~vars)
      in
      let sample_heap = heap_sampler () in
      let fl = flight_recorder flight ~threads ~locks ~vars in
      arm_heartbeat heartbeat ~total;
      let deadline =
        Option.map (fun budget -> Unix.gettimeofday () +. budget) timeout
      in
      let started = Unix.gettimeofday () in
      let timed_out = ref false in
      let viol_at = ref (-1.0) in
      let fed = ref 0 in
      let rec go events =
        match Seq.uncons events with
        | None -> ()
        | Some (e, rest) -> (
          (match fl with
          | Some f when !viol_at < 0.0 ->
            Flight.note f !fed (Packed.of_event e)
          | _ -> ());
          (match C.feed st e with
          | Some _ -> note_violation viol_at ~started
          | None -> ());
          incr fed;
          if !fed land (check_interval - 1) = 0 then begin
            tick heartbeat !fed;
            sample_heap ();
            match deadline with
            | Some d when Unix.gettimeofday () > d -> timed_out := true
            | _ -> go rest
          end
          else go rest)
      in
      go events;
      sample_heap ();
      let outcome =
        if !timed_out then Timed_out else Verdict (C.violation st)
      in
      {
        checker = C.name;
        outcome;
        seconds = Unix.gettimeofday () -. started;
        events_fed = !fed;
        metrics =
          runner_entries viol_at
          @ flight_finish flight fl
              (module C : Aerodrome.Checker.S)
              ~source ~threads ~locks ~vars outcome;
      })

(* Accessor statistics for a binary file: the v3 footer is one seek away;
   an explicit [Exact] request on a v1/v2 file (no statistics footer) is
   honored with a dedicated pre-scan — a full decode pass, so [Auto]
   prefers the online mode there instead. *)
let binary_stats ~prefilter path =
  match prefilter with
  | Off | Online -> None
  | Exact | Auto -> (
    match Traces.Binfmt.read_stats path with
    | Some _ as s -> s
    | None when prefilter = Exact ->
      let h = Traces.Binfmt.read_header path in
      let vs =
        Varstats.create ~vars:h.Traces.Binfmt.vars ~locks:h.Traces.Binfmt.locks
      in
      ignore (Traces.Binfmt.fold path ~init:() ~f:(fun () e -> Varstats.note vs e));
      Some vs
    | None -> None)

let run_binary_file ?timeout ?heartbeat ?(reclaim = true) ?(prefilter = Off)
    ?flight checker path =
  (* v2 files carry the oracle in their footer, one seek away; a corrupt
     footer raises here, before any event is fed *)
  let last_use = if reclaim then Traces.Binfmt.read_last_use path else None in
  let stats = binary_stats ~prefilter path in
  let header, (events, close) = Traces.Binfmt.read_seq path in
  Fun.protect ~finally:close (fun () ->
      let r =
        run_seq ?timeout ?heartbeat ~total:header.Traces.Binfmt.events ~reclaim
          ?last_use ~prefilter ?stats ?flight ~source:path checker
          ~threads:header.Traces.Binfmt.threads
          ~locks:header.Traces.Binfmt.locks ~vars:header.Traces.Binfmt.vars
          events
      in
      {
        r with
        metrics = r.metrics @ runner_entries ?file_bytes:(file_size path) (ref (-1.0));
      })

(* --- packed ingestion ---

   The path for every text input and the default for binary ones:
   each event is one packed int word ({!Traces.Packed}), fed to the
   checker's [feed_packed] entry — no per-event heap allocation between
   the file and the vector-clock work.  Binary files are mmapped and
   decoded by {!Traces.Binfmt.fold_packed}; text files are scanned once
   by {!Traces.Parser.decode_file} into an arena, which also yields the
   last-use oracle and the accessor statistics.  The exact-mode
   prefilter runs on the packed words too, so elided events are never
   materialized (only an explicit online prefilter unpacks them).  The
   boxed [run_binary_file] remains the reference implementation:
   verdicts, violation indices and [events_fed] are differential-tested
   identical. *)

let packable ~prefilter (h : Traces.Binfmt.header) =
  Traces.Packed.fits ~threads:h.Traces.Binfmt.threads
    ~locks:h.Traces.Binfmt.locks ~vars:h.Traces.Binfmt.vars
  (* online buffering is inherently boxed; honor an explicit request on
     the boxed path rather than unpack/repack every event *)
  && prefilter <> Online

(* The sequential packed loop.  [ingest feed] pushes every word of the
   source through [feed].  The timer starts at [started] when given
   (text: before the decode, so it covers ingestion as the binary
   timer covers its mmap decode), else right before [ingest]. *)
let check_packed ?timeout ?heartbeat ~total ~reclaim ~prefilter ?flight
    ~last_use ~stats ?started (module C : Aerodrome.Checker.S) ~source
    ~threads ~locks ~vars ingest =
  let st =
    Aerodrome.Reclaim.with_policy (policy ~reclaim last_use) (fun () ->
        C.create ~threads ~locks ~vars)
  in
  let pf = Option.map Prefilter.create (prefilter_mode ~prefilter ~stats) in
  let sample_heap = heap_sampler () in
  let fl = flight_recorder flight ~threads ~locks ~vars in
  arm_heartbeat heartbeat ~total;
  let started =
    match started with Some t -> t | None -> Unix.gettimeofday ()
  in
  let deadline = Option.map (fun b -> started +. b) timeout in
  let timed_out = ref false in
  let viol_at = ref (-1.0) in
  let fed = ref 0 in
  let feed_one w =
    (match fl with
    | Some f when !viol_at < 0.0 -> Flight.note f !fed w
    | _ -> ());
    (match C.feed_packed st w with
    | Some _ -> note_violation viol_at ~started
    | None -> ());
    incr fed;
    if !fed land (check_interval - 1) = 0 then begin
      tick heartbeat !fed;
      sample_heap ();
      match deadline with
      | Some d when Unix.gettimeofday () > d ->
        timed_out := true;
        raise Exit
      | _ -> ()
    end
  in
  (try
     ingest
       (match pf with
       | None -> feed_one
       | Some p -> fun w -> Prefilter.feed_packed p w feed_one)
   with Exit -> ());
  (match pf with
  | None -> ()
  | Some p -> ( try Prefilter.finish_packed p feed_one with Exit -> ()));
  sample_heap ();
  let outcome = if !timed_out then Timed_out else Verdict (C.violation st) in
  {
    checker = C.name;
    outcome;
    seconds = Unix.gettimeofday () -. started;
    events_fed = !fed;
    metrics =
      runner_entries ?file_bytes:(file_size source) viol_at
      @ flight_finish flight fl
          (module C : Aerodrome.Checker.S)
          ~source ~threads ~locks ~vars outcome;
  }

let run_packed_file ?timeout ?heartbeat ~reclaim ~prefilter ?flight checker
    path (header : Traces.Binfmt.header) =
  collected ~file:path (fun () ->
      let last_use =
        if reclaim then Traces.Binfmt.read_last_use path else None
      in
      let stats = binary_stats ~prefilter path in
      check_packed ?timeout ?heartbeat
        ~total:(Some header.Traces.Binfmt.events)
        ~reclaim ~prefilter ?flight ~last_use ~stats checker ~source:path
        ~threads:header.Traces.Binfmt.threads
        ~locks:header.Traces.Binfmt.locks ~vars:header.Traces.Binfmt.vars
        (fun feed ->
          ignore (Traces.Binfmt.fold_packed path ~init:() ~f:(fun () w -> feed w))))

(* Text: one scan into the arena, then the same loop.  The heartbeat
   is armed without a total, so text progress lines carry no ETA
   (test/obs.t pins their format). *)
let run_text_file ?timeout ?heartbeat ~reclaim ~prefilter ?flight checker
    path =
  collected ~file:path (fun () ->
      let started = Unix.gettimeofday () in
      let d =
        Traces.Parser.decode_file ~last_use:reclaim
          ~stats:(match prefilter with Exact | Auto -> true | Off | Online -> false)
          path
      in
      check_packed ?timeout ?heartbeat ~total:None ~reclaim ~prefilter ?flight
        ~last_use:d.Traces.Parser.last_use ~stats:d.Traces.Parser.stats
        ~started checker ~source:path ~threads:d.Traces.Parser.threads
        ~locks:d.Traces.Parser.locks ~vars:d.Traces.Parser.vars
        (Packed.Arena.iter d.Traces.Parser.arena))

(* Sharded counterpart of [run_packed_file]: ingest (and filter) into
   an arena first, then fan chunk checkers out over it.  The timer
   covers the ingestion, mirroring the sequential path's decode. *)
let run_packed_file_sharded ?heartbeat ~prefilter ~shards ?shard_pool ?sched
    ?flight (module C : Aerodrome.Checker.S) path
    (header : Traces.Binfmt.header) =
  collected ~file:path (fun () ->
      let stats = binary_stats ~prefilter path in
      let pf = Option.map Prefilter.create (prefilter_mode ~prefilter ~stats) in
      arm_heartbeat heartbeat ~total:(Some header.Traces.Binfmt.events);
      let started = Unix.gettimeofday () in
      let arena = Packed.Arena.create () in
      let push w = Packed.Arena.push arena w in
      (match pf with
      | None -> ignore (Traces.Binfmt.fold_packed path ~init:() ~f:(fun () w -> push w))
      | Some p ->
        ignore
          (Traces.Binfmt.fold_packed path ~init:() ~f:(fun () w ->
               Prefilter.feed_packed p w push));
        Prefilter.finish_packed p push);
      let o =
        shard_check ?sched ?shard_pool
          ?flight:(Option.map (fun f -> f.flight_window) flight)
          ~shards ~threads:header.Traces.Binfmt.threads
          ~locks:header.Traces.Binfmt.locks ~vars:header.Traces.Binfmt.vars
          arena
      in
      tick heartbeat (Packed.Arena.length arena);
      finish_sharded (module C) ~started ?file_bytes:(file_size path) ?flight
        ~source:path ~threads:header.Traces.Binfmt.threads
        ~locks:header.Traces.Binfmt.locks ~vars:header.Traces.Binfmt.vars o
        ~events_fed:(Packed.Arena.length arena))

let run_stream_seq ?timeout ?heartbeat ?(reclaim = true) ?(prefilter = Off)
    ?(packed = true) ?(shards = 1) ?shard_pool ?sched ?flight
    (module C : Aerodrome.Checker.S) path =
  if Traces.Binfmt.is_binary path then begin
    let header = Traces.Binfmt.read_header path in
    let events = header.Traces.Binfmt.events in
    let stealing =
      sched <> None
      && shardable ~shards ~timeout (module C)
      && steal_worthwhile ~shards ~events
    in
    let shards = if stealing then shards else resolve_shards ~shards ~events in
    if packed && packable ~prefilter header then
      if stealing || shardable ~shards ~timeout (module C) then
        run_packed_file_sharded ?heartbeat ~prefilter ~shards ?shard_pool
          ?sched:(if stealing then sched else None)
          ?flight (module C) path header
      else
        run_packed_file ?timeout ?heartbeat ~reclaim ~prefilter ?flight
          (module C) path header
    else
      run_binary_file ?timeout ?heartbeat ~reclaim ~prefilter ?flight
        (module C) path
  end
  else
    run_text_file ?timeout ?heartbeat ~reclaim ~prefilter ?flight (module C) path

(* --- pipelined ingestion ---

   A producer domain reads and decodes a binary trace file and pushes
   event batches through a bounded SPSC ring; the calling domain pops
   batches and feeds the checker, so I/O + decode overlap vector-clock
   work.  The checker sees exactly the event sequence the sequential path
   sees, in order, so verdicts and violation indices are identical.  Text
   is not pipelined: its decoder must finish the pass before the domains
   are known, so a producer would have nothing left to overlap. *)

type stream_msg =
  | Domains of {
      threads : int;
      locks : int;
      vars : int;
      events : int;
      last_use : Traces.Lifetime.t option;  (* oracle, when available *)
      stats : Varstats.t option;  (* prefilter oracle, when available *)
    }
  | Batch of Traces.Event.t array
  | Packed_batch of Traces.Packed.chunk * int
      (* a filled arena chunk and its length: one batch = one chunk, so
         batch boundaries align with chunk boundaries by construction *)

let batch_size = 8192
let ring_capacity = 8

exception Stop_producing

let produce_file path ~reclaim ~prefilter ~packed ~push =
  let push_or_stop m = if not (push m) then raise Stop_producing in
  let scratch = Array.make batch_size (Traces.Event.begin_ 0) in
  let fill = ref 0 in
  (* Spans cover read + decode + intern of one batch; the (possibly
     blocking) push is excluded so producer stalls show as gaps between
     spans rather than inflating decode time. *)
  let trace_on = Obs.Chrome_trace.active () in
  let batch_t0 = ref (if trace_on then Obs.now_us () else 0.0) in
  let flush () =
    if !fill > 0 then begin
      if trace_on then
        Obs.Chrome_trace.add_span ~cat:"ingest" ~name:"decode-batch"
          ~ts_us:!batch_t0
          ~dur_us:(Obs.now_us () -. !batch_t0)
          ();
      push_or_stop (Batch (Array.sub scratch 0 !fill));
      fill := 0;
      if trace_on then batch_t0 := Obs.now_us ()
    end
  in
  let feed () e =
    scratch.(!fill) <- e;
    incr fill;
    if !fill = batch_size then flush ()
  in
  try
    let h = Traces.Binfmt.read_header path in
    let last_use =
      if reclaim then Traces.Binfmt.read_last_use path else None
    in
    let stats = binary_stats ~prefilter path in
    push_or_stop
      (Domains
         {
           threads = h.Traces.Binfmt.threads;
           locks = h.Traces.Binfmt.locks;
           vars = h.Traces.Binfmt.vars;
           events = h.Traces.Binfmt.events;
           last_use;
           stats;
         });
    if packed && packable ~prefilter h then begin
      (* decode straight into packed chunks; a full chunk is pushed
         as-is (chunks are off-heap and immutable once handed over,
         so sharing them with the consumer domain is safe) *)
      let cw = batch_size in
      let chunk = ref (Traces.Packed.make_chunk cw) in
      let cfill = ref 0 in
      let flush_packed () =
        if !cfill > 0 then begin
          if trace_on then
            Obs.Chrome_trace.add_span ~cat:"ingest" ~name:"decode-batch"
              ~ts_us:!batch_t0
              ~dur_us:(Obs.now_us () -. !batch_t0)
              ();
          push_or_stop (Packed_batch (!chunk, !cfill));
          chunk := Traces.Packed.make_chunk cw;
          cfill := 0;
          if trace_on then batch_t0 := Obs.now_us ()
        end
      in
      ignore
        (Traces.Binfmt.fold_packed path ~init:() ~f:(fun () w ->
             Bigarray.Array1.unsafe_set !chunk !cfill w;
             incr cfill;
             if !cfill = cw then flush_packed ()));
      flush_packed ()
    end
    else ignore (Traces.Binfmt.fold path ~init:() ~f:feed);
    flush ()
  with Stop_producing -> ()

let ring_entries (s : Parallel.Ring.stats) =
  Obs.Snapshot.
    [
      entry "ring.capacity" (Int s.Parallel.Ring.st_capacity);
      entry "ring.occupancy_hwm" (Int s.Parallel.Ring.occupancy_hwm);
      entry "ring.producer_stalls" (Int s.Parallel.Ring.producer_stalls);
      entry "ring.consumer_stalls" (Int s.Parallel.Ring.consumer_stalls);
    ]

let run_stream_pipelined ?timeout ?heartbeat ?(reclaim = true)
    ?(prefilter = Off) ?(packed = true) ?flight
    (module C : Aerodrome.Checker.S) path =
  collected ~file:path (fun () ->
      let ring_stats = ref None in
      let r =
        Parallel.Pipeline.run ~capacity:ring_capacity
          ~on_stats:(fun s -> ring_stats := Some s)
          ~produce:(fun ~push ->
            produce_file path ~reclaim ~prefilter ~packed ~push)
          ~consume:(fun ~pop ->
            match pop () with
            | None ->
              (* the producer failed before announcing the domains (bad
                 header, malformed text, unreadable file); Pipeline.run
                 re-raises its exception and this placeholder is
                 discarded *)
              {
                checker = C.name;
                outcome = Verdict None;
                seconds = 0.;
                events_fed = 0;
                metrics = Obs.Snapshot.empty;
              }
            | Some (Batch _ | Packed_batch _) ->
              assert false (* producer announces domains first *)
            | Some (Domains { threads; locks; vars; events; last_use; stats })
              ->
              let st =
                Aerodrome.Reclaim.with_policy (policy ~reclaim last_use)
                  (fun () -> C.create ~threads ~locks ~vars)
              in
              (* the filter runs on the consumer so its counters publish
                 into this run's ambient scope; the producer only supplies
                 the statistics *)
              let pf =
                Option.map Prefilter.create (prefilter_mode ~prefilter ~stats)
              in
              let sample_heap = heap_sampler () in
              let fl = flight_recorder flight ~threads ~locks ~vars in
              arm_heartbeat heartbeat ~total:(Some events);
              let started = Unix.gettimeofday () in
              let deadline = Option.map (fun b -> started +. b) timeout in
              let timed_out = ref false in
              let viol_at = ref (-1.0) in
              let fed = ref 0 in
              let checkpoint () =
                incr fed;
                if !fed land (check_interval - 1) = 0 then begin
                  tick heartbeat !fed;
                  sample_heap ();
                  match deadline with
                  | Some d when Unix.gettimeofday () > d ->
                    timed_out := true;
                    raise Exit
                  | _ -> ()
                end
              in
              let feed_one e =
                (match fl with
                | Some f when !viol_at < 0.0 ->
                  Flight.note f !fed (Packed.of_event e)
                | _ -> ());
                (match C.feed st e with
                | Some _ -> note_violation viol_at ~started
                | None -> ());
                checkpoint ()
              in
              let feed_one_packed w =
                (match fl with
                | Some f when !viol_at < 0.0 -> Flight.note f !fed w
                | _ -> ());
                (match C.feed_packed st w with
                | Some _ -> note_violation viol_at ~started
                | None -> ());
                checkpoint ()
              in
              (try
                 let rec loop () =
                   match pop () with
                   | None -> ()
                   | Some (Domains _) -> assert false
                   | Some (Batch events) ->
                     Obs.Chrome_trace.span ~cat:"check" "feed-batch"
                       (fun () ->
                         Array.iter
                           (fun e ->
                             match pf with
                             | None -> feed_one e
                             | Some p -> Prefilter.feed p e feed_one)
                           events);
                     loop ()
                   | Some (Packed_batch (chunk, len)) ->
                     Obs.Chrome_trace.span ~cat:"check" "feed-batch"
                       (fun () ->
                         for i = 0 to len - 1 do
                           let w = Bigarray.Array1.unsafe_get chunk i in
                           match pf with
                           | None -> feed_one_packed w
                           | Some p ->
                             Prefilter.feed_packed p w feed_one_packed
                         done);
                     loop ()
                 in
                 loop ()
               with Exit -> ());
              (match pf with
              | None -> ()
              | Some p -> ( try Prefilter.finish p feed_one with Exit -> ()));
              sample_heap ();
              let outcome =
                if !timed_out then Timed_out else Verdict (C.violation st)
              in
              {
                checker = C.name;
                outcome;
                seconds = Unix.gettimeofday () -. started;
                events_fed = !fed;
                metrics =
                  runner_entries ?file_bytes:(file_size path) viol_at
                  @ flight_finish flight fl
                      (module C : Aerodrome.Checker.S)
                      ~source:path ~threads ~locks ~vars outcome;
              })
          ()
      in
      match !ring_stats with
      | Some s when Obs.on () -> { r with metrics = r.metrics @ ring_entries s }
      | _ -> r)

let run_stream ?timeout ?heartbeat ?(pipelined = false) ?(reclaim = true)
    ?(prefilter = Off) ?(packed = true) ?(shards = 1) ?shard_pool ?sched
    ?flight checker path =
  (* the sharded path and the text decoder materialize the whole arena
     before any checking starts, so a pipelined producer would have
     nothing to overlap with; both take the sequential entry instead *)
  if
    pipelined
    && (not (shardable ~shards ~timeout checker))
    && Traces.Binfmt.is_binary path
  then
    run_stream_pipelined ?timeout ?heartbeat ~reclaim ~prefilter ~packed
      ?flight checker path
  else
    run_stream_seq ?timeout ?heartbeat ~reclaim ~prefilter ~packed ~shards
      ?shard_pool ?sched ?flight checker path

(* --- multi-file fan-out --- *)

type file_report = {
  file : string;
  report : (result, string) Stdlib.result;
}

let run_file ?timeout ?heartbeat ?(pipelined = false) ?(reclaim = true)
    ?(prefilter = Off) ?(packed = true) ?(shards = 1) ?shard_pool ?sched
    ?flight checker path =
  match
    run_stream ?timeout ?heartbeat ~pipelined ~reclaim ~prefilter ~packed
      ~shards ?shard_pool ?sched ?flight checker path
  with
  | r -> Ok r
  | exception Traces.Binfmt.Corrupt msg -> Error msg
  | exception Traces.Parser.Parse_error e ->
    Error (Format.asprintf "%s: %a" path Traces.Parser.pp_error e)
  | exception Sys_error msg -> Error msg

let run_many ?timeout ?heartbeat ?(pipelined = false) ?(reclaim = true)
    ?(prefilter = Off) ?(packed = true) ?(jobs = 1) ?(shards = 1) ?shard_pool
    ?sched ?flight ?on_pool checker paths =
  match sched with
  | Some sc when List.compare_length_with paths 1 > 0 ->
    (* Unified budget (DESIGN.md §18): the scheduler owns every domain,
       and a file is just a task that spawns chunk tasks on the same
       deques — [await] helps, so a file task waiting on its chunks
       becomes another chunk consumer instead of an idle domain, and a
       second file's chunks start the moment any deque has room rather
       than at a file boundary.  [jobs] is not consulted here: the
       caller sized the scheduler to the machine-wide budget.  The
       heartbeat is dropped as on the pool path (concurrent workers
       would interleave its lines). *)
    let promises =
      List.map
        (fun path ->
          Parallel.Deque.submit sc (fun () ->
              {
                file = path;
                report =
                  run_file ?timeout ~pipelined ~reclaim ~prefilter ~packed
                    ~shards ~sched:sc ?flight checker path;
              }))
        paths
    in
    let reports = List.map (Parallel.Deque.await sc) promises in
    (match on_pool with
    | Some f -> f (Parallel.Deque.stats sc).Parallel.Deque.busy_seconds
    | None -> ());
    reports
  | Some _ ->
    (* one file: run it on the calling domain (keeping the heartbeat);
       its chunks still fan out over the scheduler *)
    List.map
      (fun path ->
        {
          file = path;
          report =
            run_file ?timeout ?heartbeat ~pipelined ~reclaim ~prefilter
              ~packed ~shards ?sched ?flight checker path;
        })
      paths
  | None ->
    (* The static domain budget is shared between the file fan-out and
       intra-file sharding: [jobs] caps the product, so sharded runs fan
       out fewer files concurrently instead of oversubscribing cores.
       Auto sharding resolves per file, so budget with the machine-wide
       estimate it is capped at. *)
    let shard_width =
      if shards = 0 then Domain.recommended_domain_count () else shards
    in
    let file_jobs =
      if shard_width > 1 then max 1 (jobs / shard_width) else jobs
    in
    (* A lent shard pool is single-consumer ({!Parallel.Pool.map} is not
       reentrant); once files fan out across workers, each file's run
       creates its own chunk pool instead. *)
    let shard_pool =
      if file_jobs > 1 && List.compare_length_with paths 1 > 0 then None
      else shard_pool
    in
    (* A shared heartbeat would interleave lines from concurrent workers;
       drop it when the files actually fan out. *)
    let heartbeat =
      if file_jobs > 1 && List.compare_length_with paths 1 > 0 then None
      else heartbeat
    in
    (* Files checked one after another finish the major GC cycle at each
       file boundary: per-file checker state and decode arenas die there,
       and a run that allocates little paces the major GC too slowly to
       reclaim them before the next file grows the heap.  Never with
       concurrent files, where the stop-the-world collection would stall
       the other domains. *)
    let boundary =
      if file_jobs <= 1 && List.compare_length_with paths 1 > 0 then Gc.major
      else ignore
    in
    Parallel.Pool.run ?report:on_pool ~jobs:file_jobs
      (fun path ->
        let report =
          run_file ?timeout ?heartbeat ~pipelined ~reclaim ~prefilter ~packed
            ~shards ?shard_pool ?flight checker path
        in
        boundary ();
        { file = path; report })
      paths

let violating r =
  match r.outcome with Verdict (Some _) -> true | Verdict None | Timed_out -> false

let speedup ~baseline r =
  match (baseline.outcome, r.outcome) with
  | Timed_out, Timed_out -> None
  | _ -> Some (baseline.seconds /. r.seconds)

let pp ppf r =
  let outcome =
    match r.outcome with
    | Timed_out -> "timeout"
    | Verdict None -> "serializable"
    | Verdict (Some v) ->
      Printf.sprintf "violation @%d" (v.Aerodrome.Violation.index + 1)
  in
  Format.fprintf ppf "%s: %s in %.3fs (%d events)" r.checker outcome r.seconds
    r.events_fed

let pp_file_report ppf fr =
  match fr.report with
  | Ok r -> Format.fprintf ppf "%s: %a" fr.file pp r
  | Error msg -> Format.fprintf ppf "%s: error: %s" fr.file msg
