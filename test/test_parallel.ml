(* The multicore runtime: ring buffer schedules (wraparound, producer-
   faster, consumer-faster), domain-pool determinism, pipeline error
   propagation, and the differential guarantee that the parallel paths
   ([run_many ~jobs] and the pipelined stream) report byte-for-byte what
   the sequential runner reports. *)

open Traces

(* --- Ring --- *)

let test_ring_wraparound () =
  (* capacity 4, 100 items pushed/popped in small bursts from one domain:
     the indices wrap many times and never block *)
  let r = Parallel.Ring.create 4 in
  let popped = ref [] in
  let pushed = ref 0 in
  while !pushed < 100 do
    let burst = min 3 (100 - !pushed) in
    for _ = 1 to burst do
      Alcotest.(check bool) "push accepted" true (Parallel.Ring.push r !pushed);
      incr pushed
    done;
    for _ = 1 to burst do
      match Parallel.Ring.pop r with
      | Some v -> popped := v :: !popped
      | None -> Alcotest.fail "pop returned None before close"
    done
  done;
  Parallel.Ring.close r;
  Alcotest.(check (option int)) "drained" None (Parallel.Ring.pop r);
  Alcotest.(check (list int)) "order preserved" (List.init 100 Fun.id)
    (List.rev !popped)

let test_ring_producer_faster () =
  (* a tiny ring and a consumer that dawdles: the producer keeps hitting
     a full ring and blocking on not_full *)
  let r = Parallel.Ring.create 2 in
  let n = 500 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          ignore (Parallel.Ring.push r i)
        done;
        Parallel.Ring.close r)
  in
  let popped = ref [] in
  let count = ref 0 in
  let rec drain () =
    match Parallel.Ring.pop r with
    | Some v ->
      popped := v :: !popped;
      incr count;
      if !count mod 100 = 0 then Unix.sleepf 0.002;
      drain ()
    | None -> ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check (list int)) "order preserved under full-ring stalls"
    (List.init n Fun.id) (List.rev !popped)

let test_ring_consumer_faster () =
  (* the producer dawdles: the consumer keeps hitting an empty ring and
     blocking on not_empty *)
  let r = Parallel.Ring.create 8 in
  let n = 300 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          if i mod 50 = 0 then Unix.sleepf 0.002;
          ignore (Parallel.Ring.push r i)
        done;
        Parallel.Ring.close r)
  in
  let popped = ref [] in
  let rec drain () =
    match Parallel.Ring.pop r with
    | Some v ->
      popped := v :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check (list int)) "order preserved under empty-ring stalls"
    (List.init n Fun.id) (List.rev !popped)

let test_ring_cancel () =
  (* consumer cancels mid-stream: the producer's pending push returns
     false and it stops *)
  let r = Parallel.Ring.create 2 in
  let accepted = ref 0 in
  let rejected = ref false in
  let producer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not !rejected do
          if Parallel.Ring.push r !i then incr accepted else rejected := true;
          incr i
        done)
  in
  ignore (Parallel.Ring.pop r);
  ignore (Parallel.Ring.pop r);
  Parallel.Ring.cancel r;
  Domain.join producer;
  Alcotest.(check bool) "producer saw the cancellation" true !rejected;
  Alcotest.(check bool) "some pushes were accepted first" true (!accepted >= 2);
  Alcotest.(check (option int)) "pop after cancel" None (Parallel.Ring.pop r)

(* --- Pool --- *)

let test_pool_map_order () =
  Parallel.Pool.with_pool 4 (fun pool ->
      let input = Array.init 100 Fun.id in
      let out = Parallel.Pool.map pool (fun i -> i * i) input in
      Alcotest.(check (array int)) "results in input order"
        (Array.map (fun i -> i * i) input)
        out;
      (* the pool is reusable *)
      let out2 = Parallel.Pool.map_list pool string_of_int [ 3; 1; 2 ] in
      Alcotest.(check (list string)) "second batch" [ "3"; "1"; "2" ] out2)

let test_pool_error_deterministic () =
  Parallel.Pool.with_pool 4 (fun pool ->
      match
        Parallel.Pool.map pool
          (fun i -> if i mod 2 = 1 then failwith (string_of_int i) else i)
          (Array.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        (* always the smallest failing index, never a scheduling race *)
        Alcotest.(check string) "smallest failing index wins" "1" msg)

let test_pool_run_sequential_equivalence () =
  let xs = List.init 20 Fun.id in
  let f i = i * 7 in
  Alcotest.(check (list int)) "jobs=1 equals jobs=4"
    (Parallel.Pool.run ~jobs:1 f xs)
    (Parallel.Pool.run ~jobs:4 f xs)

(* --- Pipeline --- *)

let test_pipeline_sum () =
  let n = 10_000 in
  let sum =
    Parallel.Pipeline.run ~capacity:4
      ~produce:(fun ~push ->
        for i = 1 to n do
          ignore (push i)
        done)
      ~consume:(fun ~pop ->
        let rec go acc =
          match pop () with Some v -> go (acc + v) | None -> acc
        in
        go 0)
      ()
  in
  Alcotest.(check int) "sum over the ring" (n * (n + 1) / 2) sum

let test_pipeline_producer_error () =
  match
    Parallel.Pipeline.run
      ~produce:(fun ~push ->
        ignore (push 1);
        failwith "producer exploded")
      ~consume:(fun ~pop ->
        let rec drain n =
          match pop () with Some _ -> drain (n + 1) | None -> n
        in
        drain 0)
      ()
  with
  | _ -> Alcotest.fail "expected the producer's exception"
  | exception Failure msg ->
    Alcotest.(check string) "producer error re-raised" "producer exploded" msg

let test_pipeline_consumer_stops_early () =
  (* the consumer walks away after 3 items; the producer must not hang *)
  let produced = ref 0 in
  let got =
    Parallel.Pipeline.run ~capacity:2
      ~produce:(fun ~push ->
        let continue = ref true in
        while !continue do
          incr produced;
          if not (push !produced) then continue := false
        done)
      ~consume:(fun ~pop ->
        let rec go n acc =
          if n = 0 then acc
          else
            match pop () with
            | Some v -> go (n - 1) (v :: acc)
            | None -> acc
        in
        go 3 [])
      ()
  in
  Alcotest.(check (list int)) "first three items" [ 3; 2; 1 ] got

(* --- Differential: parallel paths equal the sequential runner --- *)

let checker : Aerodrome.Checker.t = (module Aerodrome.Opt)

(* Render a file report with the (run-dependent) seconds field zeroed:
   everything else — verdict, violation index, events_fed, error text —
   must be byte-identical across sequential, pooled and pipelined runs. *)
let normalized_report (fr : Analysis.Runner.file_report) =
  let fr =
    match fr.Analysis.Runner.report with
    | Ok r ->
      { fr with Analysis.Runner.report = Ok { r with Analysis.Runner.seconds = 0. } }
    | Error _ -> fr
  in
  Format.asprintf "%a" Analysis.Runner.pp_file_report fr

let corpus_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "aerodrome-par-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  dir

let build_corpus dir n =
  List.init n (fun i ->
      let shape =
        if i mod 2 = 0 then Workloads.Generator.Independent
        else Workloads.Generator.Anchored
      in
      let plan =
        if i mod 3 = 2 then
          Workloads.Generator.Violate_at (0.2 +. (float_of_int (i mod 7) /. 10.))
        else Workloads.Generator.Atomic
      in
      let threads = 2 + (i mod 5) in
      let config =
        {
          Workloads.Generator.default with
          seed = Int64.of_int (1000 + (i * 7919));
          events = 200 + (i * 131 mod 1300);
          threads = (if shape = Workloads.Generator.Anchored then max threads 4 else threads);
          locks = 2 + (i mod 4);
          vars = 256 + (i mod 3 * 100);
          shape;
          plan;
        }
      in
      let tr = Workloads.Generator.generate config in
      (* mostly binary (the service format); every 7th as text, which
         the pool decodes on its workers and [pipelined] runs
         sequentially *)
      if i mod 7 = 3 then begin
        let path = Filename.concat dir (Printf.sprintf "t%03d.std" i) in
        Parser.to_file path tr;
        path
      end
      else begin
        let path = Filename.concat dir (Printf.sprintf "t%03d.bin" i) in
        Binfmt.write_file path tr;
        path
      end)

let test_differential_parallel_paths () =
  let dir = corpus_dir () in
  let n = 200 in
  let paths = build_corpus dir n in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let sequential =
        List.map
          (fun p ->
            normalized_report
              {
                Analysis.Runner.file = p;
                report = Analysis.Runner.run_file checker p;
              })
          paths
      in
      let pooled =
        List.map normalized_report
          (Analysis.Runner.run_many ~jobs:4 checker paths)
      in
      let pipelined =
        List.map normalized_report
          (Analysis.Runner.run_many ~jobs:1 ~pipelined:true checker paths)
      in
      (* at least one violating and one serializable report, or the
         comparison is vacuous *)
      let violating =
        List.filter (fun s -> Helpers.contains s "violation") sequential
      in
      Alcotest.(check bool) "corpus mixes verdicts" true
        (violating <> [] && List.length violating < n);
      Alcotest.(check (list string)) "pool fan-out reports byte-identical"
        sequential pooled;
      Alcotest.(check (list string)) "pipelined reports byte-identical"
        sequential pipelined)

let test_differential_errors_in_batch () =
  let dir = corpus_dir () in
  let good = Filename.concat dir "good.bin" in
  let broken = Filename.concat dir "broken.std" in
  let truncated = Filename.concat dir "truncated.bin" in
  Binfmt.write_file good
    (Workloads.Generator.generate Workloads.Generator.default);
  let oc = open_out broken in
  output_string oc "t1|begin\nt1|frobnicate\n";
  close_out oc;
  (* valid magic, then garbage: Corrupt at decode time *)
  let oc = open_out_bin truncated in
  output_string oc Binfmt.magic;
  output_string oc "\x01";
  close_out oc;
  let paths = [ good; broken; Filename.concat dir "absent.bin"; truncated ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let seq =
        List.map normalized_report (Analysis.Runner.run_many ~jobs:1 checker paths)
      in
      let par =
        List.map normalized_report (Analysis.Runner.run_many ~jobs:4 checker paths)
      in
      Alcotest.(check (list string)) "error reports byte-identical" seq par;
      Alcotest.(check int) "every file got a report" 4 (List.length seq);
      Alcotest.(check bool) "good file still checked" true
        (Helpers.contains (List.nth seq 0) "serializable");
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "report %d is an error" i)
            true
            (Helpers.contains (List.nth seq i) "error:"))
        [ 1; 2; 3 ])

let suite =
  ( "parallel",
    [
      Alcotest.test_case "ring: wraparound" `Quick test_ring_wraparound;
      Alcotest.test_case "ring: producer faster" `Quick
        test_ring_producer_faster;
      Alcotest.test_case "ring: consumer faster" `Quick
        test_ring_consumer_faster;
      Alcotest.test_case "ring: cancel" `Quick test_ring_cancel;
      Alcotest.test_case "pool: map keeps input order" `Quick
        test_pool_map_order;
      Alcotest.test_case "pool: deterministic error" `Quick
        test_pool_error_deterministic;
      Alcotest.test_case "pool: run jobs equivalence" `Quick
        test_pool_run_sequential_equivalence;
      Alcotest.test_case "pipeline: sum" `Quick test_pipeline_sum;
      Alcotest.test_case "pipeline: producer error" `Quick
        test_pipeline_producer_error;
      Alcotest.test_case "pipeline: consumer stops early" `Quick
        test_pipeline_consumer_stops_early;
      Alcotest.test_case "differential: pool + pipelined vs sequential (200 traces)"
        `Slow test_differential_parallel_paths;
      Alcotest.test_case "differential: per-file errors" `Quick
        test_differential_errors_in_batch;
    ] )
