(* The four pinned workloads: how each is generated from a seed, the
   rapid flags it is checked with, and its expected answers.

   Expected answers never come from the code under test.  The verdict
   comes from the generator's plan ([Atomic] is serializable by
   construction, [Violate_at] plants a violation) and the violation
   index from the frozen pre-epoch checker [Reference_opt]. *)

module G = Workloads.Generator

type expect = Serializable | Violation of int  (** 0-based event index *)

type input = { path : string; expect : expect }

type format = Binary | Text

type item = {
  file : string;
  plan : G.plan;
  make : unit -> Traces.Trace.t;
}

type t = {
  name : string;
  format : format;
  flags : string list;  (** rapid check flags besides [--jobs] *)
  items : scale:float -> seed:int -> item list;
}

(* The custom-workload config of [rapid generate], so each single-trace
   input is reproducible from the CLI:
   [rapid generate --events N --threads 8 --seed S [--shape anchored]
   [--violate-at F]] followed by [rapid convert]. *)
let cli_config ~seed ~events ~shape ~plan =
  {
    G.default with
    seed = Int64.of_int seed;
    events;
    threads = 8;
    shape;
    plan;
    vars = max G.default.vars (events / 3);
  }

let events ?(floor = 2_000) ~scale n =
  max floor (int_of_float (float_of_int n *. scale))

let single ~seed ~events ~shape ~plan =
  [
    {
      file = "trace.bin";
      plan;
      make = (fun () -> G.generate (cli_config ~seed ~events ~shape ~plan));
    };
  ]

let all =
  [
    {
      name = "independent-8t-bin";
      format = Binary;
      flags = [];
      items =
        (fun ~scale ~seed ->
          single ~seed ~events:(events ~scale 4_000_000) ~shape:G.Independent
            ~plan:G.Atomic);
    };
    {
      name = "anchored-8t-violate-bin";
      format = Binary;
      flags = [];
      items =
        (fun ~scale ~seed ->
          single ~seed ~events:(events ~scale 2_000_000) ~shape:G.Anchored
            ~plan:(G.Violate_at 0.9));
    };
    {
      name = "corpus-200-text";
      format = Text;
      flags = [];
      items =
        (fun ~scale ~seed ->
          (* [Workloads.Corpus.generate], one trace at a time so only one
             is ever in memory *)
          Workloads.Corpus.configs ~seed:(Int64.of_int seed) ~traces:200
            ~events_total:(events ~floor:40_000 ~scale 1_000_000) ()
          |> List.map (fun (name, (config : G.config)) ->
                 {
                   file = name ^ ".std";
                   plan = config.plan;
                   make = (fun () -> G.generate config);
                 }));
    };
    {
      name = "mixed-8t-prefilter-bin";
      format = Binary;
      flags = [ "--prefilter" ];
      items =
        (fun ~scale ~seed ->
          [
            {
              file = "trace.bin";
              plan = G.Atomic;
              make =
                (fun () ->
                  Workloads.Corpus.mixed ~seed:(Int64.of_int seed) ~threads:8
                    ~events_total:(events ~scale 6_000_000) ());
            };
          ]);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let expect_of plan tr =
  match plan with
  | G.Atomic -> Serializable
  | G.Violate_at _ -> (
    match Aerodrome.Checker.run (module Reference_opt) tr with
    | Some v -> Violation v.Aerodrome.Violation.index
    | None -> failwith "reference checker found no violation in a Violate_at trace")

(* Generate every input of [w] and write it under [dir].  Returns the
   inputs and the seconds spent generating and writing; with [~oracle]
   the expected answers are computed too, off that clock.  Without it
   every [expect] is [Serializable], a placeholder. *)
let build w ~scale ~seed ~dir ~oracle =
  let setup = ref 0. in
  let inputs =
    List.map
      (fun it ->
        let t0 = Spans.now () in
        let tr = it.make () in
        let path = Filename.concat dir it.file in
        (match w.format with
        | Binary -> Traces.Binfmt.write_file path tr
        | Text -> Traces.Parser.to_file path tr);
        setup := !setup +. (Spans.now () -. t0);
        let expect = if oracle then expect_of it.plan tr else Serializable in
        { path; expect })
      (w.items ~scale ~seed)
  in
  (inputs, !setup)
