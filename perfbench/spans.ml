(* In-memory span recorder for the traced run, its Chrome trace-event
   export, and the per-layer self times read back from that export.

   A span has a name ("layer.call"), start and stop on the monotonic
   clock, the id of its enclosing span, the run id shared by every
   span of one traced workload run, and the OCaml runtime's collection
   counts across it (Gc.quick_stat deltas).  The layer of a span is the
   part of its name before the first dot. *)

external now : unit -> (float[@unboxed])
  = "perfbench_now" "perfbench_now_unboxed"
[@@noalloc]

type span = {
  id : int;
  name : string;
  run : int;
  parent : int;  (** -1 for a root span *)
  start : float;
  stop : float;
  minor_gcs : int;
  major_gcs : int;
  heap_words : int;  (** major heap size when the span closed *)
}

let recorded : span list ref = ref [] (* newest first *)
let open_spans : int list ref = ref []
let next_id = ref 0
let current_run = ref 0
let origin = now ()

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let g0 = Gc.quick_stat () in
  let start = now () in
  let close () =
    let stop = now () in
    let g1 = Gc.quick_stat () in
    open_spans := List.tl !open_spans;
    recorded :=
      {
        id;
        name;
        run = !current_run;
        parent;
        start;
        stop;
        minor_gcs = g1.minor_collections - g0.minor_collections;
        major_gcs = g1.major_collections - g0.major_collections;
        heap_words = g1.heap_words;
      }
      :: !recorded
  in
  Fun.protect ~finally:close f

(* [run f] opens a fresh run id and records [f] under a root span named
   "run".  Returns the run id with the result. *)
let run f =
  incr current_run;
  let r = span "run" f in
  (!current_run, r)

(* Wall seconds one span adds to the code it wraps: the mean over 1000
   spans around an empty body, which are not kept. *)
let cost () =
  let n = 1000 in
  let kept = !recorded in
  let t0 = now () in
  for _ = 1 to n do
    span "trace.probe" ignore
  done;
  let dt = now () -. t0 in
  recorded := kept;
  dt /. float_of_int n

let of_run id = List.filter (fun s -> s.run = id) !recorded
let seconds s = s.stop -. s.start

(* Summed wall seconds of the spans named [name] in [spans]. *)
let total spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. seconds s else acc)
    0. spans

let durations spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (seconds s) else None)
    spans

(* Chrome trace-event JSON ("ph":"X" complete events, microseconds),
   loadable in Perfetto.  Span identity, nesting and the run id travel
   in [args]; [other] lands in the top-level "otherData" object. *)
let write_chrome path ~other =
  let us t = Obs.Json.Num ((t -. origin) *. 1e6) in
  let event s =
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str s.name);
        ("cat", Obs.Json.Str (layer s.name));
        ("ph", Obs.Json.Str "X");
        ("ts", us s.start);
        ("dur", Obs.Json.Num ((s.stop -. s.start) *. 1e6));
        ("pid", Obs.Json.Num 1.);
        ("tid", Obs.Json.Num 1.);
        ( "args",
          Obs.Json.Obj
            [
              ("id", Obs.Json.Num (float_of_int s.id));
              ("parent", Obs.Json.Num (float_of_int s.parent));
              ("run", Obs.Json.Num (float_of_int s.run));
              ("gc_minor", Obs.Json.Num (float_of_int s.minor_gcs));
              ("gc_major", Obs.Json.Num (float_of_int s.major_gcs));
            ] );
      ]
  in
  let doc =
    Obs.Json.Obj
      [
        ("traceEvents", Obs.Json.List (List.rev_map event !recorded));
        ("displayTimeUnit", Obs.Json.Str "ms");
        ("otherData", other);
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json_out.to_string doc))

(* Per-layer self time read back from a file [write_chrome] wrote: a
   span's duration minus its direct children's, summed by layer and
   divided by the number of runs.  Sorted by layer name. *)
let layer_self_seconds path =
  let num k j =
    match Obs.Json.member k j with Some (Obs.Json.Num f) -> f | _ -> nan
  in
  let events =
    match
      Obs.Json.member "traceEvents"
        (Obs.Json.parse_exn (In_channel.with_open_bin path In_channel.input_all))
    with
    | Some (Obs.Json.List l) -> l
    | _ -> failwith (path ^ ": no traceEvents array")
  in
  let info =
    List.map
      (fun e ->
        let args = Option.value ~default:Obs.Json.Null (Obs.Json.member "args" e) in
        let cat =
          match Obs.Json.member "cat" e with Some (Obs.Json.Str c) -> c | _ -> "?"
        in
        (int_of_float (num "id" args), int_of_float (num "parent" args),
         int_of_float (num "run" args), cat, num "dur" e *. 1e-6))
      events
  in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun (_, parent, _, _, d) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt child_time parent) in
      Hashtbl.replace child_time parent (prev +. d))
    info;
  let runs = Hashtbl.create 8 and self = Hashtbl.create 16 in
  List.iter
    (fun (id, _, run, cat, d) ->
      Hashtbl.replace runs run ();
      let own = d -. Option.value ~default:0. (Hashtbl.find_opt child_time id) in
      let prev = Option.value ~default:0. (Hashtbl.find_opt self cat) in
      Hashtbl.replace self cat (prev +. own))
    info;
  let n = float_of_int (max 1 (Hashtbl.length runs)) in
  Hashtbl.fold (fun cat s acc -> (cat, s /. n) :: acc) self []
  |> List.sort compare
