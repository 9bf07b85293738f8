(* The text-trace parser as it stood before the one-pass byte scanner
   replaced it (lib/trace/parser.ml): a verbatim copy below the [open],
   kept as the fixed reference the parser differential tests compare the
   scanner against — events, symbols and [{line; message}] errors.  Do
   not edit it when changing lib/trace. *)

open Traces
open Ids

type error = { line : int; message : string }

exception Parse_error of error

let fail line fmt = Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* Splits "thread|op|rest" into fields; extra fields beyond the second are
   ignored (RAPID logs carry a source-location third field). *)
let split_fields s =
  String.split_on_char '|' s |> List.map String.trim

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' | '$' | '@' -> true
  | _ -> false

let check_name line what s =
  if s = "" then fail line "empty %s name" what;
  String.iter
    (fun c -> if not (is_name_char c) then fail line "bad character %C in %s name %S" c what s)
    s

(* Parses an operation "kind(target)" or a bare keyword. *)
let parse_op line ~threads ~locks ~vars s =
  let with_target kind =
    match (String.index_opt s '(', String.rindex_opt s ')') with
    | Some i, Some j when j = String.length s - 1 && i < j ->
      let target = String.trim (String.sub s (i + 1) (j - i - 1)) in
      check_name line kind target;
      target
    | _ -> fail line "malformed operation %S (expected %s(target))" s kind
  in
  let kind =
    match String.index_opt s '(' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  match String.lowercase_ascii kind with
  | "r" | "read" -> Event.Read (Vid.of_int (Interner.intern vars (with_target kind)))
  | "w" | "write" -> Event.Write (Vid.of_int (Interner.intern vars (with_target kind)))
  | "acq" | "acquire" | "lock" ->
    Event.Acquire (Lid.of_int (Interner.intern locks (with_target kind)))
  | "rel" | "release" | "unlock" ->
    Event.Release (Lid.of_int (Interner.intern locks (with_target kind)))
  | "fork" -> Event.Fork (Tid.of_int (Interner.intern threads (with_target kind)))
  | "join" -> Event.Join (Tid.of_int (Interner.intern threads (with_target kind)))
  | "begin" | "b" -> Event.Begin
  | "end" | "e" -> Event.End
  | other -> fail line "unknown operation %S" other

(* One raw line against the interners; [None] for blanks and comments. *)
let parse_event_line ~threads ~locks ~vars lineno raw =
  let line = String.trim raw in
  if line = "" || line.[0] = '#' then None
  else
    match split_fields line with
    | thread :: op :: _ ->
      check_name lineno "thread" thread;
      let tid = Tid.of_int (Interner.intern threads thread) in
      let op = parse_op lineno ~threads ~locks ~vars op in
      Some (Event.make tid op)
    | _ -> fail lineno "expected thread|operation, got %S" line

let parse_lines_exn lines =
  let threads = Interner.create ()
  and locks = Interner.create ()
  and vars = Interner.create () in
  let events = ref [] in
  let lineno = ref 0 in
  Seq.iter
    (fun raw ->
      incr lineno;
      match parse_event_line ~threads ~locks ~vars !lineno raw with
      | Some e -> events := e :: !events
      | None -> ())
    lines;
  let symbols : Trace.Symbols.t =
    {
      threads = Interner.names threads;
      locks = Interner.names locks;
      vars = Interner.names vars;
    }
  in
  Trace.of_events ~symbols (List.rev !events)

let parse_lines lines =
  match parse_lines_exn lines with
  | tr -> Ok tr
  | exception Parse_error e -> Error e

let seq_of_string s = String.split_on_char '\n' s |> List.to_seq

let parse_string s = parse_lines (seq_of_string s)
let parse_string_exn s = parse_lines_exn (seq_of_string s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path = parse_string (read_file path)
let parse_file_exn path = parse_string_exn (read_file path)

(* Fold [f acc lineno raw] over the file's lines without loading the file:
   one [In_channel.input_line] at a time, constant memory. *)
let fold_raw_lines path f init =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lineno = ref 0 in
      let rec go acc =
        match In_channel.input_line ic with
        | None -> acc
        | Some raw ->
          incr lineno;
          go (f acc !lineno raw)
      in
      go init)

(* Streaming parse.  The domain sizes live at arbitrary points of a text
   trace (a name's id is its order of first appearance), so a single pass
   cannot announce them before the first event; we read the file twice
   instead: pass 1 interns every name, pass 2 replays the (now-complete)
   interners and folds the events.  Memory is the symbol tables plus one
   line, independent of the event count. *)
(* Process-wide ingestion counters; bulk-updated after pass 2 so the
   line loop itself only pays local ref updates while telemetry is on. *)
let events_parsed =
  Obs.Registry.shared_counter Obs.Registry.global "ingest.text.events_parsed"

let lines_read =
  Obs.Registry.shared_counter Obs.Registry.global "ingest.text.lines_read"

(* Growable last-access array for pass 1: ids are interned on the fly,
   so the domain sizes are unknown until the pass ends. *)
let ensure a i =
  let n = Array.length !a in
  if i >= n then begin
    let grown = Array.make (max (2 * n) (i + 1)) Lifetime.never in
    Array.blit !a 0 grown 0 n;
    a := grown
  end

let shrink a count =
  Array.init count (fun i -> if i < Array.length !a then !a.(i) else Lifetime.never)

let fold_file_exn ?last_use ?stats path ~init ~f =
  let threads = Interner.create ()
  and locks = Interner.create ()
  and vars = Interner.create () in
  (match (last_use, stats) with
  | None, None ->
    fold_raw_lines path
      (fun () lineno raw ->
        ignore (parse_event_line ~threads ~locks ~vars lineno raw))
      ()
  | _ ->
    (* The interning pass already decodes every event, so the last-use
       index and the accessor statistics come for free: record the
       running event index (and accessor masks) per id. *)
    let last_v = ref (Array.make 64 Lifetime.never)
    and last_l = ref (Array.make 16 Lifetime.never) in
    let vs =
      match stats with
      | None -> None
      | Some _ -> Some (Varstats.create ~vars:64 ~locks:16)
    in
    let n =
      fold_raw_lines path
        (fun n lineno raw ->
          match parse_event_line ~threads ~locks ~vars lineno raw with
          | None -> n
          | Some e ->
            (match vs with Some vs -> Varstats.note vs e | None -> ());
            (match e.Event.op with
            | Event.Read x | Event.Write x ->
              let x = Ids.Vid.to_int x in
              ensure last_v x;
              !last_v.(x) <- n
            | Event.Acquire l | Event.Release l ->
              let l = Ids.Lid.to_int l in
              ensure last_l l;
              !last_l.(l) <- n
            | Event.Fork _ | Event.Join _ | Event.Begin | Event.End -> ());
            n + 1)
        0
    in
    ignore n;
    (match last_use with
    | None -> ()
    | Some notify ->
      notify
        {
          Lifetime.vars = shrink last_v (Interner.count vars);
          locks = shrink last_l (Interner.count locks);
        });
    match (stats, vs) with
    | Some notify, Some vs -> notify vs
    | _ -> ());
  let acc =
    init ~threads:(Interner.count threads) ~locks:(Interner.count locks)
      ~vars:(Interner.count vars)
  in
  let counting = Obs.on () in
  let nlines = ref 0 and nevents = ref 0 in
  let acc =
    fold_raw_lines path
      (fun acc lineno raw ->
        if counting then nlines := lineno;
        match parse_event_line ~threads ~locks ~vars lineno raw with
        | Some e ->
          if counting then incr nevents;
          f acc e
        | None -> acc)
      acc
  in
  if counting then begin
    Obs.Shared_counter.add lines_read !nlines;
    Obs.Shared_counter.add events_parsed !nevents
  end;
  acc

let fold_file ?last_use ?stats path ~init ~f =
  match fold_file_exn ?last_use ?stats path ~init ~f with
  | acc -> Ok acc
  | exception Parse_error e -> Error e

let render_event symbols buf (e : Event.t) =
  let add = Buffer.add_string buf in
  let s = (symbols : Trace.Symbols.t) in
  add (Trace.Symbols.thread s e.thread);
  add "|";
  (match e.op with
  | Event.Read x -> add ("r(" ^ Trace.Symbols.var s x ^ ")")
  | Event.Write x -> add ("w(" ^ Trace.Symbols.var s x ^ ")")
  | Event.Acquire l -> add ("acq(" ^ Trace.Symbols.lock s l ^ ")")
  | Event.Release l -> add ("rel(" ^ Trace.Symbols.lock s l ^ ")")
  | Event.Fork u -> add ("fork(" ^ Trace.Symbols.thread s u ^ ")")
  | Event.Join u -> add ("join(" ^ Trace.Symbols.thread s u ^ ")")
  | Event.Begin -> add "begin"
  | Event.End -> add "end");
  Buffer.add_char buf '\n'

let default_symbols : Trace.Symbols.t = { threads = [||]; locks = [||]; vars = [||] }

let to_string tr =
  let symbols = Option.value ~default:default_symbols (Trace.symbols tr) in
  let buf = Buffer.create (16 * Trace.length tr) in
  Trace.iter (render_event symbols buf) tr;
  Buffer.contents buf

let to_channel oc tr = output_string oc (to_string tr)

let to_file path tr =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> to_channel oc tr)

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message
