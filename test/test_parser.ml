(* Parser / printer tests. *)

open Traces

let check = Alcotest.check

let parse s =
  match Parser.parse_string s with
  | Ok tr -> tr
  | Error e -> Alcotest.failf "unexpected parse error: %a" Parser.pp_error e

let test_basic () =
  let tr = parse "t1|begin\nt1|w(x)\nt2|r(x)\nt1|end\n" in
  check Alcotest.int "events" 4 (Trace.length tr);
  check Alcotest.int "threads" 2 (Trace.threads tr);
  check Alcotest.int "vars" 1 (Trace.vars tr);
  check Alcotest.bool "first is begin" true
    (Event.equal (Trace.get tr 0) (Event.begin_ 0))

let test_all_ops () =
  let tr =
    parse
      "main|fork(w)\nw|begin\nw|acq(l)\nw|r(x)\nw|w(x)\nw|rel(l)\nw|end\nmain|join(w)\n"
  in
  check Alcotest.int "events" 8 (Trace.length tr);
  check Alcotest.int "locks" 1 (Trace.locks tr);
  let kinds =
    Trace.fold
      (fun acc (e : Event.t) ->
        acc
        ^
        match e.op with
        | Event.Fork _ -> "f"
        | Event.Begin -> "b"
        | Event.Acquire _ -> "a"
        | Event.Read _ -> "r"
        | Event.Write _ -> "w"
        | Event.Release _ -> "l"
        | Event.End -> "e"
        | Event.Join _ -> "j")
      "" tr
  in
  check Alcotest.string "order" "fbarwlej" kinds

let test_aliases_and_extras () =
  let tr =
    parse
      "# a comment\n\nt1|read(x)|42\nt1|write(x)|43\nt1|lock(m)\nt1|unlock(m)\nt1|b\nt1|e\n"
  in
  check Alcotest.int "events" 6 (Trace.length tr)

let test_symbols_preserved () =
  let tr = parse "alpha|w(count)\nbeta|r(count)\n" in
  match Trace.symbols tr with
  | None -> Alcotest.fail "expected symbols"
  | Some s ->
    check Alcotest.string "thread name" "alpha" (Trace.Symbols.thread s (Ids.Tid.of_int 0));
    check Alcotest.string "var name" "count" (Trace.Symbols.var s (Ids.Vid.of_int 0))

let test_errors () =
  let expect_err s =
    match Parser.parse_string s with
    | Ok _ -> Alcotest.failf "expected error for %S" s
    | Error e -> e
  in
  let e = expect_err "t1\n" in
  check Alcotest.int "line" 1 e.Parser.line;
  ignore (expect_err "t1|frobnicate(x)\n");
  ignore (expect_err "t1|r(\n");
  ignore (expect_err "t1|r()\n");
  ignore (expect_err "|r(x)\n");
  ignore (expect_err "t 1|r(x)\n")

(* Parsing re-interns ids densely in order of first appearance, so a
   print/parse cycle renames ids; after one such cycle the rendering is a
   fixed point, and the renaming preserves verdicts. *)
let test_roundtrip_scenarios () =
  List.iter
    (fun (name, tr, expected) ->
      let tr' = Parser.parse_string_exn (Parser.to_string tr) in
      Alcotest.check Alcotest.string (name ^ ": printing is a fixed point")
        (Parser.to_string tr') (Parser.to_string (Parser.parse_string_exn (Parser.to_string tr')));
      Alcotest.check Alcotest.int (name ^ ": same length") (Trace.length tr)
        (Trace.length tr');
      Alcotest.check Alcotest.bool (name ^ ": verdict preserved")
        (expected = `Violating)
        (Helpers.verdict (module Aerodrome.Opt) tr'))
    Workloads.Scenarios.all

let test_file_io () =
  let path = Filename.temp_file "aerodrome" ".std" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Parser.to_file path Workloads.Scenarios.rho4;
      let tr = Parser.parse_file_exn path in
      Alcotest.check Alcotest.string "file roundtrip"
        (Parser.to_string Workloads.Scenarios.rho4)
        (Parser.to_string tr))

let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse/print is a fixed point" ~count:100
    (Helpers.arb_trace ~threads:4 ~locks:2 ~vars:4 ~max_len:80 ())
    (fun tr ->
      let once = Parser.to_string (Parser.parse_string_exn (Parser.to_string tr)) in
      let twice = Parser.to_string (Parser.parse_string_exn once) in
      once = twice)

let prop_roundtrip_preserves_verdict =
  QCheck.Test.make ~name:"id renaming preserves the verdict" ~count:100
    (Helpers.arb_trace ~threads:4 ~locks:2 ~vars:4 ~max_len:80 ())
    (fun tr ->
      let tr' = Parser.parse_string_exn (Parser.to_string tr) in
      Helpers.verdict (module Aerodrome.Opt) tr
      = Helpers.verdict (module Aerodrome.Opt) tr')

(* --- the scanner against the frozen line parser ---

   [Reference.Reference_parser] is the split-and-trim parser the byte
   scanner replaced.  Valid [.std] text is generated, then mutated line
   by line (whitespace, CRLF, keyword case, third fields, comments,
   blanks, missing trailing newline, bad bytes, broken parentheses,
   empty fields); every entry point must agree with the reference on the
   events, the symbols and the [{line; message}] of any error. *)

module R = Reference.Reference_parser

let pick rs a = a.(Random.State.int rs (Array.length a))

let thread_names = [| "t1"; "T2"; "main"; "w-0"; "a.b"; "x:y"; "$t"; "@u"; "_v" |]
let var_names = [| "x"; "y"; "count"; "V1"; "a$b"; "o.f" |]
let lock_names = [| "l"; "m"; "L0"; "lock" |]

let spaces rs = pick rs [| ""; ""; ""; " "; "  "; "\t"; " \t" |]

let random_case rs s =
  String.map
    (fun c -> if Random.State.bool rs then Char.uppercase_ascii c else c)
    s

let op_text rs =
  let kw k = if Random.State.int rs 4 = 0 then random_case rs k else k in
  let target k names =
    Printf.sprintf "%s(%s%s%s)" (kw k) (spaces rs) (pick rs names) (spaces rs)
  in
  match Random.State.int rs 8 with
  | 0 -> target (pick rs [| "r"; "read" |]) var_names
  | 1 -> target (pick rs [| "w"; "write" |]) var_names
  | 2 -> target (pick rs [| "acq"; "acquire"; "lock" |]) lock_names
  | 3 -> target (pick rs [| "rel"; "release"; "unlock" |]) lock_names
  | 4 -> target "fork" thread_names
  | 5 -> target "join" thread_names
  | 6 -> kw (pick rs [| "begin"; "b" |])
  | _ -> kw (pick rs [| "end"; "e" |])

let valid_line rs =
  match Random.State.int rs 12 with
  | 0 -> "# " ^ pick rs thread_names ^ "|note"
  | 1 -> spaces rs
  | _ ->
    let third =
      match Random.State.int rs 4 with
      | 0 -> "|" ^ string_of_int (Random.State.int rs 100)
      | 1 -> "|src.ml:3|x"
      | _ -> ""
    in
    Printf.sprintf "%s%s%s|%s%s%s%s" (spaces rs) (pick rs thread_names)
      (spaces rs) (spaces rs) (op_text rs) third (spaces rs)

let odd_bytes = "\t\r\012\000 |()#!,;\"\\\xe9\x7f xrR"

let mutate rs line =
  let n = String.length line in
  match Random.State.int rs 9 with
  | 0 ->
    let i = Random.State.int rs (n + 1) in
    String.sub line 0 i
    ^ String.make 1 odd_bytes.[Random.State.int rs (String.length odd_bytes)]
    ^ String.sub line i (n - i)
  | 1 when n > 0 ->
    let i = Random.State.int rs n in
    String.sub line 0 i ^ String.sub line (i + 1) (n - i - 1)
  | 2 -> String.map (fun c -> if c = '(' then ' ' else c) line
  | 3 -> String.map (fun c -> if c = ')' then '(' else c) line
  | 4 -> (
    match String.index_opt line '|' with
    | Some i -> String.sub line i (n - i)  (* empty thread *)
    | None -> line)
  | 5 -> (
    match String.index_opt line '|' with
    | Some i -> String.sub line 0 (i + 1)  (* empty op *)
    | None -> line)
  | 6 -> line ^ ")"
  | 7 -> String.concat "" (String.split_on_char '|' line)
  | _ -> random_case rs line

let gen_std rs =
  let lines = List.init (Random.State.int rs 25) (fun _ -> valid_line rs) in
  let lines =
    if Random.State.int rs 3 = 0 then lines
    else List.map (fun l -> if Random.State.int rs 8 = 0 then mutate rs l else l) lines
  in
  let eol = if Random.State.bool rs then "\n" else "\r\n" in
  let text = String.concat eol lines in
  if Random.State.bool rs then text ^ eol else text

let arb_std = QCheck.make ~print:String.escaped gen_std

type outcome =
  | Events of Event.t list * int * int * int * Trace.Symbols.t option
  | Failed of int * string

let of_trace tr =
  Events (Trace.to_list tr, Trace.threads tr, Trace.locks tr, Trace.vars tr, Trace.symbols tr)

let new_outcome = function
  | Ok tr -> of_trace tr
  | Error (e : Parser.error) -> Failed (e.line, e.message)

let ref_outcome = function
  | Ok tr -> of_trace tr
  | Error (e : R.error) -> Failed (e.line, e.message)

let with_file text f =
  let path = Filename.temp_file "aerodrome_scan" ".std" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

(* fold_file's whole observable result: the domains, the events, and the
   last-use index and accessor statistics handed over before [init]. *)
let fold_outcome fold path =
  let lt = ref None and vs = ref None in
  let init ~threads ~locks ~vars = ((threads, locks, vars), []) in
  let f (d, acc) e = (d, e :: acc) in
  match fold (fun l -> lt := Some l) (fun s -> vs := Some s) path init f with
  | exception Parser.Parse_error e -> Error (e.line, e.message)
  | exception R.Parse_error e -> Error (e.line, e.message)
  | (d, evs) ->
    let stats =
      Option.map
        (fun s ->
          ( List.init (Varstats.vars s) (fun x ->
                (Varstats.var_mask s x, Varstats.var_writes s x)),
            List.init (Varstats.locks s) (Varstats.lock_mask s) ))
        !vs
    in
    Ok (d, List.rev evs, !lt, stats)

let prop_scanner_matches_reference =
  QCheck.Test.make ~name:"scanner = reference parser on mutated .std" ~count:2000
    arb_std (fun text ->
      let lines () = List.to_seq (String.split_on_char '\n' text) in
      new_outcome (Parser.parse_string text) = ref_outcome (R.parse_string text)
      && new_outcome (Parser.parse_lines (lines ()))
         = ref_outcome (R.parse_lines (lines ()))
      && with_file text (fun path ->
             new_outcome (Parser.parse_file path) = ref_outcome (R.parse_file path)
             && fold_outcome
                  (fun last_use stats path init f ->
                    Parser.fold_file_exn ~last_use ~stats path ~init ~f)
                  path
                = fold_outcome
                    (fun last_use stats path init f ->
                      R.fold_file_exn ~last_use ~stats path ~init ~f)
                    path))

(* Files longer than the scanner's 64 KiB read window: lines straddle
   window boundaries, and a line longer than the window widens it. *)
let test_window_boundaries () =
  let long_name = String.make 150_000 'x' in
  let many =
    Parser.to_string
      (Workloads.Generator.generate
         { Workloads.Generator.default with events = 30_000; threads = 5; vars = 300 })
  in
  List.iter
    (fun text ->
      with_file text (fun path ->
          check Alcotest.bool "parse_file = reference" true
            (new_outcome (Parser.parse_file path) = ref_outcome (R.parse_file path))))
    [
      many;
      "t|r(" ^ long_name ^ ")\nt|w(y)\n" ^ many;
      many ^ "t|r(" ^ long_name ^ "!)\n";
    ]

(* A line of many megabytes costs time linear in its length: a file
   with no newline at all, or with CR-only line ends, is one long line
   that grows the window many reads in a row.  The time is bounded by
   the reference's on the first file (its [input_line] is linear); a
   scan that re-searched the carried line from its start on every read
   would take seconds here.  Both lines pass or fail on their first
   bytes, so the CR-only file's outcome is the reference's on a short
   prefix (the reference would split the long line into millions of
   fields). *)
let test_long_line_linear () =
  let size = 16 lsl 20 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let spaces n = "t|b" ^ String.make n ' ' in
  let crs n = String.init n (fun i -> "t|r(x)\r".[i mod 7]) in
  let expected, ref_s =
    with_file (spaces size) (fun path -> timed (fun () -> ref_outcome (R.parse_file path)))
  in
  List.iter
    (fun (what, text, expected) ->
      with_file text (fun path ->
          let got, s = timed (fun () -> new_outcome (Parser.parse_file path)) in
          check Alcotest.bool (what ^ ": parse_file = reference") true (got = expected);
          if s > 0.5 +. (10. *. ref_s) then
            Alcotest.failf "%s: %.2fs for a %d-byte line (reference %.2fs)" what s size
              ref_s))
    [
      ("no newline", spaces size, expected);
      ("CR-only line ends", crs size, ref_outcome (R.parse_string (crs 700)));
    ]

(* A trace may name at most [Packed.max_tid + 1] threads: the line that
   introduces one more is refused, whichever entry point reads it.  The
   lines come from a lazy sequence of 4-character names, so no text of
   the whole trace is ever built. *)
let test_thread_limit () =
  let limit = Packed.max_tid + 1 in
  let digits = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" in
  let name i =
    String.init 4 (fun k ->
        let rec pow n = if n = 0 then 1 else 62 * pow (n - 1) in
        digits.[i / pow k mod 62])
  in
  match Parser.parse_lines (Seq.init (limit + 1) (fun i -> name i ^ "|b")) with
  | Ok _ -> Alcotest.fail "expected the thread limit to be enforced"
  | Error e ->
    check Alcotest.int "offending line" (limit + 1) e.Parser.line;
    check Alcotest.string "message"
      (Printf.sprintf "more than %d distinct thread names" limit)
      e.Parser.message

(* The printer's bytes, pinned: symbol names where the table has them,
   [T]/[L]/[V] fallbacks past its end; [to_file] writes [to_string]'s
   bytes through its flushed buffer (the long trace crosses several
   flushes). *)
let test_render_fixed () =
  let evs =
    [
      Event.fork 0 1; Event.begin_ 1; Event.acquire 1 0; Event.read 1 12;
      Event.write 1 3; Event.release 1 0; Event.end_ 1; Event.join 0 1;
    ]
  in
  check Alcotest.string "no symbols"
    "T0|fork(T1)\nT1|begin\nT1|acq(L0)\nT1|r(V12)\nT1|w(V3)\nT1|rel(L0)\nT1|end\nT0|join(T1)\n"
    (Parser.to_string (Trace.of_events evs));
  let symbols : Trace.Symbols.t = { threads = [| "main" |]; locks = [| "m" |]; vars = [| "x" |] } in
  check Alcotest.string "partial symbols"
    "main|fork(T1)\nT1|begin\nT1|acq(m)\nT1|r(V12)\nT1|w(V3)\nT1|rel(m)\nT1|end\nmain|join(T1)\n"
    (Parser.to_string (Trace.of_events ~symbols evs));
  let long =
    Workloads.Generator.generate
      { Workloads.Generator.default with events = 30_000; threads = 5; vars = 300 }
  in
  with_file "" (fun path ->
      Parser.to_file path long;
      check Alcotest.string "to_file = to_string" (Parser.to_string long)
        (In_channel.with_open_bin path In_channel.input_all))

let suite =
  ( "parser",
    [
      Alcotest.test_case "basic" `Quick test_basic;
      Alcotest.test_case "all operations" `Quick test_all_ops;
      Alcotest.test_case "aliases/comments/extras" `Quick test_aliases_and_extras;
      Alcotest.test_case "symbols" `Quick test_symbols_preserved;
      Alcotest.test_case "errors" `Quick test_errors;
      Alcotest.test_case "scenario roundtrips" `Quick test_roundtrip_scenarios;
      Alcotest.test_case "file io" `Quick test_file_io;
      Alcotest.test_case "read-window boundaries" `Quick test_window_boundaries;
      Alcotest.test_case "multi-megabyte line" `Quick test_long_line_linear;
      Alcotest.test_case "thread-name limit" `Quick test_thread_limit;
      Alcotest.test_case "fixed rendering" `Quick test_render_fixed;
    ]
    @ Helpers.qcheck_tests
        [
          prop_roundtrip;
          prop_roundtrip_preserves_verdict;
          prop_scanner_matches_reference;
        ] )
