open Ids

type error = { line : int; message : string }

exception Parse_error of error

let fail line fmt = Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* --- the byte scanner ---

   One pass over the raw bytes: each line is trimmed, split and
   classified in place, names are interned by slice (a string is
   allocated only the first time a name appears), and the event is
   written as one packed word into an arena.  Nothing is allocated per
   event on the success path; error messages build their strings only
   when they fire.  The accepted language, the id order and the
   [{line; message}] of every error are exactly those of the former
   split-and-trim line parser (kept in test/reference/ as the oracle of
   the differential tests). *)

(* [String.trim]'s whitespace set. *)
let[@inline] is_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

let[@inline] is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' | '$' | '@' -> true
  | _ -> false

let skip_space b lo hi =
  let i = ref lo in
  while !i < hi && is_space (Bytes.unsafe_get b !i) do
    incr i
  done;
  !i

let skip_space_back b lo hi =
  let i = ref hi in
  while !i > lo && is_space (Bytes.unsafe_get b (!i - 1)) do
    decr i
  done;
  !i

(* First position of [c] in [lo, hi), or [hi]. *)
let index_byte b lo hi c =
  let i = ref lo in
  while !i < hi && Bytes.unsafe_get b !i <> c do
    incr i
  done;
  !i

let sub b lo hi = Bytes.sub_string b lo (hi - lo)

(* Lower-case for comparing against lower-case letters only: [c lor 0x20]
   equals a lower-case letter exactly when [c] is that letter in either
   case. *)
let[@inline] lower c = Char.unsafe_chr (Char.code c lor 0x20)

let rec kw_from b lo s i n =
  i = n || (lower (Bytes.unsafe_get b (lo + i)) = String.unsafe_get s i && kw_from b lo s (i + 1) n)

let[@inline] kw b lo s = kw_from b lo s 0 (String.length s)

(* The opcode of the keyword [b.[lo, hi)], case-insensitively, or -1. *)
let keyword b lo hi =
  match hi - lo with
  | 1 -> (
    match lower (Bytes.unsafe_get b lo) with
    | 'r' -> Packed.op_read
    | 'w' -> Packed.op_write
    | 'b' -> Packed.op_begin
    | 'e' -> Packed.op_end
    | _ -> -1)
  | 3 ->
    if kw b lo "acq" then Packed.op_acquire
    else if kw b lo "rel" then Packed.op_release
    else if kw b lo "end" then Packed.op_end
    else -1
  | 4 ->
    if kw b lo "read" then Packed.op_read
    else if kw b lo "lock" then Packed.op_acquire
    else if kw b lo "fork" then Packed.op_fork
    else if kw b lo "join" then Packed.op_join
    else -1
  | 5 ->
    if kw b lo "write" then Packed.op_write
    else if kw b lo "begin" then Packed.op_begin
    else -1
  | 6 -> if kw b lo "unlock" then Packed.op_release else -1
  | 7 ->
    if kw b lo "acquire" then Packed.op_acquire
    else if kw b lo "release" then Packed.op_release
    else -1
  | _ -> -1

(* Position of the first byte that disqualifies [b.[lo, hi)] as a name
   ([lo] when it is empty), or -1 when it is a valid name. *)
let bad_name b lo hi =
  if lo = hi then lo
  else begin
    let i = ref lo in
    while !i < hi && is_name_char (Bytes.unsafe_get b !i) do
      incr i
    done;
    if !i = hi then -1 else !i
  end

let name_error line what b lo hi at =
  if lo = hi then fail line "empty %s name" what
  else fail line "bad character %C in %s name %S" (Bytes.get b at) what (sub b lo hi)

type scan = {
  threads : Interner.t;
  locks : Interner.t;
  vars : Interner.t;
  arena : Packed.Arena.t;
  mutable events : int;
  mutable line : int;  (* number of the line being scanned *)
  track : bool;  (* build the last-use index *)
  mutable last_v : int array;
  mutable last_l : int array;
  stats : Varstats.t option;
}

let new_scan ?(chunk_words = 4096) ~track ~stats () =
  {
    threads = Interner.create ();
    locks = Interner.create ();
    vars = Interner.create ();
    arena = Packed.Arena.create ~chunk_words ();
    events = 0;
    line = 0;
    track;
    last_v = (if track then Array.make 64 Lifetime.never else [||]);
    last_l = (if track then Array.make 16 Lifetime.never else [||]);
    stats = (if stats then Some (Varstats.create ~vars:64 ~locks:16) else None);
  }

(* Ids are dense, so the first id past [max_tid] is the first name too
   many for the packed word. *)
let intern_thread sc b lo hi =
  let t = Interner.intern_slice sc.threads b lo hi in
  if t > Packed.max_tid then
    fail sc.line "more than %d distinct thread names" (Packed.max_tid + 1);
  t

(* Growable last-access array: ids are interned on the fly, so the
   domain sizes are unknown until the pass ends. *)
let note_last a i n =
  let len = Array.length a in
  let a =
    if i < len then a
    else begin
      let grown = Array.make (max (2 * len) (i + 1)) Lifetime.never in
      Array.blit a 0 grown 0 len;
      grown
    end
  in
  a.(i) <- n;
  a

let push sc w =
  let n = sc.events in
  Packed.Arena.push sc.arena w;
  sc.events <- n + 1;
  let op = Packed.opcode w in
  if op <= Packed.op_release then begin
    if sc.track then begin
      let d = Packed.target w in
      if op <= Packed.op_write then sc.last_v <- note_last sc.last_v d n
      else sc.last_l <- note_last sc.last_l d n
    end;
    match sc.stats with Some vs -> Varstats.note_packed vs w | None -> ()
  end

(* One raw line, [b.[lo, hi)] without its newline.  Mirrors the former
   parser step by step: trim the line; skip blanks and comments; split
   at the first two ['|'] and trim each field; check and intern the
   thread before the operation; match the keyword before checking the
   target. *)
let scan_line sc b lo hi =
  let lo = skip_space b lo hi in
  let hi = skip_space_back b lo hi in
  if lo < hi && Bytes.unsafe_get b lo <> '#' then begin
    let line = sc.line in
    let bar = index_byte b lo hi '|' in
    if bar = hi then fail line "expected thread|operation, got %S" (sub b lo hi);
    let thi = skip_space_back b lo bar in
    let bad = bad_name b lo thi in
    if bad >= 0 then name_error line "thread" b lo thi bad;
    let tid = intern_thread sc b lo thi in
    let olo = skip_space b (bar + 1) hi in
    let ohi = skip_space_back b olo (index_byte b olo hi '|') in
    let paren = index_byte b olo ohi '(' in
    let op = keyword b olo paren in
    if op < 0 then
      fail line "unknown operation %S" (String.lowercase_ascii (sub b olo paren));
    let target =
      if op >= Packed.op_begin then 0
      else begin
        if paren = ohi || Bytes.unsafe_get b (ohi - 1) <> ')' then
          fail line "malformed operation %S (expected %s(target))" (sub b olo ohi)
            (sub b olo paren);
        let nlo = skip_space b (paren + 1) (ohi - 1) in
        let nhi = skip_space_back b nlo (ohi - 1) in
        let bad = bad_name b nlo nhi in
        if bad >= 0 then name_error line (sub b olo paren) b nlo nhi bad;
        if op <= Packed.op_write then Interner.intern_slice sc.vars b nlo nhi
        else if op <= Packed.op_release then Interner.intern_slice sc.locks b nlo nhi
        else intern_thread sc b nlo nhi
      end
    in
    push sc (op lor (tid lsl 3) lor (target lsl Packed.target_shift))
  end

(* Scans every complete line of [b.[lo, hi)], looking for newlines from
   [from] on (the bytes before it hold none); returns where the trailing
   partial line starts ([hi] when the range ends with a newline). *)
let scan_lines sc b lo from hi =
  let start = ref lo in
  for i = from to hi - 1 do
    if Bytes.unsafe_get b i = '\n' then begin
      sc.line <- sc.line + 1;
      scan_line sc b !start i;
      start := i + 1
    end
  done;
  !start

let window = 65536

(* The file through one reused window; a line that outgrows the window
   doubles it.  Only the bytes of each read are searched for newlines,
   and the carried partial line moves only when a newline ends the one
   before it, so a long line costs time linear in its length.  Lines are
   counted as [input_line] counts them: a final newline does not start
   an empty line. *)
let scan_channel sc ic =
  let buf = ref (Bytes.create window) in
  let fill = ref 0 in
  let eof = ref false in
  while not !eof do
    let b = !buf in
    let n = input ic b !fill (Bytes.length b - !fill) in
    if n = 0 then eof := true
    else begin
      let hi = !fill + n in
      let start = scan_lines sc b 0 !fill hi in
      let rest = hi - start in
      if rest = Bytes.length b then begin
        let wider = Bytes.create (2 * rest) in
        Bytes.blit b 0 wider 0 rest;
        buf := wider
      end
      else if start > 0 then Bytes.blit b start b 0 rest;
      fill := rest
    end
  done;
  if !fill > 0 then begin
    sc.line <- sc.line + 1;
    scan_line sc !buf 0 !fill
  end

(* Every event line is at least 4 bytes ("t|b" and a newline), so this
   bounds the event count; one chunk holds a small file whole. *)
let chunk_words_for bytes = max 64 (min 65536 ((bytes / 4) + 1))

type decoded = {
  arena : Packed.Arena.t;
  threads : int;
  locks : int;
  vars : int;
  symbols : Trace.Symbols.t;
  last_use : Lifetime.t option;
  stats : Varstats.t option;
}

let shrink a count =
  Array.init count (fun i -> if i < Array.length a then a.(i) else Lifetime.never)

let finish (sc : scan) =
  let threads = Interner.count sc.threads
  and locks = Interner.count sc.locks
  and vars = Interner.count sc.vars in
  {
    arena = sc.arena;
    threads;
    locks;
    vars;
    symbols =
      {
        Trace.Symbols.threads = Interner.names sc.threads;
        locks = Interner.names sc.locks;
        vars = Interner.names sc.vars;
      };
    last_use =
      (if sc.track then
         Some { Lifetime.vars = shrink sc.last_v vars; locks = shrink sc.last_l locks }
       else None);
    stats = sc.stats;
  }

let scan_file ~track ~stats path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let sc =
        new_scan ~chunk_words:(chunk_words_for (in_channel_length ic)) ~track ~stats ()
      in
      scan_channel sc ic;
      sc)

(* Process-wide ingestion counters, bumped once per decoded file. *)
let events_parsed =
  Obs.Registry.shared_counter Obs.Registry.global "ingest.text.events_parsed"

let lines_read =
  Obs.Registry.shared_counter Obs.Registry.global "ingest.text.lines_read"

let decode_file ?(last_use = false) ?(stats = false) path =
  let sc = scan_file ~track:last_use ~stats path in
  if Obs.on () then begin
    Obs.Shared_counter.add lines_read sc.line;
    Obs.Shared_counter.add events_parsed sc.events
  end;
  finish sc

(* --- materializing and folding adapters over the scanner --- *)

let to_trace (d : decoded) =
  let events = Array.make (Packed.Arena.length d.arena) (Event.begin_ 0) in
  let i = ref 0 in
  Packed.Arena.iter d.arena (fun w ->
      events.(!i) <- Packed.to_event w;
      incr i);
  Trace.of_array ~symbols:d.symbols events

let scan_string s =
  let b = Bytes.unsafe_of_string s in
  let sc =
    new_scan ~chunk_words:(chunk_words_for (String.length s)) ~track:false ~stats:false ()
  in
  let start = scan_lines sc b 0 0 (Bytes.length b) in
  sc.line <- sc.line + 1;
  scan_line sc b start (Bytes.length b);
  sc

let parse_lines_exn lines =
  let sc = new_scan ~track:false ~stats:false () in
  Seq.iter
    (fun raw ->
      sc.line <- sc.line + 1;
      scan_line sc (Bytes.unsafe_of_string raw) 0 (String.length raw))
    lines;
  to_trace (finish sc)

let result f x = match f x with tr -> Ok tr | exception Parse_error e -> Error e

let parse_lines = result parse_lines_exn
let parse_string_exn s = to_trace (finish (scan_string s))
let parse_string = result parse_string_exn
let parse_file_exn path = to_trace (finish (scan_file ~track:false ~stats:false path))
let parse_file = result parse_file_exn

let fold_file_exn ?last_use ?stats path ~init ~f =
  let d = decode_file ~last_use:(last_use <> None) ~stats:(stats <> None) path in
  (match (last_use, d.last_use) with Some k, Some lt -> k lt | _ -> ());
  (match (stats, d.stats) with Some k, Some vs -> k vs | _ -> ());
  let acc = ref (init ~threads:d.threads ~locks:d.locks ~vars:d.vars) in
  Packed.Arena.iter d.arena (fun w -> acc := f !acc (Packed.to_event w));
  !acc

let fold_file ?last_use ?stats path ~init ~f =
  match fold_file_exn ?last_use ?stats path ~init ~f with
  | acc -> Ok acc
  | exception Parse_error e -> Error e

(* --- printer --- *)

(* A name straight into the buffer: the symbol when the table has one,
   else the [Trace.Symbols] fallback [prefix ^ string_of_int i], written
   digit by digit. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_name buf names prefix i =
  if i < Array.length names then Buffer.add_string buf names.(i)
  else begin
    Buffer.add_char buf prefix;
    add_digits buf i
  end

let add_target buf kind names prefix i =
  Buffer.add_string buf kind;
  add_name buf names prefix i;
  Buffer.add_string buf ")\n"

let render_event (s : Trace.Symbols.t) buf (e : Event.t) =
  add_name buf s.threads 'T' (Tid.to_int e.thread);
  match e.op with
  | Event.Read x -> add_target buf "|r(" s.vars 'V' (Vid.to_int x)
  | Event.Write x -> add_target buf "|w(" s.vars 'V' (Vid.to_int x)
  | Event.Acquire l -> add_target buf "|acq(" s.locks 'L' (Lid.to_int l)
  | Event.Release l -> add_target buf "|rel(" s.locks 'L' (Lid.to_int l)
  | Event.Fork u -> add_target buf "|fork(" s.threads 'T' (Tid.to_int u)
  | Event.Join u -> add_target buf "|join(" s.threads 'T' (Tid.to_int u)
  | Event.Begin -> Buffer.add_string buf "|begin\n"
  | Event.End -> Buffer.add_string buf "|end\n"

let default_symbols : Trace.Symbols.t = { threads = [||]; locks = [||]; vars = [||] }
let symbols_of tr = Option.value ~default:default_symbols (Trace.symbols tr)

let to_string tr =
  let symbols = symbols_of tr in
  let buf = Buffer.create (16 * Trace.length tr) in
  Trace.iter (render_event symbols buf) tr;
  Buffer.contents buf

(* Rendered through one reused buffer, flushed a window at a time. *)
let to_channel oc tr =
  let symbols = symbols_of tr in
  let buf = Buffer.create (window + 256) in
  Trace.iter
    (fun e ->
      render_event symbols buf e;
      if Buffer.length buf >= window then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    tr;
  Buffer.output_buffer oc buf

let to_file path tr =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> to_channel oc tr)

let pp_error ppf (e : error) = Format.fprintf ppf "line %d: %s" e.line e.message
