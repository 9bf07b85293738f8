(** Parser and printer for the textual trace format.

    The format follows RAPID's [.std] logs: one event per line,
    [thread|operation] with an optional third [|location] field that is
    ignored.  Operations are [r(x)], [w(x)], [acq(l)], [rel(l)], [fork(t)],
    [join(t)], [begin] ([⊲]) and [end] ([⊳]).  Thread, lock and variable
    names are arbitrary tokens (no [|], [(], [)] or whitespace) and are
    interned to dense ids in order of first appearance; the resulting
    {!Trace.Symbols.t} is attached to the trace.  Blank lines and lines
    starting with [#] are skipped.

    Example:
    {v
    # trace rho2 from the paper
    t1|begin
    t2|begin
    t1|w(x)
    t2|r(x)|42
    t2|w(y)
    t1|r(y)
    t1|end
    t2|end
    v} *)

type error = { line : int; message : string }

exception Parse_error of error

(** {1 Decoding}

    Every entry point runs the same one-pass byte scanner: lines are
    trimmed, split and classified in place, names are interned by slice
    (a name's string is allocated the first time it appears), and each
    event becomes one {!Packed} word.  A trace may name at most
    [Packed.max_tid + 1] distinct threads; the line that introduces one
    more is refused with a {!Parse_error}. *)

type decoded = {
  arena : Packed.Arena.t;  (** the events, one packed word each *)
  threads : int;
  locks : int;
  vars : int;
  symbols : Trace.Symbols.t;
  last_use : Lifetime.t option;  (** when requested *)
  stats : Varstats.t option;  (** when requested *)
}

val decode_file : ?last_use:bool -> ?stats:bool -> string -> decoded
(** [decode_file path] reads the file once, through one reused 64 KiB
    window, into a packed arena sized from the file length.  Memory is
    the symbol tables plus 8 bytes per event off the OCaml heap.  With
    [~last_use:true] the same pass builds the {!Lifetime} index, and with
    [~stats:true] the {!Varstats} accessor statistics (the exact-mode
    prefilter oracle).  Bumps the process-wide [ingest.text.*] counters
    when telemetry is on.  I/O exceptions propagate.
    @raise Parse_error *)

val parse_string : string -> (Trace.t, error) result
val parse_lines : string Seq.t -> (Trace.t, error) result
(** Each element is one line (without its newline). *)

val parse_file : string -> (Trace.t, error) result
(** I/O exceptions propagate. *)

val parse_string_exn : string -> Trace.t
(** @raise Parse_error *)

val parse_file_exn : string -> Trace.t

val fold_file :
  ?last_use:(Lifetime.t -> unit) ->
  ?stats:(Varstats.t -> unit) ->
  string ->
  init:(threads:int -> locks:int -> vars:int -> 'a) ->
  f:('a -> Event.t -> 'a) ->
  ('a, error) result
(** [fold_file path ~init ~f] is {!decode_file} followed by a fold over
    the arena, never materializing a {!Trace.t}: the file is read once,
    then [last_use] and [stats] (when given) receive the index and the
    statistics built during that pass, then [init] is called with the
    domain sizes (e.g. to create a checker), then [f] folds over the
    events, each unpacked to an {!Event.t}.  Memory is the symbol tables
    plus 8 bytes per event off-heap.  I/O exceptions propagate. *)

val fold_file_exn :
  ?last_use:(Lifetime.t -> unit) ->
  ?stats:(Varstats.t -> unit) ->
  string ->
  init:(threads:int -> locks:int -> vars:int -> 'a) ->
  f:('a -> Event.t -> 'a) ->
  'a
(** @raise Parse_error *)

(** {1 Printing} *)

val to_string : Trace.t -> string
(** Renders a trace in the format above, using its symbol table when
    present and [T0]/[L0]/[V0]-style names otherwise.  [parse_string_exn]
    of the result is the identity on events. *)

val to_channel : out_channel -> Trace.t -> unit
(** {!to_string}'s bytes, rendered through one reused 64 KiB buffer:
    no per-event allocation. *)

val to_file : string -> Trace.t -> unit
val pp_error : Format.formatter -> error -> unit
