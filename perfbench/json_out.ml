(* JSON printing with full-precision numbers.  [Obs.Json.to_string]
   rounds to six significant digits, which would flatten timings and
   the microsecond timestamps of a long trace. *)

let rec to_buffer buf (j : Obs.Json.t) =
  match j with
  | Num f when Float.is_nan f || Float.abs f = infinity ->
    Buffer.add_string buf "null"
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  | Num f -> Buffer.add_string buf (Printf.sprintf "%.15g" f)
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      l;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf (Str k);
        Buffer.add_char buf ':';
        to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'
  | Null | Bool _ | Str _ -> Buffer.add_string buf (Obs.Json.to_string j)

let to_string j =
  let buf = Buffer.create 4096 in
  to_buffer buf j;
  Buffer.contents buf
