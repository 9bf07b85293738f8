module type ID = sig
  type t = private int

  val of_int : int -> t
  val to_int : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Make (P : sig
  val prefix : string
end) : ID = struct
  type t = int

  let of_int i =
    if i < 0 then invalid_arg (P.prefix ^ " id: negative");
    i

  let to_int i = i
  let equal = Int.equal
  let compare = Int.compare
  let hash i = i
  let pp ppf i = Format.fprintf ppf "%s%d" P.prefix i
  let to_string i = P.prefix ^ string_of_int i
end

module Tid = Make (struct
  let prefix = "T"
end)

module Lid = Make (struct
  let prefix = "L"
end)

module Vid = Make (struct
  let prefix = "V"
end)

(* Open addressing on a power-of-two slot table (id + 1, 0 = free),
   kept at most half full, keyed by byte slices so the parser can look a
   name up in its read window without copying it out. *)
module Interner = struct
  type t = {
    mutable names : string array;  (* by id *)
    mutable hashes : int array;  (* by id *)
    mutable count : int;
    mutable slots : int array;
  }

  let create () =
    { names = Array.make 16 ""; hashes = Array.make 16 0; count = 0; slots = Array.make 64 0 }

  (* FNV-1a, folded so the low bits the slot mask keeps see every byte *)
  let hash b lo hi =
    let h = ref 0x811c9dc5 in
    for i = lo to hi - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
    done;
    let h = !h in
    (h lxor (h lsr 29)) land max_int

  let rec equal_from name b lo i len =
    i = len
    || String.unsafe_get name i = Bytes.unsafe_get b (lo + i)
       && equal_from name b lo (i + 1) len

  let rehash t =
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let mask = Array.length slots - 1 in
    for id = 0 to t.count - 1 do
      let i = ref (t.hashes.(id) land mask) in
      while slots.(!i) <> 0 do
        i := (!i + 1) land mask
      done;
      slots.(!i) <- id + 1
    done;
    t.slots <- slots

  let grow a id fill =
    let a' = Array.make (2 * id) fill in
    Array.blit a 0 a' 0 id;
    a'

  let add t slot h b lo hi =
    let id = t.count in
    if id = Array.length t.names then begin
      t.names <- grow t.names id "";
      t.hashes <- grow t.hashes id 0
    end;
    t.names.(id) <- Bytes.sub_string b lo (hi - lo);
    t.hashes.(id) <- h;
    t.count <- id + 1;
    t.slots.(slot) <- id + 1;
    if 2 * t.count > Array.length t.slots then rehash t;
    id

  (* The id of the slice, or [-2 - slot] with the free slot it would
     take when it is not interned. *)
  let lookup t b lo hi h =
    let len = hi - lo in
    let mask = Array.length t.slots - 1 in
    let i = ref (h land mask) in
    let id = ref (-1) in
    while !id = -1 do
      let s = Array.unsafe_get t.slots !i in
      if s = 0 then id := -2 - !i
      else
        let cand = s - 1 in
        let name = Array.unsafe_get t.names cand in
        if
          Array.unsafe_get t.hashes cand = h
          && String.length name = len
          && equal_from name b lo 0 len
        then id := cand
        else i := (!i + 1) land mask
    done;
    !id

  let intern_slice t b lo hi =
    let h = hash b lo hi in
    let id = lookup t b lo hi h in
    if id >= 0 then id else add t (-2 - id) h b lo hi

  let intern t name =
    intern_slice t (Bytes.unsafe_of_string name) 0 (String.length name)

  let find t name =
    let b = Bytes.unsafe_of_string name in
    let id = lookup t b 0 (Bytes.length b) (hash b 0 (Bytes.length b)) in
    if id >= 0 then Some id else None

  let name t id =
    if id < 0 || id >= t.count then invalid_arg "Interner.name: out of range";
    t.names.(id)

  let count t = t.count
  let names t = Array.sub t.names 0 t.count
end
