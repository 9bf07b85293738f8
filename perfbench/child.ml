(* One [rapid check] child, timed from outside: wall from spawn to exit,
   the child's own user+sys CPU and peak RSS (wait4 rusage), and every
   reported verdict compared with the expected answer.

   Linux folds the peak RSS of the process that spawns a child into the
   child's ru_maxrss (exec records the old address space's high-water
   mark).  Spawned from the benchmark process, whose heap held the
   generated traces, every child would report that process's peak.  So
   children are spawned by a launcher: a second copy of this
   executable, started before any set-up, that stays a few megabytes
   in size. *)

external wait : int -> float -> int * float * float * int = "perfbench_wait"
external nproc : unit -> int = "perfbench_nproc"

type t = {
  wall_s : float;
  cpu_s : float;
  rss_mb : float;
  steal : float;  (** share of host CPU time stolen while the child ran *)
  wrong : int;  (** inputs whose reported answer differs from the expected one *)
}

(* A child gets this long before it is killed and counted wrong. *)
let deadline_s = 120.

(* Host-wide (total, steal) jiffies from /proc/stat: on a virtual
   machine, steal is time the hypervisor gave our cores to another
   guest. *)
let cpu_ticks () =
  try
    let line = In_channel.with_open_bin "/proc/stat" In_channel.input_line in
    match Option.map (String.split_on_char ' ') line with
    | Some ("cpu" :: "" :: fields) ->
      let v = List.map int_of_string (List.filter (( <> ) "") fields) in
      (List.fold_left ( + ) 0 v, List.nth v 7)
    | _ -> (0, 0)
  with Sys_error _ | Failure _ | Invalid_argument _ -> (0, 0)

let steal_share (total0, steal0) (total1, steal1) =
  float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0))

(* ---- the launcher ---- *)

type request = { argv : string array; out : string; err : string }
type reply = {
  r_wall : float;
  r_cpu : float;
  r_rss_kb : int;
  r_code : int;  (** exit code; -1 when killed at the deadline *)
  r_steal : float;
}

let spawn_wait { argv; out; err } =
  let open_out p =
    Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let fd_out = open_out out and fd_err = open_out err in
  let ticks0 = cpu_ticks () in
  let t0 = Spans.now () in
  let pid = Unix.create_process argv.(0) argv fd_in fd_out fd_err in
  let code, user, sys, rss_kb = wait pid deadline_s in
  let r_wall = Spans.now () -. t0 in
  let r_steal = steal_share ticks0 (cpu_ticks ()) in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  { r_wall; r_cpu = user +. sys; r_rss_kb = rss_kb; r_code = code; r_steal }

(* The launcher's main loop: one request in, one reply out, until the
   benchmark process closes the pipe. *)
let serve () =
  let rec loop () =
    match (Marshal.from_channel stdin : request) with
    | req ->
      Marshal.to_channel stdout (spawn_wait req : reply) [];
      flush stdout;
      loop ()
    | exception End_of_file -> exit 0
  in
  loop ()

let launcher : (int * out_channel * in_channel) option ref = ref None

let start_launcher () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--launcher" |] req_r rep_w Unix.stderr in
  Unix.close req_r;
  Unix.close rep_w;
  launcher := Some (pid, Unix.out_channel_of_descr req_w, Unix.in_channel_of_descr rep_r)

let stop_launcher () =
  match !launcher with
  | None -> ()
  | Some (pid, req, rep) ->
    launcher := None;
    close_out req;
    ignore (Unix.waitpid [] pid);
    close_in rep

let launch req =
  match !launcher with
  | None -> failwith "Child.launch: launcher not started"
  | Some (_, oc, ic) ->
    Marshal.to_channel oc (req : request) [];
    flush oc;
    (Marshal.from_channel ic : reply)

(* ---- checking a batch ---- *)

let argv ~rapid ~jobs (w : Suite.t) inputs =
  (rapid :: "check" :: "--jobs" :: string_of_int jobs :: w.flags)
  @ List.map (fun (i : Suite.input) -> i.path) inputs

(* The answer [rapid check] printed for [path]: its line is
   "aerodrome: <verdict> in ..." for a lone input and
   "<path>: aerodrome: <verdict> in ..." in a batch. *)
let answer lines ~single path =
  let prefix = if single then "aerodrome: " else path ^ ": aerodrome: " in
  let plen = String.length prefix in
  List.find_map
    (fun l ->
      if not (String.starts_with ~prefix l) then None
      else
        let rest = String.sub l plen (String.length l - plen) in
        if String.starts_with ~prefix:"serializable " rest then
          Some Suite.Serializable
        else
          try Scanf.sscanf rest "violation @%d " (fun k -> Some (Suite.Violation (k - 1)))
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    lines

let expected_code inputs =
  if List.exists (fun (i : Suite.input) -> i.expect <> Suite.Serializable) inputs
  then 1
  else 0

let run ~rapid ~jobs ~dir w inputs =
  let out = Filename.concat dir "child.out" in
  let r =
    launch
      {
        argv = Array.of_list (argv ~rapid ~jobs w inputs);
        out;
        err = Filename.concat dir "child.err";
      }
  in
  let lines = In_channel.with_open_bin out In_channel.input_lines in
  let single = match inputs with [ _ ] -> true | _ -> false in
  let wrong =
    if r.r_code <> expected_code inputs then List.length inputs
    else
      List.length
        (List.filter
           (fun (i : Suite.input) -> answer lines ~single i.path <> Some i.expect)
           inputs)
  in
  {
    wall_s = r.r_wall;
    cpu_s = r.r_cpu;
    rss_mb = float_of_int r.r_rss_kb /. 1024.;
    steal = r.r_steal;
    wrong;
  }
