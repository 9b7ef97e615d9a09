(* Files a run writes: program sources the serve session reads, and the
   trace of a traced run.  Everything lives under [_perfbench/] at the
   root of the checkout (dune skips [_]-prefixed directories); the
   per-process source directory is removed when the run ends. *)

let root = "_perfbench"

let dir = Filename.concat root (Printf.sprintf "work-%d" (Unix.getpid ()))
let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* Writes [contents] to [name] in the per-process directory and returns
   its path relative to the checkout root. *)
let write name contents =
  mkdir root;
  mkdir dir;
  let path = Filename.concat dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

let cleanup () =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end
