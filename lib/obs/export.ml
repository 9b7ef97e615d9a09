(* --- JSON emission helpers -------------------------------------------- *)

let json_args args =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":%s" (Jsonv.escape k)
             (match v with
             | Event.Int n -> string_of_int n
             | Event.Str s -> Printf.sprintf "\"%s\"" (Jsonv.escape s)))
         args)
  ^ "}"

(* --- Chrome trace_event format ----------------------------------------- *)

(* One event per line; counters/gauges both map to "C" phase with their
   running total / absolute value under args.value.  pid is a constant 0
   so two runs of the same pipeline produce comparable files. *)
let chrome events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let totals : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let n = List.length events in
  List.iteri
    (fun i (e : Event.t) ->
      let common =
        Printf.sprintf "\"pid\":0,\"tid\":%d,\"ts\":%.3f" e.Event.tid e.Event.ts
      in
      let line =
        match e.Event.kind with
        | Event.Begin { cat; args } ->
          Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"B\",%s%s}"
            (Jsonv.escape e.Event.name) (Jsonv.escape cat) common
            (if args = [] then "" else ",\"args\":" ^ json_args args)
        | Event.End ->
          Printf.sprintf "{\"name\":\"%s\",\"ph\":\"E\",%s}"
            (Jsonv.escape e.Event.name) common
        | Event.Counter { delta } ->
          let total =
            delta + Option.value (Hashtbl.find_opt totals e.Event.name) ~default:0
          in
          Hashtbl.replace totals e.Event.name total;
          Printf.sprintf
            "{\"name\":\"%s\",\"ph\":\"C\",%s,\"args\":{\"value\":%d}}"
            (Jsonv.escape e.Event.name) common total
        | Event.Gauge { value } ->
          Printf.sprintf
            "{\"name\":\"%s\",\"ph\":\"C\",%s,\"args\":{\"value\":%d}}"
            (Jsonv.escape e.Event.name) common value
        | Event.Instant { cat } ->
          Printf.sprintf
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",%s}"
            (Jsonv.escape e.Event.name) (Jsonv.escape cat) common
      in
      Buffer.add_string buf line;
      if i < n - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    events;
  Buffer.add_string buf "],\n\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

(* --- parsing exported chrome traces back (see Jsonv) -------------------- *)

exception Bad_event of string

let parse_chrome data =
  match Jsonv.parse data with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok (Jsonv.Obj fields) -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Jsonv.Arr raw_events) -> (
      let to_event i ev =
        let str name =
          match Jsonv.member name ev with Some (Jsonv.Str s) -> Some s | _ -> None
        in
        let num name =
          match Jsonv.member name ev with Some (Jsonv.Num f) -> Some f | _ -> None
        in
        let require what = function
          | Some v -> v
          | None ->
            raise
              (Bad_event (Printf.sprintf "event %d: missing or bad %S" i what))
        in
        let name = require "name" (str "name") in
        let ts = require "ts" (num "ts") in
        let tid = int_of_float (require "tid" (num "tid")) in
        let cat = Option.value (str "cat") ~default:"" in
        let args () =
          match Jsonv.member "args" ev with
          | Some (Jsonv.Obj fs) ->
            List.map
              (fun (k, v) ->
                match v with
                | Jsonv.Num f -> (k, Event.Int (int_of_float f))
                | Jsonv.Str s -> (k, Event.Str s)
                | _ ->
                  raise
                    (Bad_event
                       (Printf.sprintf "event %d: unsupported arg %S" i k)))
              fs
          | Some _ ->
            raise (Bad_event (Printf.sprintf "event %d: args is not an object" i))
          | None -> []
        in
        match require "ph" (str "ph") with
        | "B" ->
          { Event.name; ts; tid; kind = Event.Begin { cat; args = args () } }
        | "E" -> { Event.name; ts; tid; kind = Event.End }
        | "C" -> (
          match List.assoc_opt "value" (args ()) with
          | Some (Event.Int v) ->
            { Event.name; ts; tid; kind = Event.Gauge { value = v } }
          | _ ->
            raise
              (Bad_event (Printf.sprintf "event %d: counter without args.value" i)))
        | "i" | "I" -> { Event.name; ts; tid; kind = Event.Instant { cat } }
        | ph ->
          raise (Bad_event (Printf.sprintf "event %d: unknown phase %S" i ph))
      in
      match List.mapi to_event raw_events with
      | events -> Ok events
      | exception Bad_event msg -> Error msg)
    | Some _ -> Error "traceEvents is not an array"
    | None -> Error "no traceEvents field")
  | Ok _ -> Error "top level is not an object"

(* --- atomic file output -------------------------------------------------- *)

(* Write-to-temp + rename(2): a crash (or signal) mid-export leaves either
   the previous file or a stray .tmp sibling, never a torn target. *)
let write_file path data =
  let dir = Filename.dirname path in
  let tmp =
    Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path ^ ".") ".tmp"
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc data);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
