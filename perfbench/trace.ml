(* In-memory spans around calls into the library's layers, written out
   as Chrome trace-event JSON (viewable in Perfetto) when the run ends.
   Disabled, a span is one branch and a direct call. *)

type span = {
  id : int;
  parent : int;  (** enclosing span, -1 at top level *)
  layer : string;
  name : string;
  t0 : float;
  dur : float;
  alloc_words : float;  (** words allocated by the calling domain *)
}

let enabled = ref false
let spans : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let epoch = Unix.gettimeofday ()

let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let span ?(name = "") layer f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let a0 = allocated () in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Unix.gettimeofday () -. t0 in
        let alloc_words = allocated () -. a0 in
        open_ids := List.tl !open_ids;
        let name = if name = "" then layer else name in
        spans := { id; parent; layer; name; t0; dur; alloc_words } :: !spans)
      f
  end

let fold layer f init =
  List.fold_left (fun acc s -> if s.layer = layer then f acc s else acc) init !spans

let busy_s layer = fold layer (fun acc s -> acc +. s.dur) 0.
let alloc_mwords layer = fold layer (fun acc s -> acc +. s.alloc_words) 0. /. 1e6

let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
         %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"id\": %d, \"parent\": %d, \
         \"alloc_words\": %.0f}}\n"
        (if i = 0 then "" else ",")
        s.name s.layer
        (1e6 *. (s.t0 -. epoch))
        (1e6 *. s.dur) s.id s.parent s.alloc_words)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc
