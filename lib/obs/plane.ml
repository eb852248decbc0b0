let max_slots = 16

(* Free slots, guarded by [m].  Claimed in ascending order so the main
   domain gets slot 0 and single-domain runs touch exactly one row. *)
let free : int list ref = ref (List.init max_slots Fun.id)
let m = Mutex.create ()

let claim () =
  Mutex.lock m;
  let s =
    match !free with
    | [] -> -1
    | s :: rest ->
      free := rest;
      s
  in
  Mutex.unlock m;
  s

let release s =
  if s >= 0 then begin
    Mutex.lock m;
    free := s :: !free;
    Mutex.unlock m
  end

(* The DLS initialiser runs once per domain on its first [slot ()].  The
   release callback is registered here, i.e. before any at_exit callback
   the domain's task registers later — at_exit runs LIFO, so those later
   callbacks (which may still record metrics) fire before the slot is
   returned to the free list. *)
let slot_key =
  Domain.DLS.new_key (fun () ->
      let s = claim () in
      if s >= 0 then Domain.at_exit (fun () -> release s);
      s)

let slot () = Domain.DLS.get slot_key
