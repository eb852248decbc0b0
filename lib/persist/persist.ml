module Obs = Sh_obs.Obs
module M = Sh_obs.Metric

exception Corrupt = Codec.Corrupt
exception Version_mismatch = Codec.Version_mismatch

let format_version = Frame.format_version
let c_restores = M.counter "persist.restores"
let c_corrupt_rejections = M.counter "persist.corrupt_rejections"
let c_bytes_written = M.counter "persist.bytes_written"
let c_bytes_read = M.counter "persist.bytes_read"
let c_files_written = M.counter "persist.files_written"

(* Each entry point exposes all five, so a process that has written,
   read or restored a snapshot shows the whole persist.* set. *)
let expose () =
  Obs.(
    expose
      [ Counter c_restores; Counter c_corrupt_rejections; Counter c_bytes_written;
        Counter c_bytes_read; Counter c_files_written ])

let write_whole path s =
  let oc = open_out_bin path in
  (try output_string oc s with e -> close_out_noerr oc; raise e);
  close_out oc

let write_file_atomic ~path ~header ~frames:frame_list =
  expose ();
  let tmp = path ^ ".tmp" in
  let image () = String.concat "" (header :: frame_list) in
  let publish img =
    write_whole tmp img;
    Sys.rename tmp path;
    M.add c_bytes_written (String.length img);
    M.incr c_files_written
  in
  match Fault.take () with
  | None -> publish (image ())
  | Some inj ->
    (match inj with
     | Fault.Truncate_at k ->
       let img = image () in
       publish (String.sub img 0 (max 0 (min k (String.length img))))
     | Fault.Flip_bit bit ->
       let img = Bytes.of_string (image ()) in
       let byte = bit / 8 in
       if byte >= 0 && byte < Bytes.length img then
         Bytes.set img byte
           (Char.chr (Char.code (Bytes.get img byte) lxor (1 lsl (bit land 7))));
       publish (Bytes.to_string img)
     | Fault.Crash_before_rename ->
       write_whole tmp (image ());
       raise (Fault.Injected "crash before rename")
     | Fault.Crash_after_frames n ->
       let oc = open_out_bin tmp in
       let crash written =
         close_out_noerr oc;
         raise
           (Fault.Injected
              (Printf.sprintf "crash after %d frame(s), before rename" written))
       in
       (try
          output_string oc header;
          List.iteri
            (fun i frame ->
               if i >= n then crash i;
               output_string oc frame)
            frame_list;
          close_out oc
        with
        | Fault.Injected _ as e -> raise e
        | e -> close_out_noerr oc; raise e);
       (* n >= frame count: every frame made it, crash before the rename. *)
       raise
         (Fault.Injected
            (Printf.sprintf "crash after %d frame(s), before rename"
               (List.length frame_list))))

let read_file path =
  expose ();
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let n = in_channel_length ic in
       let s = really_input_string ic n in
       M.add c_bytes_read n;
       s)

let rejecting f =
  expose ();
  match f () with
  | v ->
    M.incr c_restores;
    v
  | exception ((Corrupt _ | Version_mismatch _) as e) ->
    M.incr c_corrupt_rejections;
    raise e
