(* [open_in] opens a directory on Linux, and sizing it then fails with
   EOVERFLOW, so a directory is refused before the open.  An open error's
   message already names the path; a read error's does not. *)
let read path =
  if Sys.file_exists path && Sys.is_directory path then Error (path ^ ": is a directory")
  else
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | text -> Ok text
          | exception Sys_error msg -> Error (path ^ ": " ^ msg))

(* [close_out] runs in the body, so a failed flush is an [Error] rather
   than an exception out of a [finally]. *)
let write path contents =
  match open_out_bin path with
  | exception Sys_error msg -> Error msg
  | oc -> (
    match
      output_string oc contents;
      close_out oc
    with
    | () -> Ok ()
    | exception Sys_error msg ->
      close_out_noerr oc;
      Error (path ^ ": " ^ msg))
