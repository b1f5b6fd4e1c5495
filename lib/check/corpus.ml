module Mig = Plim_mig.Mig
module Mig_io = Plim_mig.Mig_io

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())
  end

let save ~dir ?(meta = []) mig =
  mkdir_p dir;
  let body = Mig_io.to_string mig in
  let name = Printf.sprintf "cex-%s.mig" (Plim_util.Fnv.digest_string body) in
  let path = Filename.concat dir name in
  if not (Sys.file_exists path) then begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "# plim-corpus v1\n";
        List.iter
          (fun line ->
            (* keep metadata one-line so the parser's comment filter holds *)
            let line = String.map (fun c -> if c = '\n' then ' ' else c) line in
            output_string oc ("# " ^ line ^ "\n"))
          meta;
        output_string oc body)
  end;
  path

let load_file path = Mig_io.read_file path

let entries dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    let files = Array.to_list files in
    List.filter (fun f -> Filename.check_suffix f ".mig") files
    |> List.sort compare
    |> List.map (fun f -> (f, load_file (Filename.concat dir f)))
