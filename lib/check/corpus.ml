module Mig = Plim_mig.Mig
module Mig_io = Plim_mig.Mig_io

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())
  end

let save ~dir ?(meta = []) mig =
  let body = Mig_io.to_string mig in
  let name = Printf.sprintf "cex-%s.mig" (Plim_util.Fnv.digest_string body) in
  let path = Filename.concat dir name in
  match mkdir_p dir with
  | exception Sys_error msg -> Error msg
  | () when Sys.file_exists path -> Ok path
  | () ->
    let header =
      List.map
        (fun line ->
          (* keep metadata one-line so the parser's comment filter holds *)
          "# " ^ String.map (fun c -> if c = '\n' then ' ' else c) line ^ "\n")
        meta
    in
    Plim_util.File.write path
      (String.concat "" (("# plim-corpus v1\n" :: header) @ [ body ]))
    |> Result.map (fun () -> path)

let load_file path = Mig_io.read_file path

let entries dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    let files = Array.to_list files in
    List.filter (fun f -> Filename.check_suffix f ".mig") files
    |> List.sort compare
    |> List.map (fun f -> (f, load_file (Filename.concat dir f)))
