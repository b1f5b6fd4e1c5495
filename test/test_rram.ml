module Crossbar = Plim_rram.Crossbar
module Start_gap = Plim_rram.Start_gap
module Wolfram = Plim_rram.Wolfram
module Leveling = Plim_rram.Leveling
module Remap = Plim_fault.Remap
module Stats = Plim_stats.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_create_read () =
  let x = Crossbar.create 8 in
  check_int "size" 8 (Crossbar.size x);
  for i = 0 to 7 do
    check_bool "fresh HRS" false (Crossbar.read x i)
  done

let test_write_counts () =
  let x = Crossbar.create 4 in
  Crossbar.write x 0 true;
  Crossbar.write x 0 true;
  Crossbar.write x 0 false;
  check_int "three write ops" 3 (Crossbar.writes x 0);
  check_int "two actual transitions" 2 (Crossbar.transition_counts x).(0);
  check_int "untouched" 0 (Crossbar.writes x 1);
  Alcotest.(check (array int)) "snapshot" [| 3; 0; 0; 0 |] (Crossbar.write_counts x)

(* exhaustive check of the intrinsic RM3 against the ISA semantics *)
let test_rm3_semantics () =
  for m = 0 to 7 do
    let p = m land 1 = 1 and q = m land 2 = 2 and z = m land 4 = 4 in
    let x = Crossbar.create 1 in
    Crossbar.load x 0 z;
    Crossbar.rm3 x ~p ~q 0;
    let expected = Plim_isa.Instruction.semantics ~a:p ~b:q ~z in
    check_bool (Printf.sprintf "rm3 p=%b q=%b z=%b" p q z) expected (Crossbar.read x 0)
  done

let test_load_uncounted () =
  let x = Crossbar.create 2 in
  Crossbar.load x 0 true;
  check_int "load does not count" 0 (Crossbar.writes x 0);
  check_bool "but changes state" true (Crossbar.read x 0)

let test_endurance_failure () =
  let x = Crossbar.create ~endurance:3 2 in
  Crossbar.write x 0 true;
  Crossbar.write x 0 false;
  check_bool "not yet failed" false (Crossbar.failed x 0);
  Crossbar.write x 0 true;
  check_bool "failed at budget" true (Crossbar.failed x 0);
  Alcotest.check_raises "write to failed cell" (Crossbar.Cell_failed 0) (fun () ->
      Crossbar.write x 0 true)

let test_bounds () =
  let x = Crossbar.create 2 in
  Alcotest.check_raises "oob" (Invalid_argument "Crossbar: cell 2 out of range (size 2)")
    (fun () -> ignore (Crossbar.read x 2))

(* property: a random op sequence keeps writes = loads-excluded op count *)
let write_accounting =
  QCheck.Test.make ~count:100 ~name:"write counter equals write-op count"
    QCheck.(list (pair (int_range 0 3) bool))
    (fun ops ->
      let x = Crossbar.create 4 in
      let expected = Array.make 4 0 in
      List.iter
        (fun (cell, v) ->
          if v then begin
            Crossbar.write x cell v;
            expected.(cell) <- expected.(cell) + 1
          end
          else Crossbar.load x cell v)
        ops;
      Crossbar.write_counts x = expected)

(* --- start-gap wear levelling ------------------------------------------ *)

(* the one line of [0, n] outside the image of logical lines [0, n), or
   [None] unless [physical] maps them injectively into those n + 1 lines *)
let free_line ~physical n =
  let seen = Array.make (n + 1) false in
  let ok = ref true in
  for la = 0 to n - 1 do
    let pa = physical la in
    if pa < 0 || pa > n || seen.(pa) then ok := false else seen.(pa) <- true
  done;
  if !ok then List.find_opt (fun p -> not seen.(p)) (List.init (n + 1) Fun.id) else None

let test_start_gap_mapping () =
  let t = Start_gap.create ~psi:10 4 in
  (* initially the identity (gap at the end) *)
  for la = 0 to 3 do
    check_int "identity map" la (Start_gap.physical t la)
  done;
  (* the mapping is always a bijection *)
  for _ = 1 to 97 do
    Start_gap.write t 1
  done;
  check_bool "injective, one line free" true
    (free_line ~physical:(Start_gap.physical t) 4 <> None)

(* the physical lines receiving gap-move copies, in order *)
let gap_copies t writes =
  let copies = ref [] in
  List.iter (fun la -> Start_gap.write ~on_copy:(fun p -> copies := p :: !copies) t la)
    writes;
  List.rev !copies

let test_start_gap_moves () =
  let t = Start_gap.create ~psi:5 4 in
  let writes k = List.init k (fun _ -> 0) in
  check_bool "no move before psi writes" true (gap_copies t (writes 4) = []);
  check_bool "a move at the psi-th write" true (gap_copies t (writes 1) = [ 4 ]);
  (* one move per psi writes walks the gap down; the fifth move is the
     wrap, which copies nothing *)
  check_bool "one move per psi writes" true (gap_copies t (writes 20) = [ 3; 2; 1 ])

let test_start_gap_wraparound () =
  (* psi = 1: every write moves the gap; after n + 1 moves the gap has
     walked the whole array, wrapped back to the top, and advanced the
     start register — the address space is rotated by one line *)
  let t = Start_gap.create ~psi:1 4 in
  check_bool "gap reached the bottom" true (gap_copies t [ 0; 0; 0; 0 ] = [ 4; 3; 2; 1 ]);
  check_bool "the wrap copies nothing" true (gap_copies t [ 0 ] = []);
  check_int "logical 0 rotated down" 1 (Start_gap.physical t 0);
  check_int "logical 3 wrapped around" 0 (Start_gap.physical t 3);
  check_bool "next copy lands at the top again" true (gap_copies t [ 0 ] = [ 4 ]);
  check_bool "still a bijection, the gap free" true
    (free_line ~physical:(Start_gap.physical t) 4 = Some 3)

let test_start_gap_rotation_levels_hot_line () =
  (* one scorching logical line; rotation spreads it over all physical
     lines given enough executions *)
  let per_exec = [| 100; 1; 1; 1 |] in
  let counts = Leveling.replay ~psi:10 Leveling.Start_gap ~executions:50 per_exec in
  let s = Stats.summarize counts in
  let unlevelled = Stats.summarize (Array.map (( * ) 50) per_exec) in
  check_bool
    (Printf.sprintf "rotated stdev %.1f < static stdev %.1f" s.Stats.stdev
       unlevelled.Stats.stdev)
    true
    (s.Stats.stdev < unlevelled.Stats.stdev)

let test_start_gap_write_conservation () =
  let per_exec = [| 3; 0; 7; 2 |] in
  let executions = 9 in
  let counts = Leveling.replay ~psi:4 Leveling.Start_gap ~executions per_exec in
  let logical_total = executions * Array.fold_left ( + ) 0 per_exec in
  let physical_total = Array.fold_left ( + ) 0 counts in
  (* extra writes are exactly the gap-copy moves *)
  check_bool "rotation overhead bounded by 1/psi + wraps" true
    (physical_total >= logical_total
    && physical_total <= logical_total + (logical_total / 4) + 1)

let test_start_gap_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Start_gap.create: need at least one line")
    (fun () -> ignore (Start_gap.create 0));
  Alcotest.check_raises "bad psi" (Invalid_argument "Start_gap.create: psi must be positive")
    (fun () -> ignore (Start_gap.create ~psi:0 4));
  let t = Start_gap.create 4 in
  Alcotest.check_raises "address range"
    (Invalid_argument "Start_gap.physical: address out of range") (fun () ->
      ignore (Start_gap.physical t 4));
  Alcotest.check_raises "write address range"
    (Invalid_argument "Start_gap.physical: address out of range") (fun () ->
      Start_gap.write t (-1))

(* After every write of [writes], the map of logical lines [0, n) must
   stay injective into the n + 1 physical lines, and the one free line
   must move only by a gap move: down by one with the write's first copy
   landing on it (the gap receives the line above), or from 0 back to n
   on a wrap.  Without a gap move no copy may land on the free line.
   WoLFRaM only permutes [0, n), so the same holds under the composed
   stack, whose re-key migrations follow the gap copy. *)
let gap_copies_track_free_line ~physical ~write n writes =
  let free_line () = free_line ~physical n in
  let rec go u = function
    | [] -> true
    | w :: rest -> (
      let copies = ref [] in
      write ~on_copy:(fun p -> copies := p :: !copies) (w mod n);
      match free_line (), List.rev !copies with
      | None, _ -> false
      | Some u', copies ->
        (if u' = u then not (List.mem u copies)
         else if u = 0 then u' = n
         else u' = u - 1 && List.nth_opt copies 0 = Some u)
        && go u' rest)
  in
  free_line () = Some n && go n writes

(* property: whatever the write sequence, the logical->physical map stays
   injective into the n + 1 physical lines, and every gap-move copy lands
   on the one line it leaves free *)
let start_gap_bijective =
  QCheck.Test.make ~count:200
    ~name:"start-gap map is a bijection under arbitrary writes"
    QCheck.(triple (int_range 1 9) (int_range 1 8) (list (int_range 0 10_000)))
    (fun (n, psi, writes) ->
      let t = Start_gap.create ~psi n in
      gap_copies_track_free_line ~physical:(Start_gap.physical t)
        ~write:(fun ~on_copy la -> Start_gap.write ~on_copy t la)
        n writes)

(* --- WoLFRaM programmable remapping ------------------------------------- *)

let test_wolfram_permutation () =
  let wf = Wolfram.create ~seed:3 8 in
  let seen = Array.make 8 false in
  for la = 0 to 7 do
    let pa = Wolfram.physical wf la in
    check_bool "in range" true (pa >= 0 && pa < 8);
    check_bool "no collision" false seen.(pa);
    seen.(pa) <- true
  done;
  let wf' = Wolfram.create ~seed:3 8 in
  for la = 0 to 7 do
    check_int "same seed, same map" (Wolfram.physical wf la) (Wolfram.physical wf' la)
  done;
  Alcotest.check_raises "write address range"
    (Invalid_argument "Wolfram.physical: address out of range") (fun () ->
      Wolfram.write wf 8);
  let other = Wolfram.create ~seed:4 8 in
  check_bool "different seed, different map" true
    (List.exists (fun la -> Wolfram.physical other la <> Wolfram.physical wf la)
       [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_wolfram_rekey_cadence () =
  let wf = Wolfram.create ~period:10 ~seed:5 4 in
  let migrations = ref 0 in
  let write la = Wolfram.write ~on_migrate:(fun _ -> incr migrations) wf la in
  for _ = 1 to 9 do
    write 0
  done;
  check_int "no re-key before the period" 0 (Wolfram.rekeys wf);
  write 0;
  check_int "re-key at the period" 1 (Wolfram.rekeys wf);
  for _ = 1 to 20 do
    write 1
  done;
  check_int "one re-key per period" 3 (Wolfram.rekeys wf);
  check_bool "re-keys migrated lines" true (!migrations > 0)

let test_wolfram_write_accounting () =
  (* migrations depend only on the re-key generations, not on which
     lines were written, so the replay ledger must hold exactly the 40
     logical writes plus the copies a directly driven map reports; the
     map takes the stack's documented default seed, which replay uses *)
  let wf = Wolfram.create ~period:7 ~seed:0x901F 5 in
  let migrations = ref 0 in
  for i = 1 to 40 do
    Wolfram.write ~on_migrate:(fun _ -> incr migrations) wf (i mod 5)
  done;
  check_bool "re-keys migrated lines" true (!migrations > 0);
  let counts =
    Leveling.replay ~period:7 Leveling.Wolfram_remap ~executions:8 [| 1; 1; 1; 1; 1 |]
  in
  check_int "counts = logical writes + migration copies" (40 + !migrations)
    (Array.fold_left ( + ) 0 counts)

let test_wolfram_replay_levels_hot_line () =
  let per_exec = [| 100; 1; 1; 1 |] in
  let counts =
    Leveling.replay ~period:50 Leveling.Wolfram_remap ~executions:50 per_exec
  in
  let s = Stats.summarize counts in
  let unlevelled = Stats.summarize (Array.map (( * ) 50) per_exec) in
  check_bool
    (Printf.sprintf "re-keyed stdev %.1f < static stdev %.1f" s.Stats.stdev
       unlevelled.Stats.stdev)
    true
    (s.Stats.stdev < unlevelled.Stats.stdev)

(* property: the composed logical -> Wolfram -> Start-Gap address map is
   injective into the physical range whatever the interleaving of writes
   (and therefore of gap moves and re-keys), for any seed, and its gap
   copies land on the free line as under Start-Gap alone *)
let wolfram_start_gap_bijective =
  QCheck.Test.make ~count:200
    ~name:"wolfram-under-start-gap map stays a bijection"
    QCheck.(quad (int_range 1 9) (int_range 1 8) small_int
              (list (int_range 0 10_000)))
    (fun (n, psi, seed, writes) ->
      let s = Leveling.stack ~psi ~period:7 ~seed Leveling.Start_gap_wolfram n in
      gap_copies_track_free_line ~physical:(Leveling.physical s)
        ~write:(fun ~on_copy la -> Leveling.write s ~on_copy la)
        n writes)

(* property: adding the spare-line Remap on top keeps the full chain
   injective and never routes a logical line into a retired physical
   line — the composition the horizon model runs *)
let wolfram_start_gap_remap_injective =
  QCheck.Test.make ~count:100
    ~name:"wolfram∘start-gap∘remap avoids retired lines, stays injective"
    QCheck.(quad (int_range 2 9) small_int (list (int_range 0 10_000))
              (int_range 0 3))
    (fun (n, seed, writes, retire_k) ->
      let s = Leveling.stack ~psi:3 ~period:11 ~seed Leveling.Start_gap_wolfram n in
      List.iter (fun w -> Leveling.write s ~on_copy:ignore (w mod n)) writes;
      let rm = Remap.create ~spares:4 ~lines:(Leveling.num_physical s) () in
      let retired = List.init retire_k (fun i -> i) in
      List.iter (fun l -> ignore (Remap.retire rm l)) retired;
      let seen = Hashtbl.create 16 in
      let ok = ref true in
      for la = 0 to n - 1 do
        let pa = Remap.physical rm (Leveling.physical s la) in
        if Hashtbl.mem seen pa || List.mem pa retired then ok := false;
        Hashtbl.replace seen pa ()
      done;
      !ok)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "rram"
    [ ( "crossbar",
        [ Alcotest.test_case "create/read" `Quick test_create_read;
          Alcotest.test_case "write counts" `Quick test_write_counts;
          Alcotest.test_case "rm3 semantics (exhaustive)" `Quick test_rm3_semantics;
          Alcotest.test_case "load uncounted" `Quick test_load_uncounted;
          Alcotest.test_case "endurance failure" `Quick test_endurance_failure;
          Alcotest.test_case "bounds" `Quick test_bounds;
          qc write_accounting ] );
      ( "start-gap",
        [ Alcotest.test_case "mapping is a bijection" `Quick test_start_gap_mapping;
          Alcotest.test_case "gap movement cadence" `Quick test_start_gap_moves;
          Alcotest.test_case "gap wraparound rotates the space" `Quick
            test_start_gap_wraparound;
          Alcotest.test_case "rotation levels a hot line" `Quick
            test_start_gap_rotation_levels_hot_line;
          Alcotest.test_case "write conservation" `Quick test_start_gap_write_conservation;
          Alcotest.test_case "validation" `Quick test_start_gap_validation;
          qc start_gap_bijective ] );
      ( "wolfram",
        [ Alcotest.test_case "seeded permutation" `Quick test_wolfram_permutation;
          Alcotest.test_case "re-key cadence" `Quick test_wolfram_rekey_cadence;
          Alcotest.test_case "write accounting" `Quick test_wolfram_write_accounting;
          Alcotest.test_case "re-keying levels a hot line" `Quick
            test_wolfram_replay_levels_hot_line;
          qc wolfram_start_gap_bijective;
          qc wolfram_start_gap_remap_injective ] ) ]
