(* Shared helpers for the test suites. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let check_vec ?(eps = 1e-9) msg expected actual =
  if not (Linalg.Vec.approx_equal ~tol:eps expected actual) then
    Alcotest.failf "%s: vectors differ:@ %a@ vs@ %a" msg Linalg.Vec.pp expected
      Linalg.Vec.pp actual

let check_mat ?(eps = 1e-9) msg expected actual =
  if not (Linalg.Mat.approx_equal ~tol:eps expected actual) then
    Alcotest.failf "%s: matrices differ" msg

let rng () = Randkit.Prng.create 20260705

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

(* Resume a LAR/LASSO walk from every checkpoint it emits under
   ~checkpoint_every:1 and require each resumed path to equal the
   uninterrupted one bitwise: entries, drops, models, notes. [path
   ~on_checkpoint ~resume] runs the walk with ~checkpoint_every:1 — the
   resumed runs keep the cadence, so their checkpoint-aligned refreshes
   fall where the uninterrupted run's did. [replay_ulps] bounds the
   max_corr diagnostic of replayed steps, the one documented exception
   under incremental sweeps (exact replay dots vs the live run's
   delta-maintained vector); live steps are always bitwise. Returns the
   uninterrupted steps. *)
let check_resume_every_checkpoint ~label ~replay_ulps path =
  let ckpts = ref [] in
  let full = path ~on_checkpoint:(fun c -> ckpts := c :: !ckpts) ~resume:None in
  check_bool (label ^ ": checkpoints emitted") true (!ckpts <> []);
  let state (s : Rsm.Lars.step) =
    Marshal.to_string (s.Rsm.Lars.added, s.dropped, s.model) [ Marshal.No_sharing ]
  in
  List.iteri
    (fun i ck ->
      let resumed = path ~on_checkpoint:ignore ~resume:(Some ck) in
      let prefix = Array.length ck.Rsm.Serialize.Checkpoint.Lars.events in
      let tag = Printf.sprintf "%s, checkpoint %d (%d events)" label i prefix in
      check_int (tag ^ ": step count") (Array.length full) (Array.length resumed);
      Array.iteri
        (fun s (a : Rsm.Lars.step) ->
          let b = resumed.(s) in
          if state a <> state b then Alcotest.failf "%s: step %d differs" tag s;
          let ulps =
            Int64.abs
              (Int64.sub
                 (Int64.bits_of_float a.Rsm.Lars.max_corr)
                 (Int64.bits_of_float b.Rsm.Lars.max_corr))
          in
          let allowed = if s < prefix then replay_ulps else 0 in
          if ulps > Int64.of_int allowed then
            Alcotest.failf "%s: step %d max_corr %h vs %h" tag s
              a.Rsm.Lars.max_corr b.Rsm.Lars.max_corr)
        full)
    (List.rev !ckpts);
  full

let has_ban (steps : Rsm.Lars.step array) =
  Array.exists
    (fun (s : Rsm.Lars.step) ->
      Array.exists
        (String.starts_with ~prefix:"lars: banned dependent column")
        (Rsm.Model.notes s.Rsm.Lars.model))
    steps

(* [g] with copies of its columns 1 and 2 appended: entering candidates
   become linearly dependent, so `Fallback walks ban columns. *)
let with_duplicate_columns g =
  let k = Linalg.Mat.rows g and m = Linalg.Mat.cols g in
  Linalg.Mat.init k (m + 2) (fun i j ->
      Linalg.Mat.get g i (if j < m then j else j - m + 1))
