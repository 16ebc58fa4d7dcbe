(* Burst-fault resilience: the Markov outage model, adaptive
   backoff/breaker driver, Mahalanobis point screen and quorum-degraded
   fitting — determinism at every domain count throughout. *)
open Test_util
module Simulator = Circuit.Simulator
module Markov = Randkit.Markov
module Retry = Robust.Retry

let pool_counts = [ 1; 2; 4 ]

let small_sim () =
  let amp = Circuit.Opamp.build ~n_parasitics:15 () in
  (Circuit.Opamp.simulator amp Circuit.Opamp.Offset, Circuit.Opamp.dim amp)

let burst_faults =
  Simulator.fault_plan ~rate:0.05
    ~burst:(Simulator.burst_model ~entry:0.04 ~len:12. ())
    ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Markov outage chains ------------------------------------------ *)

let test_markov_states_deterministic () =
  let c = Markov.of_mean_len ~entry:0.05 ~mean_len:10. () in
  let a = Markov.states c ~seed:99 500 in
  let b = Markov.states c ~seed:99 500 in
  check_bool "states are a pure function of (chain, seed, n)" true (a = b);
  check_bool "a different seed gives a different chain" true
    (a <> Markov.states c ~seed:100 500);
  check_float ~eps:1e-12 "mean burst length" 10. (Markov.mean_burst_len c)

let test_markov_windows_consistent () =
  let c = Markov.of_mean_len ~entry:0.05 ~mean_len:8. () in
  let states = Markov.states c ~seed:3 400 in
  let windows = Markov.windows states in
  check_int "window lengths sum to the burst count" (Markov.count states)
    (Array.fold_left (fun acc (_, len) -> acc + len) 0 windows);
  Array.iter
    (fun (start, len) ->
      check_bool "window is maximal on the left" true
        (start = 0 || not states.(start - 1));
      check_bool "window is maximal on the right" true
        (start + len = 400 || not states.(start + len));
      for i = start to start + len - 1 do
        check_bool "window is solid" true states.(i)
      done)
    windows

let test_markov_degenerate_chains () =
  let never = Markov.chain ~entry:0. ~exit:0.5 () in
  check_bool "entry 0 never bursts" true
    (Array.for_all not (Markov.states never ~seed:1 200));
  check_int "no windows" 0 (Array.length (Markov.windows (Array.make 50 false)));
  check_raises_invalid "entry > 1" (fun () -> Markov.chain ~entry:1.5 ~exit:0.5 ());
  check_raises_invalid "mean_len < 1" (fun () ->
      Markov.of_mean_len ~entry:0.1 ~mean_len:0.5 ())

let test_burst_states_of_plan () =
  check_bool "no burst model: all Good" true
    (Array.for_all not (Simulator.burst_states Simulator.no_faults ~k:100));
  let states = Simulator.burst_states burst_faults ~k:2000 in
  check_bool "burst model produces outage windows" true
    (Markov.count states > 0);
  check_bool "pure function of the plan" true
    (states = Simulator.burst_states burst_faults ~k:2000)

(* --- burst-mode injection determinism ------------------------------ *)

let test_burst_run_pool_parity () =
  let sim, _ = small_sim () in
  let d0, r0 =
    Simulator.run_robust ~faults:burst_faults sim (Randkit.Prng.create 7)
      ~k:300
  in
  check_bool "bursts intersect the run" true (r0.Simulator.burst_windows > 0);
  check_bool "burst samples counted" true
    (r0.Simulator.burst_samples >= r0.Simulator.burst_windows);
  check_bool "faults attributed to bursts" true
    (r0.Simulator.burst_faults > 0);
  check_bool "summary mentions the windows" true
    (contains (Simulator.report_summary r0) "burst window");
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          let d, r =
            Simulator.run_robust ~pool ~faults:burst_faults sim
              (Randkit.Prng.create 7) ~k:300
          in
          check_bool
            (Printf.sprintf "dataset bitwise (domains=%d)" domains)
            true
            (d.Simulator.points = d0.Simulator.points
            && d.Simulator.values = d0.Simulator.values);
          check_bool
            (Printf.sprintf "report identical (domains=%d)" domains)
            true (r = r0)))
    pool_counts

let test_burst_off_is_bitwise_legacy () =
  (* A plan without a burst model must behave exactly as before the
     burst layer existed: same draws, same dataset, same report. *)
  let sim, _ = small_sim () in
  let plain = Simulator.fault_plan ~rate:0.10 ~outlier_scale:500. () in
  let d, r = Simulator.run_robust ~faults:plain sim (Randkit.Prng.create 5) ~k:150 in
  check_int "no burst windows" 0 r.Simulator.burst_windows;
  check_int "no burst samples" 0 r.Simulator.burst_samples;
  check_int "no burst faults" 0 r.Simulator.burst_faults;
  check_int "no breaker trips" 0 r.Simulator.breaker_trips;
  check_bool "summary stays burst-free" true
    (not (contains (Simulator.report_summary r) "burst"));
  check_bool "dataset non-empty" true (Simulator.dataset_size d > 0)

(* --- adaptive retry: backoff, budget, breaker ---------------------- *)

let test_retry_clean_matches_run () =
  let sim, _ = small_sim () in
  let d = Simulator.run sim (Randkit.Prng.create 42) ~k:80 in
  let d', report =
    Retry.run (Retry.policy ()) sim (Randkit.Prng.create 42) ~k:80
  in
  check_bool "clean adaptive run == run bitwise" true
    (d.Simulator.points = d'.Simulator.points
    && d.Simulator.values = d'.Simulator.values);
  check_int "all delivered" 80 report.Retry.run.Simulator.delivered;
  check_int "no events" 0 (Array.length report.Retry.events);
  check_int "no trips" 0 report.Retry.run.Simulator.breaker_trips

let test_retry_pool_parity () =
  let sim, _ = small_sim () in
  let policy = Retry.policy ~breaker_threshold:4 () in
  let d0, r0 =
    Retry.run ~faults:burst_faults policy sim (Randkit.Prng.create 13) ~k:250
  in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          let d, r =
            Retry.run ~pool ~faults:burst_faults policy sim
              (Randkit.Prng.create 13) ~k:250
          in
          check_bool
            (Printf.sprintf "adaptive dataset bitwise (domains=%d)" domains)
            true
            (d.Simulator.points = d0.Simulator.points
            && d.Simulator.values = d0.Simulator.values);
          check_bool
            (Printf.sprintf "adaptive report identical (domains=%d)" domains)
            true (r = r0)))
    pool_counts

let test_breaker_trips_and_recovers () =
  (* A hard outage window: every attempt inside it fails, so the breaker
     must trip, fail fast through the window, and close again on the
     other side — delivering the post-burst samples. *)
  let sim, _ = small_sim () in
  let faults =
    Simulator.fault_plan ~rate:0.
      ~burst:(Simulator.burst_model ~entry:0.05 ~len:25. ~rate:1. ())
      ()
  in
  let policy = Retry.policy ~max_attempts:3 ~breaker_threshold:3 () in
  let d, r = Retry.run ~faults policy sim (Randkit.Prng.create 21) ~k:300 in
  let run = r.Retry.run in
  check_bool "bursts hit the run" true (run.Simulator.burst_windows > 0);
  check_bool "breaker tripped" true (run.Simulator.breaker_trips > 0);
  let has p = Array.exists p r.Retry.events in
  check_bool "a Tripped event was logged" true
    (has (function Retry.Tripped _ -> true | _ -> false));
  check_bool "fast-fails while open" true
    (has (function Retry.Fast_fail _ -> true | _ -> false));
  check_bool "breaker closed again" true
    (has (function Retry.Closed _ -> true | _ -> false));
  check_int "delivered + failed = requested" 300
    (run.Simulator.delivered + Array.length run.Simulator.failed);
  check_int "dataset matches the report" run.Simulator.delivered
    (Simulator.dataset_size d);
  (* Fail-fast means abandoned burst samples each burned one attempt,
     not the full retry allowance: strictly cheaper than fixed retry. *)
  let _, fixed =
    Simulator.run_robust ~faults
      ~retry:(Simulator.retry_policy ~max_attempts:3 ())
      sim (Randkit.Prng.create 21) ~k:300
  in
  check_bool "adaptive charges less accounted time than fixed retry" true
    (run.Simulator.accounted_extra_seconds
    < fixed.Simulator.accounted_extra_seconds);
  Array.iter
    (fun e ->
      check_bool "events render" true (String.length (Retry.event_to_string e) > 0))
    r.Retry.events

let test_retry_budget_exhaustion () =
  let sim, _ = small_sim () in
  let faults =
    Simulator.fault_plan ~rate:0.4 ~mix:[| (Simulator.Transient, 1.) |] ()
  in
  let policy = Retry.policy ~max_attempts:4 ~attempt_budget:5 () in
  let _, r = Retry.run ~faults policy sim (Randkit.Prng.create 31) ~k:200 in
  check_int "budget caps granted retries" 5 r.Retry.retries_granted;
  check_bool "denials recorded" true (r.Retry.retries_denied > 0);
  check_bool "exhaustion logged once" true
    (Array.length
       (Array.of_list
          (List.filter
             (function Retry.Budget_exhausted _ -> true | _ -> false)
             (Array.to_list r.Retry.events)))
    = 1)

let test_retry_policy_validation () =
  check_raises_invalid "zero attempts" (fun () -> Retry.policy ~max_attempts:0 ());
  check_raises_invalid "jitter 1" (fun () -> Retry.policy ~jitter:1. ());
  check_raises_invalid "negative budget" (fun () ->
      Retry.policy ~attempt_budget:(-1) ());
  check_raises_invalid "negative cooldown" (fun () -> Retry.policy ~cooldown:(-2) ());
  check_raises_invalid "k = 0" (fun () ->
      let sim, _ = small_sim () in
      Retry.run (Retry.policy ()) sim (Randkit.Prng.create 1) ~k:0)

(* --- Mahalanobis point screen -------------------------------------- *)

let gaussian_dataset ?(dim = 3) ~k seed =
  let g = Randkit.Prng.create seed in
  {
    Simulator.points = Array.init k (fun _ -> Randkit.Gaussian.vector g dim);
    values = Array.init k (fun _ -> Randkit.Gaussian.sample g);
  }

let mahal_ok ?confidence d =
  match Robust.Screen.mahalanobis ?confidence d with
  | Ok r -> r
  | Error e -> Alcotest.fail ("mahalanobis failed: " ^ Robust.Error.to_string e)

let test_mahalanobis_flags_far_point () =
  let d = gaussian_dataset ~k:80 11 in
  (* A corrupted coordinate vector whose response is unremarkable — the
     response screen cannot see it, the point screen must. *)
  d.Simulator.points.(17) <- [| 40.; -35.; 50. |];
  let kept, report = mahal_ok d in
  let far =
    Array.exists
      (fun (i, why) ->
        i = 17
        && match why with Robust.Screen.Far_point dist ->
             dist > report.Robust.Screen.p_threshold
           | _ -> false)
      report.Robust.Screen.p_dropped
  in
  check_bool "the planted far point is dropped with its distance" true far;
  check_bool "the bulk survives" true (Simulator.dataset_size kept >= 75);
  check_bool "summary renders" true
    (contains (Robust.Screen.point_report_summary report) "point screen")

let test_mahalanobis_clean_bulk_survives () =
  let d = gaussian_dataset ~k:120 13 in
  let kept, report = mahal_ok d in
  (* At 99.9% confidence a clean Gaussian batch loses at most a row or
     two; the exact count is deterministic for the seed. *)
  check_bool "nearly everything kept" true
    (Simulator.dataset_size kept >= 118);
  check_bool "shrinkage from the ladder" true
    (Array.exists
       (fun g -> g = report.Robust.Screen.p_shrinkage)
       [| 0.05; 0.1; 0.2; 0.4; 0.8; 1.0 |])

let test_mahalanobis_degenerate_and_errors () =
  let two = gaussian_dataset ~k:2 17 in
  let kept, report = mahal_ok two in
  check_int "two rows stand down to finiteness-only" 2
    (Simulator.dataset_size kept);
  check_float ~eps:0. "degenerate shrinkage reported" 1.0
    report.Robust.Screen.p_shrinkage;
  let bad =
    {
      Simulator.points = [| [| Float.nan; 0. |]; [| 0.; Float.infinity |] |];
      values = [| 1.; 2. |];
    }
  in
  (match Robust.Screen.mahalanobis bad with
  | Error (Robust.Error.Simulation _) -> ()
  | Error e -> Alcotest.failf "wrong category: %s" (Robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "all-non-finite points must not screen Ok");
  check_raises_invalid "confidence 1" (fun () ->
      Robust.Screen.mahalanobis ~confidence:1. (gaussian_dataset ~k:10 1));
  check_raises_invalid "empty dataset" (fun () ->
      Robust.Screen.mahalanobis { Simulator.points = [||]; values = [||] })

let test_chi2_quantile_sanity () =
  (* Wilson–Hilferty against table values. *)
  check_float ~eps:0.2 "chi2_10(0.95)" 18.307
    (Robust.Screen.chi2_quantile ~dof:10 0.95);
  check_float ~eps:0.3 "chi2_20(0.999)" 45.315
    (Robust.Screen.chi2_quantile ~dof:20 0.999);
  check_bool "monotone in p" true
    (Robust.Screen.chi2_quantile ~dof:5 0.99
    > Robust.Screen.chi2_quantile ~dof:5 0.9)

let test_chi2_quantile_low_dof_exact () =
  (* Regression for the Wilson–Hilferty cube at dof 1–2: it was off by
     several percent there (−3.6% at dof 1, p = 0.999), skewing the
     factor-screen cut for 1–2 variable designs. The closed forms must
     now match reference quantiles to the inverse-normal's accuracy. *)
  let q = Robust.Screen.chi2_quantile in
  check_float ~eps:1e-6 "chi2_1(0.95)" 3.8414588206941254 (q ~dof:1 0.95);
  check_float ~eps:1e-6 "chi2_1(0.99)" 6.6348966010212145 (q ~dof:1 0.99);
  check_float ~eps:1e-6 "chi2_1(0.999)" 10.827566170662733 (q ~dof:1 0.999);
  check_float ~eps:1e-9 "chi2_2(0.95)" 5.991464547107979 (q ~dof:2 0.95);
  check_float ~eps:1e-9 "chi2_2(0.99)" 9.210340371976182 (q ~dof:2 0.99);
  check_float ~eps:1e-9 "chi2_2(0.999)" 13.815510557964274 (q ~dof:2 0.999);
  (* dof 2 closed form is exactly −2·ln(1−p); p = 0.75 keeps 1−p exact
     in binary so the comparison can be bitwise. *)
  check_float ~eps:0. "chi2_2 closed form" (-2. *. log 0.25) (q ~dof:2 0.75);
  (* dof >= 3 still goes through Wilson–Hilferty (within a few permil of
     the reference value, but not exact). *)
  check_float ~eps:0.05 "chi2_3(0.95) approx" 7.814727903251179
    (q ~dof:3 0.95);
  check_bool "dof 3 stays Wilson-Hilferty" true
    (Float.abs (q ~dof:3 0.95 -. 7.814727903251179) > 1e-9)

let test_response_screen_two_sample_standdown () =
  (* Two rows an ocean apart: their MAD is |v1-v2|/2, putting each a
     constant 0.674 robust sigma from the midpoint — the old screen
     silently passed everything while appearing to have run. It must
     stand down with the zero-spread verdict instead. *)
  let d =
    {
      Simulator.points = [| [| 0.1 |]; [| 0.2 |] |];
      values = [| 0.; 1e9 |];
    }
  in
  (match Robust.Screen.screen d with
  | Ok (kept, report) ->
      check_float ~eps:0. "spread reports the stand-down" 0.
        report.Robust.Screen.spread;
      check_int "both rows kept" 2 (Simulator.dataset_size kept);
      check_int "nothing silently dropped" 0
        (Array.length report.Robust.Screen.dropped)
  | Error e -> Alcotest.fail ("screen failed: " ^ Robust.Error.to_string e));
  match
    Robust.Screen.screen
      { Simulator.points = [| [| 0.5 |] |]; values = [| 3.25 |] }
  with
  | Ok (_, report) ->
      check_float ~eps:0. "single row also stands down" 0.
        report.Robust.Screen.spread
  | Error e -> Alcotest.fail ("screen failed: " ^ Robust.Error.to_string e)

(* --- quorum-degraded fitting --------------------------------------- *)

let transient_storm =
  Simulator.fault_plan ~rate:0.45 ~mix:[| (Simulator.Transient, 1.) |] ()

let pipeline_cfg ?adaptive ?(quorum = Robust.Pipeline.default_quorum)
    ?(screen_space = Robust.Pipeline.Response) ?(faults = Simulator.no_faults)
    ?(retry = Simulator.no_retry) () =
  match
    Robust.Pipeline.config ~samples:150 ~folds:3 ~max_lambda:5 ~min_samples:10
      ~quorum ~screen_space ~faults ~retry ?adaptive ()
  with
  | Ok cfg -> cfg
  | Error e -> Alcotest.failf "config: %s" (Robust.Error.to_string e)

let test_quorum_shortfall_is_typed () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg = pipeline_cfg ~faults:transient_storm ~quorum:0.9 () in
  match Robust.Pipeline.fit cfg sim basis (rng ()) with
  | Error (Robust.Error.Simulation msg) ->
      check_bool "diagnostic names the quorum" true (contains msg "quorum")
  | Error e -> Alcotest.failf "wrong category: %s" (Robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "sub-quorum run must not fit"

let test_degraded_fit_notes_and_roundtrip () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg = pipeline_cfg ~faults:transient_storm ~quorum:0.4 () in
  match Robust.Pipeline.fit cfg sim basis (rng ()) with
  | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
  | Ok o ->
      let notes = Rsm.Model.notes o.Robust.Pipeline.model in
      let degraded =
        Array.to_list notes
        |> List.filter (fun n -> contains n "degraded: ")
      in
      check_int "exactly one degraded note" 1 (List.length degraded);
      let note = List.hd degraded in
      check_bool "note counts the kept rows" true
        (contains note
           (Printf.sprintf "kept %d of 150"
              (Simulator.dataset_size o.Robust.Pipeline.dataset)));
      check_bool "note is one line" true (not (String.contains note '\n'));
      (* Provenance must survive the model file. *)
      (match
         Rsm.Serialize.of_string
           (Rsm.Serialize.to_string o.Robust.Pipeline.model)
       with
      | Error e -> Alcotest.failf "parse: %s" e
      | Ok m' ->
          check_bool "degraded note round-trips through serialization" true
            (Array.exists (( = ) note) (Rsm.Model.notes m')));
      check_bool "outcome summary carries the note" true
        (contains (Robust.Pipeline.outcome_summary o) "degraded: ")

let test_full_delivery_carries_no_note () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg = pipeline_cfg () in
  match Robust.Pipeline.fit cfg sim basis (rng ()) with
  | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
  | Ok o ->
      check_bool "no degraded note on a clean run" true
        (not
           (Array.exists
              (fun n -> contains n "degraded")
              (Rsm.Model.notes o.Robust.Pipeline.model)))

let test_pipeline_screen_spaces () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let outcome space =
    match
      Robust.Pipeline.fit
        (pipeline_cfg ~screen_space:space ())
        sim basis (rng ())
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
  in
  let o = outcome Robust.Pipeline.Both in
  check_bool "Both: response report present" true
    (o.Robust.Pipeline.screen_report <> None);
  check_bool "Both: point report present" true
    (o.Robust.Pipeline.point_report <> None);
  let o = outcome Robust.Pipeline.Factor in
  check_bool "Factor: response report absent" true
    (o.Robust.Pipeline.screen_report = None);
  check_bool "Factor: point report present" true
    (o.Robust.Pipeline.point_report <> None);
  check_bool "parse round-trips" true
    (List.for_all
       (fun s ->
         Robust.Pipeline.screen_space_of_string
           (Robust.Pipeline.screen_space_to_string s)
         = Some s)
       [ Robust.Pipeline.Response; Robust.Pipeline.Factor; Robust.Pipeline.Both ])

let test_pipeline_adaptive_deterministic () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg =
    pipeline_cfg ~quorum:0.3
      ~faults:burst_faults
      ~adaptive:(Retry.policy ~breaker_threshold:4 ())
      ()
  in
  let fit () =
    match Robust.Pipeline.fit cfg sim basis (rng ()) with
    | Ok o -> o
    | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
  in
  let a = fit () and b = fit () in
  check_bool "adaptive report surfaced" true
    (a.Robust.Pipeline.adaptive_report <> None);
  check_bool "adaptive burst fit is reproducible" true
    (Rsm.Serialize.to_string a.Robust.Pipeline.model
    = Rsm.Serialize.to_string b.Robust.Pipeline.model);
  check_bool "summary shows the adaptive line" true
    (contains (Robust.Pipeline.outcome_summary a) "adaptive retry")

let test_burst_fit_pool_parity () =
  (* The acceptance gate in miniature: a quorate burst-mode CV fit is
     bitwise identical at 1, 2 and 4 domains. *)
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg =
    pipeline_cfg ~quorum:0.3 ~faults:burst_faults
      ~retry:(Simulator.retry_policy ()) ()
  in
  let fit pool =
    match Robust.Pipeline.fit ?pool cfg sim basis (rng ()) with
    | Ok o -> Rsm.Serialize.to_string o.Robust.Pipeline.model
    | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
  in
  let reference = fit None in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          check_bool
            (Printf.sprintf "burst fit bitwise (domains=%d)" domains)
            true
            (fit (Some pool) = reference)))
    pool_counts

let test_burst_cv_resume_bitwise () =
  (* Killed-then-resumed under burst faults: the training data comes out
     of a bursty delivery, the CV sweep checkpoints per fold, two fold
     files are lost in the "crash", and the resumed sweep must replay
     byte-identically. *)
  let sim, _ = small_sim () in
  let data, report =
    Simulator.run_robust ~faults:burst_faults
      ~retry:(Simulator.retry_policy ())
      sim (Randkit.Prng.create 23) ~k:120
  in
  check_bool "the delivery really was bursty" true
    (report.Simulator.burst_windows > 0);
  let basis =
    Polybasis.Basis.constant_linear (Array.length data.Simulator.points.(0))
  in
  let src =
    Polybasis.Design.Provider.dense
      (Polybasis.Design.matrix_rows basis data.Simulator.points)
  in
  let f = data.Simulator.values in
  let run ?checkpoint ?resume () =
    Rsm.Select.omp_p ?checkpoint ?resume ~folds:4
      (Randkit.Prng.create 77)
      ~max_lambda:5 src f
  in
  let fingerprint (r : Rsm.Select.result) =
    Printf.sprintf "%d|%s" r.Rsm.Select.lambda
      (Rsm.Serialize.to_string r.Rsm.Select.model)
  in
  let full = run () in
  let dir = Filename.temp_file "burst-cv" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun fn -> Sys.remove (Filename.concat dir fn))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let base = Filename.concat dir "cv" in
      ignore (run ~checkpoint:base ());
      Sys.remove (Rsm.Serialize.Checkpoint.Cv.fold_file base 2);
      Sys.remove (Rsm.Serialize.Checkpoint.Cv.fold_file base 3);
      let resumed = run ~checkpoint:base ~resume:true () in
      check_bool "burst-trained sweep resumes bitwise" true
        (fingerprint resumed = fingerprint full))

(* --- golden pins -----------------------------------------------------

   Absolute bits of [Pipeline.fit] and [fit_multi]: the model digest,
   the delivery report and the screens' kept counts, under the stage
   combinations the data stage must order exactly. The parity tests
   compare domain and shard counts with each other, so a stage-order
   slip that moves every run alike would pass them; these would not. *)

let faults_10pct = Simulator.fault_plan ~rate:0.10 ~outlier_scale:500. ()

let hex64 = Printf.sprintf "%016Lx"

let kept_count = Option.map (fun r -> Array.length r.Robust.Screen.kept)
let p_kept_count = Option.map (fun r -> Array.length r.Robust.Screen.p_kept)

let pin_fit name cfg ~digest ~run ~kept ~p_kept ~note =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  match Robust.Pipeline.fit cfg sim basis (rng ()) with
  | Error e -> Alcotest.failf "%s: %s" name (Robust.Error.to_string e)
  | Ok o ->
      Alcotest.(check string)
        (name ^ ": model digest") digest
        (hex64 (Rsm.Serialize.digest o.Robust.Pipeline.model));
      Alcotest.(check string)
        (name ^ ": run report") run
        (Simulator.report_summary o.Robust.Pipeline.run_report);
      Alcotest.(check (option int))
        (name ^ ": response kept") kept
        (kept_count o.Robust.Pipeline.screen_report);
      Alcotest.(check (option int))
        (name ^ ": factor kept") p_kept
        (p_kept_count o.Robust.Pipeline.point_report);
      check_bool (name ^ ": note") true
        (Array.exists
           (fun n -> contains n note)
           (Rsm.Model.notes o.Robust.Pipeline.model))

let config_exn = function
  | Ok cfg -> cfg
  | Error e -> Alcotest.failf "config: %s" (Robust.Error.to_string e)

let test_golden_fixed_retry () =
  pin_fit "fixed retry"
    (config_exn
       (Robust.Pipeline.config ~samples:150 ~folds:3 ~max_lambda:6
          ~faults:faults_10pct ~retry:(Simulator.retry_policy ())
          ~min_samples:75 ()))
    ~digest:"a085d64131189bed"
    ~run:
      "150/150 samples delivered; 15 faults injected (7 non-finite, 3 \
       outliers, 5 transient, 0 hangs); 12 retries; 0 abandoned; 173.4 s of \
       extra simulation accounted"
    ~kept:(Some 147) ~p_kept:None
    ~note:"degraded: kept 147 of 150 requested rows (0 lost in delivery, 3 \
           screened)"

let test_golden_adaptive_burst () =
  pin_fit "adaptive burst"
    (config_exn
       (Robust.Pipeline.config ~method_:Rsm.Solver.Lar ~samples:150 ~folds:3
          ~max_lambda:5 ~min_samples:10 ~quorum:0.3
          ~screen_space:Robust.Pipeline.Both ~faults:burst_faults
          ~adaptive:(Retry.policy ~breaker_threshold:4 ())
          ()))
    ~digest:"ff343533509c018a"
    ~run:
      "105/150 samples delivered; 89 faults injected (1 non-finite, 1 \
       outliers, 64 transient, 23 hangs); 43 retries; 45 abandoned; 1386.1 s \
       of extra simulation accounted; 3 burst window(s) covering 45 samples \
       (84 faults); 4 breaker trip(s)"
    ~kept:(Some 104) ~p_kept:(Some 104)
    ~note:"degraded: kept 104 of 150 requested rows (45 lost in delivery, 1 \
           screened) above quorum 30%; 3 burst window(s) over 45 sample(s); 4 \
           breaker trip(s)"

let test_golden_rescreen () =
  pin_fit "rescreen"
    (config_exn
       (Robust.Pipeline.config ~samples:150 ~folds:3 ~max_lambda:6
          ~faults:faults_10pct ~retry:(Simulator.retry_policy ())
          ~min_samples:75 ~rescreen:true ~screen_threshold:3. ~streamed:true
          ()))
    ~digest:"0a961c5bbfe55675"
    ~run:
      "150/150 samples delivered; 15 faults injected (7 non-finite, 3 \
       outliers, 5 transient, 0 hangs); 12 retries; 0 abandoned; 173.4 s of \
       extra simulation accounted"
    ~kept:(Some 147) ~p_kept:None
    ~note:"rescreen: dropped 1 of 147 rows (gram downdate)"

let test_golden_fit_multi () =
  let amp = Circuit.Opamp.build ~n_parasitics:10 () in
  let sims =
    Array.map (Circuit.Opamp.simulator amp)
      [| Circuit.Opamp.Gain; Circuit.Opamp.Offset |]
  in
  let basis = Polybasis.Basis.constant_linear (Circuit.Opamp.dim amp) in
  let cfg =
    config_exn
      (Robust.Pipeline.config ~method_:Rsm.Solver.Lar ~samples:60
         ~max_lambda:6
         ~faults:(Simulator.fault_plan ~rate:0.2 ())
         ~retry:Simulator.no_retry ~screen_space:Robust.Pipeline.Both
         ~min_samples:20 ~quorum:0.5 ())
  in
  match Robust.Pipeline.fit_multi cfg sims basis (Randkit.Prng.create 12) with
  | Error e -> Alcotest.failf "fit_multi: %s" (Robust.Error.to_string e)
  | Ok o ->
      Alcotest.(check (array string))
        "model digests"
        [| "e257ff96519afd19"; "3bc6b586c35f6e47" |]
        (Array.map
           (fun m -> hex64 (Rsm.Serialize.digest m))
           o.Robust.Pipeline.models);
      Alcotest.(check string)
        "run report"
        "51/60 samples delivered; 13 faults injected (6 non-finite, 4 \
         outliers, 3 transient, 0 hangs); 0 retries; 9 abandoned; 0.0 s of \
         extra simulation accounted"
        (Simulator.report_summary o.Robust.Pipeline.m_run_report);
      Alcotest.(check (array (option int)))
        "response kept" [| Some 47; Some 47 |]
        (Array.map kept_count o.Robust.Pipeline.screen_reports);
      Alcotest.(check (option int))
        "factor kept" (Some 47)
        (p_kept_count o.Robust.Pipeline.m_point_report);
      check_int "rows" 47
        (Simulator.dataset_size o.Robust.Pipeline.datasets.(0))

(* --- the data stage against a hand-built reference -----------------

   [Pipeline.prepare] must equal its stages composed by hand: one
   [run_robust] per simulator (fault draws never depend on the values,
   so every output sees the batch's delivered rows), each output's
   response screen, the kept sets intersected, then one factor screen
   on the shared points. The adaptive arm swaps in [Retry.run]. *)

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_dataset (a : Simulator.dataset) (b : Simulator.dataset) =
  Array.length a.Simulator.points = Array.length b.Simulator.points
  && Array.for_all2 same_floats a.Simulator.points b.Simulator.points
  && same_floats a.Simulator.values b.Simulator.values

let ok_exn what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %s" what (Robust.Error.to_string e)

let stage_faults =
  Simulator.fault_plan ~rate:0.15
    ~mix:
      [|
        (Simulator.Outlier, 2.); (Simulator.Nan_return, 1.);
        (Simulator.Transient, 1.);
      |]
    ~outlier_scale:500.
    ~burst:(Simulator.burst_model ~entry:0.04 ~len:12. ())
    ()

let stage_cfg ?adaptive () =
  config_exn
    (Robust.Pipeline.config ~samples:120 ~folds:3 ~max_lambda:5
       ~min_samples:10 ~quorum:0.3 ~screen_space:Robust.Pipeline.Both
       ~faults:stage_faults ~retry:(Simulator.retry_policy ()) ?adaptive ())

let stage_sims r =
  let amp = Circuit.Opamp.build ~n_parasitics:15 () in
  let metrics =
    [| Circuit.Opamp.Offset; Circuit.Opamp.Gain; Circuit.Opamp.Bandwidth |]
  in
  ( Array.map (Circuit.Opamp.simulator amp) (Array.sub metrics 0 r),
    Polybasis.Basis.constant_linear (Circuit.Opamp.dim amp) )

(* [delivered] holds one (dataset, run report) per output. *)
let reference_stage (cfg : Robust.Pipeline.config) delivered =
  let datasets = Array.map fst delivered in
  let screens =
    Array.map
      (fun d ->
        snd
          (ok_exn "screen"
             (Robust.Screen.screen ~threshold:cfg.screen_threshold d)))
      datasets
  in
  let n = Simulator.dataset_size datasets.(0) in
  let shared =
    List.init n Fun.id
    |> List.filter (fun i ->
           Array.for_all (fun r -> Array.mem i r.Robust.Screen.kept) screens)
    |> Array.of_list
  in
  let screened = Array.map (fun d -> Simulator.split d shared) datasets in
  let _, point =
    ok_exn "mahalanobis"
      (Robust.Screen.mahalanobis ~confidence:cfg.screen_confidence
         screened.(0))
  in
  ( Array.map (fun d -> Simulator.split d point.Robust.Screen.p_kept) screened,
    screens,
    point )

let sans_extra (r : Simulator.run_report) =
  { r with Simulator.accounted_extra_seconds = 0. }

let check_prepared name cfg basis delivered ~run ~adaptive
    (p : Robust.Pipeline.prepared) =
  let datasets, screens, point = reference_stage cfg delivered in
  check_bool (name ^ ": datasets bitwise") true
    (Array.length datasets = Array.length p.datasets
    && Array.for_all2 same_dataset datasets p.datasets);
  check_bool (name ^ ": points shared") true
    (Array.for_all
       (fun d -> d.Simulator.points == p.datasets.(0).Simulator.points)
       p.datasets);
  check_bool (name ^ ": response screens") true
    (p.screen_reports = Array.map Option.some screens);
  check_bool (name ^ ": factor screen") true (p.point_report = Some point);
  check_bool (name ^ ": run report") true (run p.run_report);
  check_bool (name ^ ": adaptive report") true (adaptive p.adaptive_report);
  let n = Simulator.dataset_size datasets.(0) in
  check_bool (name ^ ": the response screen dropped rows") true
    (Array.length screens.(0).Robust.Screen.dropped > 0);
  Alcotest.(check (array string))
    (name ^ ": notes")
    [|
      Robust.Pipeline.degraded_note ~requested:cfg.samples ~survived:n
        ~quorum:cfg.quorum p.run_report;
    |]
    p.notes;
  let expected =
    Polybasis.Design.Provider.dense
      (Polybasis.Design.matrix_rows basis datasets.(0).Simulator.points)
  in
  check_int (name ^ ": design rows") n (Polybasis.Design.Provider.rows p.src);
  List.iter
    (fun j ->
      check_bool
        (Printf.sprintf "%s: design column %d" name j)
        true
        (same_floats
           (Polybasis.Design.Provider.column expected j)
           (Polybasis.Design.Provider.column p.src j)))
    [ 0; 1; Polybasis.Basis.size basis - 1 ]

let prepare_at domains cfg sims basis =
  let run pool =
    ok_exn "prepare"
      (Robust.Pipeline.prepare ?pool cfg sims basis (Randkit.Prng.create 31))
  in
  if domains = 1 then run None
  else Parallel.Pool.with_pool ~domains (fun pool -> run (Some pool))

let test_prepare_matches_reference () =
  List.iter
    (fun r ->
      let sims, basis = stage_sims r in
      let cfg = stage_cfg () in
      let delivered =
        Array.map
          (fun sim ->
            Simulator.run_robust ~faults:cfg.faults ~retry:cfg.retry sim
              (Randkit.Prng.create 31) ~k:cfg.samples)
          sims
      in
      check_bool "the delivery really was bursty" true
        ((snd delivered.(0)).Simulator.burst_windows > 0);
      let single = snd delivered.(0) in
      List.iter
        (fun domains ->
          check_prepared
            (Printf.sprintf "R=%d, %d domain(s)" r domains)
            cfg basis delivered
            ~run:(fun rep ->
              if r = 1 then rep = single
              else sans_extra rep = sans_extra single)
            ~adaptive:Option.is_none
            (prepare_at domains cfg sims basis))
        pool_counts)
    [ 1; 3 ]

let test_prepare_adaptive_matches_retry_run () =
  let sims, basis = stage_sims 1 in
  let cfg = stage_cfg ~adaptive:(Retry.policy ~breaker_threshold:3 ()) () in
  let d, log =
    Retry.run ~faults:cfg.faults
      (Option.get cfg.adaptive)
      sims.(0) (Randkit.Prng.create 31) ~k:cfg.samples
  in
  check_bool "the breaker tripped" true
    (log.Retry.run.Simulator.breaker_trips > 0);
  List.iter
    (fun domains ->
      check_prepared
        (Printf.sprintf "adaptive, %d domain(s)" domains)
        cfg basis
        [| (d, log.Retry.run) |]
        ~run:(( = ) log.Retry.run)
        ~adaptive:(( = ) (Some log))
        (prepare_at domains cfg sims basis))
    pool_counts

let test_prepare_typed_failures () =
  let expect name pred = function
    | Error e when pred e -> ()
    | Error e ->
        Alcotest.failf "%s: wrong error %s" name (Robust.Error.to_string e)
    | Ok _ -> Alcotest.failf "%s: expected an error" name
  in
  let simulation sub = function
    | Robust.Error.Simulation m -> contains m sub
    | _ -> false
  in
  List.iter
    (fun r ->
      let sims, basis = stage_sims r in
      let prepare ~min_samples ~quorum =
        Robust.Pipeline.prepare
          (config_exn
             (Robust.Pipeline.config ~samples:150 ~min_samples ~quorum
                ~faults:transient_storm ~retry:Simulator.no_retry ()))
          sims basis (rng ())
      in
      expect
        (Printf.sprintf "R=%d: min_samples floor" r)
        (simulation "minimum 140")
        (prepare ~min_samples:140 ~quorum:0.3);
      expect
        (Printf.sprintf "R=%d: quorum" r)
        (simulation "quorum lost")
        (prepare ~min_samples:10 ~quorum:0.9))
    [ 1; 3 ];
  let sims, basis = stage_sims 3 in
  expect "adaptive with three simulators"
    (function Robust.Error.Config _ -> true | _ -> false)
    (Robust.Pipeline.prepare
       (stage_cfg ~adaptive:(Retry.policy ()) ())
       sims basis (rng ()));
  expect "no simulators"
    (function Robust.Error.Invalid_input _ -> true | _ -> false)
    (Robust.Pipeline.prepare (stage_cfg ()) [||] basis (rng ()))

(* --- qcheck properties --------------------------------------------- *)

let qtest_burst_domain_parity =
  qtest ~count:12 "burst runs bitwise at 1/2/4 domains (qcheck)"
    QCheck.(pair small_nat small_nat)
    (fun (seed0, k0) ->
      let sim, _ = small_sim () in
      let seed = 1 + seed0 and k = 40 + k0 in
      let base =
        Simulator.run_robust ~faults:burst_faults sim
          (Randkit.Prng.create seed) ~k
      in
      List.for_all
        (fun domains ->
          Parallel.Pool.with_pool ~domains (fun pool ->
              Simulator.run_robust ~pool ~faults:burst_faults sim
                (Randkit.Prng.create seed) ~k
              = base))
        [ 2; 4 ])

let qtest_mahalanobis_order_invariant =
  qtest ~count:30 "point-screen verdicts invariant to sample order (qcheck)"
    QCheck.small_nat
    (fun seed0 ->
      let seed = 1 + seed0 in
      let d = gaussian_dataset ~dim:3 ~k:50 seed in
      (* Plant one far point so both verdict classes are exercised. *)
      d.Simulator.points.(seed mod 50) <- [| 30.; -30.; 30. |];
      let perm = Randkit.Prng.permutation (Randkit.Prng.create (seed + 999)) 50 in
      let permuted =
        {
          Simulator.points = Array.map (fun j -> d.Simulator.points.(j)) perm;
          values = Array.map (fun j -> d.Simulator.values.(j)) perm;
        }
      in
      let kept_of data =
        match Robust.Screen.mahalanobis data with
        | Ok (_, r) -> r.Robust.Screen.p_kept
        | Error e -> Alcotest.fail (Robust.Error.to_string e)
      in
      let kept = kept_of d in
      let kept_p = kept_of permuted in
      (* Map the permuted verdicts back to original row identities. *)
      let back = Array.map (fun j -> perm.(j)) kept_p in
      Array.sort compare back;
      back = kept)

let qtest_response_screen_order_invariant =
  qtest ~count:30 "response-screen verdicts invariant to sample order (qcheck)"
    QCheck.small_nat
    (fun seed0 ->
      let seed = 1 + seed0 in
      let d = gaussian_dataset ~dim:2 ~k:41 seed in
      d.Simulator.values.(seed mod 41) <- 1e7;
      let perm = Randkit.Prng.permutation (Randkit.Prng.create (seed + 7)) 41 in
      let permuted =
        {
          Simulator.points = Array.map (fun j -> d.Simulator.points.(j)) perm;
          values = Array.map (fun j -> d.Simulator.values.(j)) perm;
        }
      in
      let kept_of data =
        match Robust.Screen.screen data with
        | Ok (_, r) -> r.Robust.Screen.kept
        | Error e -> Alcotest.fail (Robust.Error.to_string e)
      in
      let kept = kept_of d in
      let back = Array.map (fun j -> perm.(j)) (kept_of permuted) in
      Array.sort compare back;
      back = kept)

let suite =
  ( "burst",
    [
      case "markov: states are deterministic" test_markov_states_deterministic;
      case "markov: windows partition the burst steps"
        test_markov_windows_consistent;
      case "markov: degenerate chains and validation"
        test_markov_degenerate_chains;
      case "burst_states: pure function of the plan" test_burst_states_of_plan;
      case "burst injection: pool parity at 1/2/4 domains"
        test_burst_run_pool_parity;
      case "burst off: legacy plans unchanged" test_burst_off_is_bitwise_legacy;
      case "adaptive retry: clean run == run bitwise"
        test_retry_clean_matches_run;
      case "adaptive retry: pool parity at 1/2/4 domains"
        test_retry_pool_parity;
      case "breaker: trips, fails fast, recovers, costs less"
        test_breaker_trips_and_recovers;
      case "budget: global attempt cap enforced" test_retry_budget_exhaustion;
      case "adaptive retry: validation" test_retry_policy_validation;
      case "mahalanobis: plants and flags a far point"
        test_mahalanobis_flags_far_point;
      case "mahalanobis: clean bulk survives" test_mahalanobis_clean_bulk_survives;
      case "mahalanobis: degenerate inputs and errors"
        test_mahalanobis_degenerate_and_errors;
      case "chi2 quantile: Wilson-Hilferty sanity" test_chi2_quantile_sanity;
      case "chi2 quantile: exact closed forms at dof 1-2"
        test_chi2_quantile_low_dof_exact;
      case "screen: two-sample MAD stands down"
        test_response_screen_two_sample_standdown;
      case "quorum: shortfall is a typed Simulation error"
        test_quorum_shortfall_is_typed;
      case "quorum: degraded fit notes the model and round-trips"
        test_degraded_fit_notes_and_roundtrip;
      case "quorum: full delivery carries no note"
        test_full_delivery_carries_no_note;
      case "pipeline: screen spaces compose" test_pipeline_screen_spaces;
      case "pipeline: adaptive burst fit is reproducible"
        test_pipeline_adaptive_deterministic;
      slow_case "pipeline: burst fit bitwise at 1/2/4 domains"
        test_burst_fit_pool_parity;
      case "cv: killed-then-resumed burst-trained sweep is bitwise"
        test_burst_cv_resume_bitwise;
      case "golden: fit under fixed retry and the response screen"
        test_golden_fixed_retry;
      case "golden: fit under bursts, breaker, both screens, degraded quorum"
        test_golden_adaptive_burst;
      case "golden: fit with the residual rescreen" test_golden_rescreen;
      case "golden: fit_multi on two opamp metrics" test_golden_fit_multi;
      case "prepare: R=1 and R=3 == hand-composed stages at 1/2/4 domains"
        test_prepare_matches_reference;
      case "prepare: adaptive R=1 == Retry.run then the screens"
        test_prepare_adaptive_matches_retry_run;
      case "prepare: floor, quorum and shape failures are typed"
        test_prepare_typed_failures;
      qtest_burst_domain_parity;
      qtest_mahalanobis_order_invariant;
      qtest_response_screen_order_invariant;
    ] )
