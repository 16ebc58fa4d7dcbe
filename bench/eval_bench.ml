(* Serving-engine scenario: evals/sec of the naive term-by-term
   evaluator vs the compiled instruction tape (sequential and over the
   domain pool), plus a streamed yield-convergence curve — at the
   paper-scale quadratic dictionary (M ≈ 5·10⁴) unless --quick. Every
   timed arm is guarded by its bitwise-parity contract (compiled ==
   naive; streamed yield identical across domain counts); a violation
   fails the bench with exit 1, so this scenario doubles as the
   serving-parity smoke for CI. *)

(* A realistic serving model over the quadratic dictionary: the paper's
   fits select a few dozen terms concentrated on a small set of strong
   factors, which is exactly what makes Hermite-table sharing pay. Keep
   every term whose variables all lie in the first [nvars] factors, then
   subsample [nnz] of them. *)
let make_model rng basis ~nvars ~nnz =
  let m = Polybasis.Basis.size basis in
  let local = ref [] in
  for j = m - 1 downto 0 do
    let term = Polybasis.Basis.term basis j in
    if Array.for_all (fun (v, _) -> v < nvars) term then local := j :: !local
  done;
  let local = Array.of_list !local in
  let support = Randkit.Sampling.subsample rng local (min nnz (Array.length local)) in
  Array.sort compare support;
  let coeffs =
    Array.map (fun _ -> 0.2 +. Randkit.Gaussian.sample rng) support
  in
  Rsm.Model.make ~basis_size:m ~support ~coeffs

let run ~quick ~domains () =
  let domains =
    match domains with Some d -> d | None -> Parallel.Pool.default_domains ()
  in
  let n = if quick then 60 else 316 in
  let k = if quick then 20_000 else 100_000 in
  let nnz = 40 and nvars = 12 in
  let reps = if quick then 3 else 5 in
  let basis = Polybasis.Basis.quadratic n in
  let m = Polybasis.Basis.size basis in
  let rng = Randkit.Prng.create 61 in
  let model = make_model rng basis ~nvars ~nnz in
  let tape = Serve.Eval.compile model basis in
  Printf.printf
    "\n=== Serving scenario: M=%d (quadratic n=%d), nnz=%d on %d variables, \
     %d points (%d domain%s) ===\n%!"
    m n (Rsm.Model.nnz model)
    (Serve.Eval.vars_touched tape)
    k domains
    (if domains = 1 then "" else "s");
  let points = Array.init k (fun _ -> Randkit.Gaussian.vector rng n) in
  let pool = Parallel.Pool.create ~domains () in
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.printf "PARITY FAILURE: %s\n%!" name
    end
  in
  (* Parity gates before any timing: all compiled arms must reproduce
     the naive walk bit for bit. *)
  let naive_out = Array.map (Rsm.Model.predict_point model basis) points in
  let seq_out = Serve.Eval.eval_batch tape points in
  let par_out = Serve.Eval.eval_batch ~pool tape points in
  check "compiled (sequential) == naive (bitwise)" (seq_out = naive_out);
  check
    (Printf.sprintf "compiled (%d domains) == naive (bitwise)" domains)
    (par_out = naive_out);
  let scratch = Serve.Eval.make_scratch tape in
  check "compiled scalar == naive (bitwise)"
    (Array.for_all2
       (fun p v -> Serve.Eval.eval_with tape scratch p = v)
       points naive_out);
  (* Timed arms. *)
  let naive_s =
    Bench_util.median_of ~reps (fun () ->
        ignore (Array.map (Rsm.Model.predict_point model basis) points))
  in
  let seq_s =
    Bench_util.median_of ~reps (fun () ->
        ignore (Serve.Eval.eval_batch tape points))
  in
  let par_s =
    Bench_util.median_of ~reps (fun () ->
        ignore (Serve.Eval.eval_batch ~pool tape points))
  in
  let rate s = float_of_int k /. s in
  Printf.printf
    "naive                %8.1f ms  %10.3g evals/s\n\
     compiled (1 domain)  %8.1f ms  %10.3g evals/s  (%.1fx naive)\n\
     compiled (%d domains) %7.1f ms  %10.3g evals/s  (%.1fx naive)\n%!"
    (1e3 *. naive_s) (rate naive_s) (1e3 *. seq_s) (rate seq_s)
    (naive_s /. seq_s) domains (1e3 *. par_s) (rate par_s) (naive_s /. par_s);
  (* Streamed yield: convergence curve, with the cross-domain bitwise
     gate on the largest rung. *)
  let spec = Rsm.Yield.spec_both ~lower:(-3.) ~upper:3. in
  let rungs =
    if quick then [ 2_000; 20_000; 200_000 ]
    else [ 10_000; 100_000; 1_000_000; 10_000_000 ]
  in
  let curve =
    List.map
      (fun samples ->
        let e, t =
          let t0 = Unix.gettimeofday () in
          let e =
            Serve.Stream.estimate ~pool ~samples tape
              (Randkit.Prng.create 71) spec
          in
          (e, Unix.gettimeofday () -. t0)
        in
        Printf.printf
          "yield @ %9d samples: %.5f +/- %.5f  (%.3g evals/s streamed)\n%!"
          samples e.Serve.Stream.yield e.Serve.Stream.std_error
          (float_of_int samples /. t);
        (samples, e, t))
      rungs
  in
  (* Cross-domain bitwise gate: a mid-size stream is enough to catch
     any batch/chunk misalignment; the big rungs above are for the
     convergence curve, not the gate. *)
  let top = min (List.nth rungs (List.length rungs - 1)) 200_000 in
  let stream_at d =
    Parallel.Pool.with_pool ~domains:d (fun p ->
        Serve.Stream.estimate ~pool:p ~samples:top tape
          (Randkit.Prng.create 71) spec)
  in
  let e1 = stream_at 1 in
  List.iter
    (fun d ->
      let ed = stream_at d in
      check
        (Printf.sprintf "streamed yield bitwise identical at 1 vs %d domains" d)
        (ed.Serve.Stream.yield = e1.Serve.Stream.yield
        && ed.Serve.Stream.mean = e1.Serve.Stream.mean
        && ed.Serve.Stream.std = e1.Serve.Stream.std
        && ed.Serve.Stream.pass = e1.Serve.Stream.pass))
    [ 2; 4 ];
  (* --- sampling engine: normals/s and support-projected streaming ---
     Input generation is the serving bottleneck: every point above paid
     n polar normals while the tape reads only [vars_touched] of them.
     Time the raw samplers, then the streamed yield with the
     counter-mode ziggurat drawing (a) every coordinate and (b) only
     the touched ones — the latter two must agree bit for bit. *)
  let nnorm = if quick then 500_000 else 5_000_000 in
  let buf = Array.make n 0. in
  let fills = max 1 (nnorm / n) in
  let polar_norm_s =
    Bench_util.median_of ~reps (fun () ->
        let g = Randkit.Prng.create 91 in
        for _ = 1 to fills do
          Randkit.Gaussian.fill g buf
        done)
  in
  let zig_norm_s =
    Bench_util.median_of ~reps (fun () ->
        let g = Randkit.Prng.create 91 in
        for _ = 1 to fills do
          Randkit.Ziggurat.fill g buf
        done)
  in
  let ctr_norm_s =
    Bench_util.median_of ~reps (fun () ->
        let key = Randkit.Counter.create 91 in
        for p = 0 to fills - 1 do
          let pk = Randkit.Counter.at key p in
          for c = 0 to n - 1 do
            buf.(c) <- Randkit.Ziggurat.normal_at pk ~coord:c
          done
        done)
  in
  (* The serving kernel: the same counter draws, one [fill_at] call per
     point. *)
  let all = Array.init n Fun.id in
  let fill_norm_s =
    Bench_util.median_of ~reps (fun () ->
        let key = Randkit.Counter.create 91 in
        for p = 0 to fills - 1 do
          Randkit.Ziggurat.fill_at (Randkit.Counter.at key p) ~coords:all buf
        done)
  in
  let last = Randkit.Counter.at (Randkit.Counter.create 91) (fills - 1) in
  check "fill_at == normal_at per coordinate (bitwise)"
    (Array.for_all
       (fun c ->
         Int64.bits_of_float buf.(c)
         = Int64.bits_of_float (Randkit.Ziggurat.normal_at last ~coord:c))
       all);
  let nrate s = float_of_int (fills * n) /. s in
  Printf.printf
    "normals/s            polar %10.3g   ziggurat %10.3g   counter-ziggurat \
     %10.3g   counter fill kernel %10.3g\n%!"
    (nrate polar_norm_s) (nrate zig_norm_s) (nrate ctr_norm_s)
    (nrate fill_norm_s);
  let ysamples = if quick then 50_000 else 200_000 in
  let timed_estimate ~sampler ~project =
    let t0 = Unix.gettimeofday () in
    let e =
      Serve.Stream.estimate ~pool ~sampler ~project ~samples:ysamples tape
        (Randkit.Prng.create 71) spec
    in
    (e, Unix.gettimeofday () -. t0)
  in
  let e_polar, t_polar =
    timed_estimate ~sampler:Randkit.Gaussian.Polar ~project:false
  in
  let e_zfull, t_zfull =
    timed_estimate ~sampler:Randkit.Gaussian.Ziggurat ~project:false
  in
  let e_zproj, t_zproj =
    timed_estimate ~sampler:Randkit.Gaussian.Ziggurat ~project:true
  in
  check "projected == full-draw ziggurat estimate (bitwise)"
    (e_zproj = e_zfull);
  check "ziggurat vs polar estimates statistically consistent"
    (abs_float (e_zproj.Serve.Stream.yield -. e_polar.Serve.Stream.yield)
    < 6.
      *. (e_zproj.Serve.Stream.std_error +. e_polar.Serve.Stream.std_error
         +. 1e-9));
  let zig_at d =
    Parallel.Pool.with_pool ~domains:d (fun p ->
        Serve.Stream.estimate ~pool:p ~sampler:Randkit.Gaussian.Ziggurat
          ~samples:ysamples tape (Randkit.Prng.create 71) spec)
  in
  let z1 = zig_at 1 in
  List.iter
    (fun d ->
      check
        (Printf.sprintf
           "projected ziggurat yield bitwise identical at 1 vs %d domains" d)
        (zig_at d = z1))
    [ 2; 4 ];
  let yrate t = float_of_int ysamples /. t in
  Printf.printf
    "streamed yield       polar+full %8.3g evals/s   ziggurat+full %8.3g \
     evals/s   ziggurat+projected %8.3g evals/s (%.1fx polar, %d of %d \
     coords)\n%!"
    (yrate t_polar) (yrate t_zfull) (yrate t_zproj) (t_polar /. t_zproj)
    (Serve.Eval.vars_touched tape)
    n;
  Parallel.Pool.shutdown pool;
  let payload =
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"m\": %d, \"n\": %d, \"nnz\": %d, \"vars_touched\": %d, \
          \"points\": %d, \"domains\": %d, \"naive_evals_s\": %.0f, \
          \"compiled_seq_evals_s\": %.0f, \"compiled_par_evals_s\": %.0f, \
          \"speedup_seq\": %.2f, \"speedup_par\": %.2f, \"yield_curve\": ["
         m n (Rsm.Model.nnz model)
         (Serve.Eval.vars_touched tape)
         k domains (rate naive_s) (rate seq_s) (rate par_s) (naive_s /. seq_s)
         (naive_s /. par_s));
    List.iteri
      (fun i (samples, e, t) ->
        Buffer.add_string b
          (Printf.sprintf
             "%s{\"samples\": %d, \"yield\": %.6f, \"se\": %.6f, \
              \"evals_s\": %.0f}"
             (if i = 0 then "" else ", ")
             samples e.Serve.Stream.yield e.Serve.Stream.std_error
             (float_of_int samples /. t)))
      curve;
    Buffer.add_string b
      (Printf.sprintf
         "], \"sampling\": {\"normals_per_s\": {\"polar\": %.0f, \
          \"ziggurat\": %.0f, \"ziggurat_counter\": %.0f, \
          \"ziggurat_counter_fill\": %.0f}, \"yield\": \
          {\"samples\": %d, \"polar_full_evals_s\": %.0f, \
          \"ziggurat_full_evals_s\": %.0f, \"ziggurat_projected_evals_s\": \
          %.0f, \"projected_speedup_vs_polar\": %.2f, \"coords_drawn\": %d}}"
         (nrate polar_norm_s) (nrate zig_norm_s) (nrate ctr_norm_s)
         (nrate fill_norm_s) ysamples
         (yrate t_polar) (yrate t_zfull) (yrate t_zproj) (t_polar /. t_zproj)
         (Serve.Eval.vars_touched tape));
    Buffer.add_string b
      (Printf.sprintf ", \"parity_failures\": %d}" !failures);
    Buffer.contents b
  in
  Bench_util.update_summary ~scenario:"eval" ~payload;
  Printf.printf "summary updated in %s\n%!" Bench_util.summary_file;
  if !failures > 0 then begin
    Printf.printf "eval scenario: %d parity failure(s)\n%!" !failures;
    exit 1
  end
