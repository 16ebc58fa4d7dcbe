(* Allocation gates for the dense design provider and the serving
   loop, as deterministic word counters rather than timings. CV folds
   and held-out sets are row-mapped views of one design matrix, so
   taking a fold costs O(|rows|) words and a whole cross-validated OMP
   fit allocates less than one more copy of the K×M matrix. The builder
   writes entries without boxing them. A streamed yield estimate draws
   and evaluates its points without boxing a normal or a Hermite value.
   Everything runs on a one-domain pool, so every word is allocated —
   and counted — on this domain. *)

module P = Polybasis.Design.Provider

(* Words allocated by this domain: minor words from [Gc.minor_words]
   (the minor count of [Gc.counters] is in the wrong unit on OCaml
   5.1), plus direct major allocations. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let words f =
  let a0 = allocated () in
  let r = f () in
  (r, allocated () -. a0)

let failures = ref 0

let gate name ~words:w ~bound =
  let ok = w < bound in
  Printf.printf "%-48s %10.0f words (bound %10.0f) %s\n" name w bound
    (if ok then "ok" else "FAIL");
  if not ok then incr failures

let () =
  let k = 200 and dim = 40 in
  let basis = Polybasis.Basis.quadratic dim in
  let m = Polybasis.Basis.size basis in
  let km = float_of_int (k * m) in
  let rng = Randkit.Prng.create 7 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng dim) in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      (* Builder: the K·M entries plus per-row Hermite tables, never a
         boxed float per entry. Warmed up once so one-off heap growth
         is not counted. *)
      ignore (Polybasis.Design.matrix_rows ~pool basis pts);
      let g, w = words (fun () -> Polybasis.Design.matrix_rows ~pool basis pts) in
      gate "matrix_rows: K·M entries, no per-entry boxing" ~words:w
        ~bound:(km +. float_of_int (k * dim * 4) +. (16. *. float_of_int m));
      let src = P.dense g in
      let idx = Array.init (3 * k / 4) (fun i -> (4 * i / 3) + 1) in
      let n = float_of_int (Array.length idx) in
      let _, w = words (fun () -> P.select_rows src idx) in
      gate "select_rows: O(|idx|), not O(|idx|·M)" ~words:w
        ~bound:((4. *. n) +. 256.);
      let view = P.select_rows src idx in
      let _, w = words (fun () -> P.select_rows view [| 0; 5; 9 |]) in
      gate "select_rows of a view: O(|idx|)" ~words:w ~bound:256.;
      let _, w = words (fun () -> P.window view ~jlo:3 ~jhi:(m - 2)) in
      gate "window of a view: O(1)" ~words:w ~bound:64.;
      let f =
        Array.init k (fun i ->
            Linalg.Mat.get g i 1 -. (0.5 *. Linalg.Mat.get g i (m - 1)))
      in
      let cv () =
        Rsm.Select.omp_p ~folds:4 ~pool (Randkit.Prng.create 11) ~max_lambda:4
          src f
      in
      ignore (cv ());
      let _, w = words cv in
      gate "4-fold Select.omp_p: less than one K·M matrix" ~words:w ~bound:km;
      (* Serving: a model touching 316 variables, streamed through the
         counter-mode sampler projected onto them. The words per sample
         must stay far below one per normal drawn. *)
      let vars = 316 and samples = 100_000 in
      let lin = Polybasis.Basis.constant_linear vars in
      let size = Polybasis.Basis.size lin in
      let model =
        Rsm.Model.make ~basis_size:size ~support:(Array.init size Fun.id)
          ~coeffs:(Array.init size (fun j -> 1. /. float_of_int (j + 1)))
      in
      let tape = Serve.Eval.compile model lin in
      let spec = Rsm.Yield.spec_both ~lower:(-1.) ~upper:1. in
      let serve () =
        Serve.Stream.estimate ~pool ~sampler:Randkit.Gaussian.Ziggurat
          ~project:true ~samples tape (Randkit.Prng.create 5) spec
      in
      ignore (serve ());
      let _, w = words serve in
      gate "Stream.estimate: 10⁵ projected samples, 316 vars" ~words:w
        ~bound:(float_of_int (samples * ((vars / 4) + 16))));
  if !failures > 0 then begin
    Printf.printf "%d allocation gate(s) failed\n" !failures;
    exit 1
  end
