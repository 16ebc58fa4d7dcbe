type plan = { folds : int; assignment : int array }

let make_plan g ~n ~folds =
  { folds; assignment = Randkit.Sampling.fold_assignment g ~n ~folds }

let fold_indices plan q =
  if q < 0 || q >= plan.folds then invalid_arg "Crossval.fold_indices: bad fold";
  Randkit.Sampling.fold_split plan.assignment q

type fold_cache = {
  load : int -> float array option;
  store : int -> float array -> unit;
}

type job = { output : int; fold : int; train : int array; held_out : int array }

type fitter = job array -> finish:(int -> float array -> unit) -> unit

(* Per-job fitting: one pool chunk per job. Each job owns its slot, so
   parallel execution never changes a bit. *)
let each ?pool fit_curve jobs ~finish =
  let n = Array.length jobs in
  let run i = finish i (fit_curve jobs.(i)) in
  match pool with
  | None -> for i = 0 to n - 1 do run i done
  | Some pool -> Parallel.Pool.parallel_for pool ~chunks:n ~lo:0 ~hi:n run

let run_grid ?caches ~outputs plan ~fit =
  if outputs < 1 then invalid_arg "Crossval.run_grid: outputs must be positive";
  let cache_of r =
    match caches with
    | None -> None
    | Some cs ->
        if Array.length cs <> outputs then
          invalid_arg "Crossval.run_grid: cache count mismatch";
        cs.(r)
  in
  (* Cached cells are loaded sequentially, output-major, before any job
     runs, so cache IO never races and the caller's PRNG discipline is
     untouched by a resume. *)
  let cells =
    Array.init outputs (fun r ->
        Array.init plan.folds (fun q ->
            Option.bind (cache_of r) (fun c -> c.load q)))
  in
  let pending = ref [] in
  for r = outputs - 1 downto 0 do
    for q = plan.folds - 1 downto 0 do
      if cells.(r).(q) = None then begin
        let train, held_out = fold_indices plan q in
        pending := { output = r; fold = q; train; held_out } :: !pending
      end
    done
  done;
  let pending = Array.of_list !pending in
  (* A finished job's curve reaches its cache at once, so a run killed
     mid-grid keeps every job that completed before the kill. *)
  let finish i curve =
    let j = pending.(i) in
    Option.iter (fun c -> c.store j.fold curve) (cache_of j.output);
    cells.(j.output).(j.fold) <- Some curve
  in
  if Array.length pending > 0 then fit pending ~finish;
  Array.map
    (Array.map (function
      | Some c -> c
      | None -> invalid_arg "Crossval.run_grid: a job was left unfinished"))
    cells

let fold_curves ?pool plan fit_curve =
  (run_grid ~outputs:1 plan
     ~fit:(each ?pool (fun j -> fit_curve ~train:j.train ~held_out:j.held_out)))
    .(0)

let run ?pool plan ~fit ~error =
  let errs =
    fold_curves ?pool plan (fun ~train ~held_out ->
        [| error (fit ~train) ~held_out |])
  in
  Array.fold_left (fun acc e -> acc +. e.(0)) 0. errs
  /. float_of_int plan.folds

let run_curves ?pool plan ~fit_curve =
  let curves = fold_curves ?pool plan fit_curve in
  let fq = float_of_int plan.folds in
  let acc = Array.map (fun e -> e /. fq) curves.(0) in
  for q = 1 to plan.folds - 1 do
    if Array.length curves.(q) <> Array.length acc then
      invalid_arg
        "Crossval.run_curves: runs returned curves of different lengths";
    Array.iteri (fun i e -> acc.(i) <- acc.(i) +. (e /. fq)) curves.(q)
  done;
  acc

let argmin curve =
  if Array.length curve = 0 then invalid_arg "Crossval.argmin: empty curve";
  let best = ref 0 and best_v = ref Float.infinity in
  Array.iteri
    (fun i v ->
      if (not (Float.is_nan v)) && v < !best_v then begin
        best := i;
        best_v := v
      end)
    curve;
  !best
