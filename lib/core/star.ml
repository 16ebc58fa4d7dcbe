open Linalg
module Provider = Polybasis.Design.Provider

type step = {
  index : int;
  coefficient : float;
  residual_norm : float;
  model : Model.t;
}

(* Per-step state machine behind [path_p] — same role as [Omp.Engine]:
   the fused CV driver in [Select] runs Q fold engines in lockstep with
   one fused multi-residual sweep per round. [advance] runs exactly the
   historical loop body, so the fused drive is bitwise identical. *)
module Engine = struct
  type t = {
    k : int;
    m : int;
    kf : float;
    tol : float;
    max_lambda : int;
    f : Vec.t;
    selected : bool array;
    cache : Provider.Cache.t;
    mutable support_rev : int list;
    mutable coeffs_rev : float list;
    res : Vec.t;
    mutable steps_rev : step list;
    mutable stop : bool;
    mutable initial_corr : float;
    mutable p : int;
  }

  let create ?(tol = 1e-12) src f ~max_lambda =
    let k = Provider.rows src and m = Provider.cols src in
    if Array.length f <> k then
      invalid_arg "Star.path: response length mismatch";
    if max_lambda <= 0 then
      invalid_arg "Star.path: max_lambda must be positive";
    if max_lambda > m then
      invalid_arg "Star.path: max_lambda exceeds basis size";
    {
      k;
      m;
      kf = float_of_int k;
      tol;
      max_lambda;
      f;
      selected = Array.make m false;
      cache = Provider.Cache.create src;
      support_rev = [];
      coeffs_rev = [];
      res = Array.copy f;
      steps_rev = [];
      stop = false;
      initial_corr = 0.;
      p = 0;
    }

  let size t = t.p
  let finished t = t.stop || t.p >= t.max_lambda
  let residual t = t.res
  let skip_mask t = t.selected
  let scale t = t.initial_corr
  let column t j = Provider.Cache.column t.cache j
  let support_newest_last t = Array.of_list (List.rev t.support_rev)
  let steps t = Array.of_list (List.rev t.steps_rev)

  (* Accept column [j]: matching-pursuit coefficient from the current
     residual, subtract its contribution. The exact operation order is
     shared by live selection and checkpoint replay, so a resumed path
     reproduces an uninterrupted run bit for bit. *)
  let accept t j =
    let colj = Provider.Cache.column t.cache j in
    let alpha = Vec.dot colj t.res /. t.kf in
    t.selected.(j) <- true;
    t.support_rev <- j :: t.support_rev;
    t.coeffs_rev <- alpha :: t.coeffs_rev;
    t.p <- t.p + 1;
    for i = 0 to t.k - 1 do
      t.res.(i) <- t.res.(i) -. (alpha *. Array.unsafe_get colj i)
    done;
    alpha

  let make_model t =
    Model.make ~basis_size:t.m
      ~support:(Array.of_list t.support_rev)
      ~coeffs:(Array.of_list t.coeffs_rev)

  (* Apply one selection; [Some alpha] when a step was recorded. *)
  let advance t (best, best_abs) =
    if finished t then None
    else begin
      if t.p = 0 then t.initial_corr <- best_abs;
      if best < 0 || best_abs <= t.tol *. Float.max t.initial_corr 1. then begin
        t.stop <- true;
        None
      end
      else begin
        (* Coefficient taken directly from the eq. (18) estimator —
           no re-fit of previously selected coefficients. The selected
           column is materialized once and reused for the residual
           update. *)
        let alpha = accept t best in
        t.steps_rev <-
          {
            index = best;
            coefficient = alpha;
            residual_norm = Vec.nrm2 t.res;
            model = make_model t;
          }
          :: t.steps_rev;
        if Vec.nrm2 t.res <= 1e-14 *. Float.max (Vec.nrm2 t.f) 1. then
          t.stop <- true;
        Some alpha
      end
    end

  let replay t ~scale support =
    if Array.length support > t.max_lambda then
      invalid_arg "Star.path: checkpoint support exceeds max_lambda";
    t.initial_corr <- scale;
    let last_alpha = ref 0. and last_j = ref (-1) in
    Array.iter
      (fun j ->
        if t.selected.(j) then
          invalid_arg "Star.path: duplicate support index in checkpoint";
        last_alpha := accept t j;
        last_j := j)
      support;
    if t.p > 0 then begin
      let rn = Vec.nrm2 t.res in
      t.steps_rev <-
        [
          {
            index = !last_j;
            coefficient = !last_alpha;
            residual_norm = rn;
            model = make_model t;
          };
        ];
      if rn <= 1e-14 *. Float.max (Vec.nrm2 t.f) 1. then t.stop <- true
    end
end

let path_p ?tol ?pool ?(checkpoint_every = 0) ?on_checkpoint ?resume
    ?(sweep = Corr_sweep.Exact) ?(shards = 1)
    ?(shard_mode = Shard_sweep.Domains) ?recovered src f ~max_lambda =
  if checkpoint_every < 0 then
    invalid_arg "Star.path: negative checkpoint interval";
  if shards < 1 then invalid_arg "Star.path: shards must be positive";
  let eng = Engine.create ?tol src f ~max_lambda in
  let k = eng.Engine.k and m = eng.Engine.m in
  (match resume with
  | None -> ()
  | Some c ->
      let open Serialize.Checkpoint in
      if c.solver <> "star" then
        invalid_arg
          (Printf.sprintf "Star.path: checkpoint is for solver %S" c.solver);
      if c.k <> k || c.m <> m then
        invalid_arg
          (Printf.sprintf
             "Star.path: checkpoint shape %dx%d disagrees with problem %dx%d"
             c.k c.m k m);
      Engine.replay eng ~scale:c.scale c.support);
  (* Backend started after any resume replay (see Omp.path_p). *)
  Shard_sweep.run ?pool ?recovered ~mode:shard_mode ~shards ~sweep src
    ~r0:(Engine.residual eng)
  @@ fun sh ->
  let activate j = Shard_sweep.activate sh j (Engine.column eng j) in
  Array.iter activate (Engine.support_newest_last eng);
  let stepped, finish =
    Shard_sweep.checkpoints sh ~every:checkpoint_every ~on_checkpoint
      ~capture:(fun () ->
        (* Selection order, newest last — the replay order. *)
        {
          Serialize.Checkpoint.solver = "star";
          k;
          m;
          scale = Engine.scale eng;
          support = Engine.support_newest_last eng;
        })
      ~residual:(fun () -> Engine.residual eng)
      ~start:(Engine.size eng)
  in
  while not (Engine.finished eng) do
    let pick = Shard_sweep.select sh ~r:(Engine.residual eng) in
    match Engine.advance eng pick with
    | None -> ()
    | Some alpha ->
        let best = fst pick in
        activate best;
        (* Matching pursuit never revisits coefficients: the only delta
           this step is α on the entering column. *)
        Shard_sweep.apply_deltas sh [| (best, alpha) |]
          ~residual:(fun () -> Engine.residual eng);
        stepped (Engine.size eng)
  done;
  (* Terminal checkpoint, as in Omp.path_p. *)
  finish (Engine.size eng);
  Engine.steps eng

let fit_p ?tol ?pool ?checkpoint_every ?on_checkpoint ?resume ?sweep ?shards
    ?shard_mode ?recovered src f ~lambda =
  let steps =
    path_p ?tol ?pool ?checkpoint_every ?on_checkpoint ?resume ?sweep ?shards
      ?shard_mode ?recovered src f ~max_lambda:lambda
  in
  if Array.length steps = 0 then
    Model.make ~basis_size:(Provider.cols src) ~support:[||] ~coeffs:[||]
  else steps.(Array.length steps - 1).model

let path ?tol ?pool g f ~max_lambda =
  path_p ?tol ?pool (Provider.dense g) f ~max_lambda

let fit ?tol ?pool g f ~lambda = fit_p ?tol ?pool (Provider.dense g) f ~lambda
