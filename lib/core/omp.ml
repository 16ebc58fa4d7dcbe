open Linalg
module Provider = Polybasis.Design.Provider

type step = {
  index : int;
  correlation : float;
  residual_norm : float;
  model : Model.t;
}

(* The per-step state machine behind [path_p], exposed so the fused CV
   driver in [Select] can run Q fold solvers in lockstep: each round it
   computes all Q selections with one fused multi-residual sweep and
   feeds them to [advance]. [advance] applies exactly the statements the
   historical loop body ran, in the same order, so driving an engine
   with selections from [Corr_sweep.argmax_abs] reproduces the
   monolithic loop bit for bit. *)
module Engine = struct
  type t = {
    k : int;
    m : int;
    tol : float;
    on_singular : [ `Stop | `Fallback ];
    max_lambda : int;
    f : Vec.t;
    selected : bool array;
    support : int array;
    rhs : float array;
    (* Gram factor of the selected columns, grown one column per step. *)
    chol : Cholesky.Grow.t;
    (* Active-set columns are touched every remaining iteration (cross
       products, re-fit residual); cache them once materialized — λ
       columns of K floats, never the full matrix. *)
    cache : Provider.Cache.t;
    res : Vec.t;
    mutable steps_rev : step list;
    mutable stop : bool;
    mutable initial_corr : float;
    mutable p : int;
    (* Once the Gram factor went non-SPD and `Fallback was requested,
       the incremental factor is abandoned and every re-fit runs the
       Refit ladder over the cached active columns; the rung that fired
       is recorded in the step's model notes. Clean paths never enter
       this mode, so their bits are untouched. *)
    mutable degraded : bool;
    mutable fallback_note : string option;
    mutable coeffs : float array;
  }

  let create ?(tol = 1e-12) ?(on_singular = `Stop) src f ~max_lambda =
    let k = Provider.rows src and m = Provider.cols src in
    if Array.length f <> k then
      invalid_arg "Omp.path: response length mismatch";
    if max_lambda <= 0 then invalid_arg "Omp.path: max_lambda must be positive";
    if max_lambda > min k m then
      invalid_arg "Omp.path: max_lambda exceeds min(samples, basis size)";
    {
      k;
      m;
      tol;
      on_singular;
      max_lambda;
      f;
      selected = Array.make m false;
      support = Array.make (max max_lambda 1) 0;
      rhs = Array.make (max max_lambda 1) 0.;
      chol = Cholesky.Grow.create (max max_lambda 1);
      cache = Provider.Cache.create src;
      res = Array.copy f;
      steps_rev = [];
      stop = false;
      initial_corr = 0.;
      p = 0;
      degraded = false;
      fallback_note = None;
      coeffs = [||];
    }

  let size t = t.p
  let finished t = t.stop || t.p >= t.max_lambda
  let residual t = t.res
  let skip_mask t = t.selected
  let support t = Array.sub t.support 0 t.p
  let coeffs t = t.coeffs
  let scale t = t.initial_corr
  let column t j = Provider.Cache.column t.cache j
  let steps t = Array.of_list (List.rev t.steps_rev)

  (* Accept column [j]: extend the Gram factor (or enter degraded mode),
     record support and right-hand side. Returns false when the path
     must stop instead ([`Stop] on a dependent column). Shared by live
     selection and checkpoint replay so both degrade identically. *)
  let accept t j =
    let ok =
      if t.degraded then true
      else begin
        let cross =
          Array.init t.p (fun q ->
              Provider.Cache.col_col_dot t.cache t.support.(q) j)
        in
        let diag = Provider.Cache.col_col_dot t.cache j j in
        match Cholesky.Grow.append t.chol cross diag with
        | () -> true
        | exception Cholesky.Not_positive_definite _ -> (
            (* Column linearly dependent on the selected set: the plain
               LS re-fit would be singular. *)
            match t.on_singular with
            | `Stop -> false
            | `Fallback ->
                t.degraded <- true;
                true)
      end
    in
    if ok then begin
      t.support.(t.p) <- j;
      t.selected.(j) <- true;
      t.rhs.(t.p) <- Provider.Cache.col_dot t.cache j t.f;
      t.p <- t.p + 1
    end;
    ok

  (* Step 6: re-fit all selected coefficients (eq. (22)) — through the
     incremental factor normally, through the fallback ladder once
     degraded. *)
  let refit_coeffs t =
    if not t.degraded then Cholesky.Grow.solve t.chol (Array.sub t.rhs 0 t.p)
    else begin
      let cols =
        Array.map (Provider.Cache.column t.cache) (Array.sub t.support 0 t.p)
      in
      let coeffs, fb = Refit.solve_cols cols t.f in
      t.fallback_note <- Refit.note fb;
      coeffs
    end

  let make_model t coeffs =
    let model =
      Model.make ~basis_size:t.m ~support:(Array.sub t.support 0 t.p) ~coeffs
    in
    match t.fallback_note with
    | None -> model
    | Some note -> Model.add_note model note

  let residual_refresh t coeffs =
    let sub = Array.sub t.support 0 t.p in
    let cols = Array.map (Provider.Cache.column t.cache) sub in
    let new_res = Lstsq.residual_cols cols coeffs t.f in
    Array.blit new_res 0 t.res 0 t.k

  (* Apply one selection (the [Corr_sweep.argmax_abs] result on this
     engine's residual). Returns true when a step was recorded — false
     means the path stopped without moving. *)
  let advance t (best, best_abs) =
    if finished t then false
    else begin
      if t.p = 0 then t.initial_corr <- best_abs;
      if best < 0 || best_abs <= t.tol *. Float.max t.initial_corr 1. then begin
        t.stop <- true;
        false
      end
      else if not (accept t best) then begin
        t.stop <- true;
        false
      end
      else begin
        let coeffs = refit_coeffs t in
        (* Step 7: fresh residual from the re-fitted model, applied over
           the cached support columns. *)
        residual_refresh t coeffs;
        t.coeffs <- coeffs;
        t.steps_rev <-
          {
            index = best;
            correlation = best_abs /. float_of_int t.k;
            residual_norm = Vec.nrm2 t.res;
            model = make_model t coeffs;
          }
          :: t.steps_rev;
        if Vec.nrm2 t.res <= 1e-14 *. Float.max (Vec.nrm2 t.f) 1. then
          t.stop <- true;
        true
      end
    end

  (* Resume: replay checkpointed selections without the O(K·M)
     correlation sweeps, then run one re-fit and residual refresh —
     bitwise the state an uninterrupted run had after the same steps. *)
  let replay t ~scale support =
    if Array.length support > t.max_lambda then
      invalid_arg "Omp.path: checkpoint support exceeds max_lambda";
    t.initial_corr <- scale;
    Array.iter
      (fun j ->
        if t.selected.(j) then
          invalid_arg "Omp.path: duplicate support index in checkpoint";
        if not (accept t j) then
          invalid_arg
            "Omp.path: checkpoint replays a singular step (was it written \
             with ~on_singular:`Fallback?)")
      support;
    if t.p > 0 then begin
      let coeffs = refit_coeffs t in
      residual_refresh t coeffs;
      t.coeffs <- coeffs;
      let rn = Vec.nrm2 t.res in
      t.steps_rev <-
        [
          {
            index = t.support.(t.p - 1);
            correlation = 0.;
            residual_norm = rn;
            model = make_model t coeffs;
          };
        ];
      if rn <= 1e-14 *. Float.max (Vec.nrm2 t.f) 1. then t.stop <- true
    end
end

let path_p ?tol ?pool ?on_singular ?(checkpoint_every = 0) ?on_checkpoint
    ?resume ?(sweep = Corr_sweep.Exact) ?(shards = 1)
    ?(shard_mode = Shard_sweep.Domains) ?recovered src f ~max_lambda =
  if checkpoint_every < 0 then
    invalid_arg "Omp.path: negative checkpoint interval";
  if shards < 1 then invalid_arg "Omp.path: shards must be positive";
  let eng = Engine.create ?tol ?on_singular src f ~max_lambda in
  let k = eng.Engine.k and m = eng.Engine.m in
  (match resume with
  | None -> ()
  | Some c ->
      let open Serialize.Checkpoint in
      if c.solver <> "omp" then
        invalid_arg
          (Printf.sprintf "Omp.path: checkpoint is for solver %S" c.solver);
      if c.k <> k || c.m <> m then
        invalid_arg
          (Printf.sprintf
             "Omp.path: checkpoint shape %dx%d disagrees with problem %dx%d"
             c.k c.m k m);
      Engine.replay eng ~scale:c.scale c.support);
  (* The sweep backend starts after any resume replay, so its
     (incremental) initial sweep sees the resumed residual — the refresh
     point the uninterrupted run hit when it emitted the checkpoint.
     Replayed support columns are activated up front: the first live
     delta update touches every support coefficient. *)
  Shard_sweep.run ?pool ?recovered ~mode:shard_mode ~shards ~sweep src
    ~r0:(Engine.residual eng)
  @@ fun sh ->
  let activate j = Shard_sweep.activate sh j (Engine.column eng j) in
  Array.iter activate (Engine.support eng);
  let stepped, finish =
    Shard_sweep.checkpoints sh ~every:checkpoint_every ~on_checkpoint
      ~capture:(fun () ->
        {
          Serialize.Checkpoint.solver = "omp";
          k;
          m;
          scale = Engine.scale eng;
          support = Engine.support eng;
        })
      ~residual:(fun () -> Engine.residual eng)
      ~start:(Engine.size eng)
  in
  let prev_coeffs = ref (Engine.coeffs eng) in
  while not (Engine.finished eng) do
    (* Step 3: inner products of the residual with every basis vector.
       The 1/K factor of eq. (18) is a monotone scaling; the argmax is
       unaffected, so we keep raw dot products. *)
    let pick = Shard_sweep.select sh ~r:(Engine.residual eng) in
    if Engine.advance eng pick then begin
      let sup = Engine.support eng and cur = Engine.coeffs eng in
      let prev = !prev_coeffs in
      activate sup.(Array.length sup - 1);
      (* The re-fit moved every support coefficient. *)
      Shard_sweep.apply_deltas sh
        (Array.mapi
           (fun q j ->
             (j, cur.(q) -. if q < Array.length prev then prev.(q) else 0.))
           sup)
        ~residual:(fun () -> Engine.residual eng);
      prev_coeffs := cur;
      stepped (Engine.size eng)
    end
  done;
  (* Terminal checkpoint: when lambda is not a multiple of the cadence
     the cadence skips the final selections, and a resume would replay
     a stale prefix — always leave the completed support. *)
  finish (Engine.size eng);
  Engine.steps eng

let fit_p ?tol ?pool ?on_singular ?checkpoint_every ?on_checkpoint ?resume
    ?sweep ?shards ?shard_mode ?recovered src f ~lambda =
  let steps =
    path_p ?tol ?pool ?on_singular ?checkpoint_every ?on_checkpoint ?resume
      ?sweep ?shards ?shard_mode ?recovered src f ~max_lambda:lambda
  in
  if Array.length steps = 0 then
    Model.make ~basis_size:(Provider.cols src) ~support:[||] ~coeffs:[||]
  else steps.(Array.length steps - 1).model

let path ?tol ?pool ?on_singular g f ~max_lambda =
  path_p ?tol ?pool ?on_singular (Provider.dense g) f ~max_lambda

let fit ?tol ?pool ?on_singular g f ~lambda =
  fit_p ?tol ?pool ?on_singular (Provider.dense g) f ~lambda
