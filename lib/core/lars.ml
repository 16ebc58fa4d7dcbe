open Linalg
module Provider = Polybasis.Design.Provider

type mode = Lar | Lasso

type step = {
  added : int option;
  dropped : int option;
  max_corr : float;
  model : Model.t;
}

(* Internal working state over unit-normalized columns x_j = G_j/‖G_j‖.
   The normalized columns are never materialized: every x_j operation
   divides by the stored norm on the fly. Active columns are
   materialized once into the per-fit cache (K floats each) — the only
   columns LAR ever touches individually. *)
type state = {
  cache : Provider.Cache.t;
  norms : Vec.t;
  k : int;
  m : int;
  beta : Vec.t;  (* coefficients in normalized scale *)
  mu : Vec.t;  (* current fit G·alpha = X·beta *)
  mutable active : int list;  (* most recently added first *)
  in_active : bool array;
  banned : bool array;  (* dependent columns excluded under `Fallback *)
  mutable notes : string list;  (* degradation events, attached to models *)
  mutable chol : Cholesky.Grow.t;  (* gram factor of active columns, oldest first *)
}

let xxdot st i j =
  Provider.Cache.col_col_dot st.cache i j /. (st.norms.(i) *. st.norms.(j))

(* Active set in insertion (oldest-first) order, matching the Grow factor. *)
let active_oldest_first st = Array.of_list (List.rev st.active)

let append_to_chol st j =
  let act = active_oldest_first st in
  let cross = Array.map (fun i -> xxdot st i j) act in
  Cholesky.Grow.append st.chol cross 1.

let rebuild_chol st =
  let act = active_oldest_first st in
  let cap = min st.k st.m in
  let chol = Cholesky.Grow.create (max cap 1) in
  Array.iteri
    (fun p j ->
      let cross = Array.init p (fun q -> xxdot st act.(q) j) in
      Cholesky.Grow.append chol cross 1.)
    act;
  st.chol <- chol

let current_model st =
  let support = ref [] and coeffs = ref [] in
  for j = st.m - 1 downto 0 do
    if st.beta.(j) <> 0. then begin
      support := j :: !support;
      coeffs := (st.beta.(j) /. st.norms.(j)) :: !coeffs
    end
  done;
  let model =
    Model.make ~basis_size:st.m
      ~support:(Array.of_list !support)
      ~coeffs:(Array.of_list !coeffs)
  in
  List.fold_left Model.add_note model (List.rev st.notes)

module Ckpt = Serialize.Checkpoint.Lars

let mode_tag = function Lar -> "lar" | Lasso -> "lasso"

(* Residual-correlation signs of the active set, oldest first — a
   human-readable state fingerprint stored next to the mu/beta digests.
   The per-column dot over cached columns is bitwise equal to the
   corresponding entry of the live Gᵀ·r sweep. *)
let residual_signs st f =
  let res = Vec.sub f st.mu in
  Array.map
    (fun j ->
      if Provider.Cache.col_dot st.cache j res /. st.norms.(j) >= 0. then 1.
      else -1.)
    (active_oldest_first st)

let banned_columns st =
  let acc = ref [] in
  for j = st.m - 1 downto 0 do
    if st.banned.(j) then acc := j :: !acc
  done;
  Array.of_list !acc

(* Snapshot the walk for persistence: the event log (newest first here)
   plus the derived terminal state used to validate a later replay. *)
let capture st ~mode ~scale ~f events =
  {
    Ckpt.mode = mode_tag mode;
    k = st.k;
    m = st.m;
    scale;
    active = active_oldest_first st;
    signs = residual_signs st f;
    banned = banned_columns st;
    events = Array.of_list (List.rev events);
    notes = Array.of_list (List.rev st.notes);
    mu_digest = Ckpt.digest st.mu;
    beta_digest = Ckpt.digest st.beta;
  }

(* The LAR step, once (Efron et al. 2004): find the entrant, take the
   equiangular direction, take the γ step with an optional lasso drop.
   The step consumes two reductions of the O(K·M) sweeps, never the
   sweeps themselves:

   - correlation phase: a [Shard_sweep.pick] — C over non-banned
     columns, the entrant and its |c|, and the correlations of the
     active columns;
   - direction phase: the γ bound over the inactive columns.

   Three backends produce them. [supply] scans full Gᵀ·v vectors handed
   in from outside (the fused lockstep drivers); [path_p] takes them
   from a [Shard_sweep] backend at any shard count, exact or
   incremental; checkpoint [replay] needs no γ bound at all — it feeds
   the recorded γ and drop to the same direction and advance code. *)
module Engine = struct
  type dir = {
    added : int option;
    act : int array;  (* active set, oldest first *)
    d : float array;  (* coefficient direction, aligned with [act] *)
    u : Vec.t;  (* fit direction Σ d_p·x_{act.(p)} *)
    cc : float;
    a_a : float;
  }

  (* What the next reduction is for: the correlation scan of the
     residual, or the step-length scan of the equiangular direction. *)
  type phase = Corr | Dir of dir | Done

  type t = {
    st : state;
    mode : mode;
    tol : float;
    on_singular : [ `Stop | `Fallback ];
    max_steps : int;
    max_active : int;
    (* Lar mode: the walk halts after the first step whose support
       exceeds this size; [max_int] when uncapped and in Lasso mode. *)
    max_support : int;
    f : Vec.t;
    mutable steps_rev : step list;
    (* One checkpoint event per recorded step, newest first. *)
    mutable events : Ckpt.event list;
    mutable nevents : int;
    mutable initial_c : float;
    mutable nsteps : int;
    mutable stop : bool;
    mutable phase : phase;
    (* [supply] only: the normalized correlations of the last
       correlation sweep, read by the same step's γ scan. *)
    mutable c : Vec.t;
  }

  let validate ?max_support src f ~max_steps =
    if Array.length f <> Provider.rows src then
      invalid_arg "Lars.path: response length mismatch";
    if max_steps <= 0 then invalid_arg "Lars.path: max_steps must be positive";
    match max_support with
    | Some s when s <= 0 -> invalid_arg "Lars.path: max_support must be positive"
    | _ -> ()

  let make ~mode ~tol ~on_singular ?max_support ~norms src f ~max_steps =
    let k = Provider.rows src and m = Provider.cols src in
    Array.iteri
      (fun j n -> if n <= 0. then norms.(j) <- 1. else norms.(j) <- n)
      norms;
    let st =
      {
        cache = Provider.Cache.create src;
        norms;
        k;
        m;
        beta = Array.make m 0.;
        mu = Array.make k 0.;
        active = [];
        in_active = Array.make m false;
        banned = Array.make m false;
        notes = [];
        chol = Cholesky.Grow.create (max (min k m) 1);
      }
    in
    {
      st;
      mode;
      tol;
      on_singular;
      max_steps;
      max_active = min k m;
      max_support =
        (match (mode, max_support) with
        | Lar, Some s -> s
        | Lar, None | Lasso, _ -> max_int);
      f;
      steps_rev = [];
      events = [];
      nevents = 0;
      initial_c = 0.;
      nsteps = 0;
      stop = false;
      phase = Corr;
      c = [||];
    }

  let create ?(mode = Lar) ?(tol = 1e-10) ?pool ?(on_singular = `Stop)
      ?max_support src f ~max_steps =
    validate ?max_support src f ~max_steps;
    make ~mode ~tol ~on_singular ?max_support
      ~norms:(Provider.column_norms ?pool src)
      src f ~max_steps

  let finished t = t.phase = Done
  let residual t = Vec.sub t.f t.st.mu
  let steps t = Array.of_list (List.rev t.steps_rev)

  let request t =
    match t.phase with
    | Corr -> residual t
    | Dir { u; _ } -> u
    | Done -> invalid_arg "Lars.Engine.request: engine is finished"

  (* The loop head: the walk continues only while not stopped and under
     the step budget. *)
  let settle t =
    t.phase <- (if t.stop || t.nsteps >= t.max_steps then Done else Corr)

  let halt t =
    t.stop <- true;
    settle t

  let record t ~added ~banned ~dropped ~gamma ~cc =
    let idx = function Some j -> j | None -> -1 in
    t.steps_rev <-
      { added; dropped; max_corr = cc; model = current_model t.st }
      :: t.steps_rev;
    t.events <-
      { Ckpt.added = idx added; banned; dropped = idx dropped; gamma }
      :: t.events;
    t.nevents <- t.nevents + 1

  (* Correlation lookup over the gathered (column, value) pairs. *)
  let lookup pairs =
    let tbl = Hashtbl.create 16 in
    Array.iter (fun (j, v) -> Hashtbl.replace tbl j v) pairs;
    fun j ->
      match Hashtbl.find_opt tbl j with
      | Some v -> v
      | None -> invalid_arg "Lars.path: internal: correlation not gathered"

  (* C recomputed over the active set (they are all equal up to
     numerical noise; use the max for robustness). *)
  let max_abs_corr act cval =
    Array.fold_left (fun acc j -> Float.max acc (Float.abs (cval j))) 0. act

  let enter st j =
    st.active <- j :: st.active;
    st.in_active.(j) <- true

  let ban_column st j =
    st.banned.(j) <- true;
    st.notes <- Printf.sprintf "lars: banned dependent column %d" j :: st.notes

  (* A ban consumes the iteration without moving. The column that should
     enter instead is usually already at the correlation tie, so its γ
     candidate is ~0 and the scan would reject it — the step would then
     run unbounded past the tie and leave the active set
     non-equicorrelated for good (observed as a 2-cycle that never
     reaches the LS point). Record a zero-length step so the ban lands
     in the path and the event log; the next iteration re-scans without
     the column and hands the step to the true entrant. *)
  let ban_step t j cval =
    record t ~added:None ~banned:j ~dropped:None ~gamma:0.
      ~cc:(max_abs_corr (active_oldest_first t.st) cval)

  (* Equiangular direction: z = Gram⁻¹·s, A = 1/√(sᵀz), coefficient
     direction d_j = A·z_j, fit direction u = Σ d_j x_j. [None] when the
     normalization is not positive. *)
  let direction t ~added cval =
    let st = t.st in
    let act = active_oldest_first st in
    let s = Array.map (fun j -> if cval j >= 0. then 1. else -1.) act in
    let z = Cholesky.Grow.solve st.chol s in
    let sz = Vec.dot s z in
    if sz <= 0. then None
    else begin
      let a_a = 1. /. sqrt sz in
      let d = Array.map (fun zj -> a_a *. zj) z in
      let u = Array.make st.k 0. in
      Array.iteri
        (fun p j ->
          let w = d.(p) /. st.norms.(j) in
          let colj = Provider.Cache.column st.cache j in
          for r = 0 to st.k - 1 do
            u.(r) <- u.(r) +. (w *. Array.unsafe_get colj r)
          done)
        act;
      Some { added; act; d; u; cc = max_abs_corr act cval; a_a }
    end

  (* u as the active-set combination Σ w_p·g_{j_p} over raw columns. *)
  let weights t dir =
    Array.mapi (fun p j -> (j, dir.d.(p) /. t.st.norms.(j))) dir.act

  (* Advance by γ along the direction, then apply the lasso drop (which
     only zeroes an already-crossed coefficient and rebuilds the factor;
     mu does not move again), and record the step. When γ = C/A the
     full-LS endpoint of the active set was reached; the residual is
     then uncorrelated with every active column and the tol test stops
     the next iteration. *)
  let advance t dir ~gamma ~drop =
    let st = t.st in
    Array.iteri
      (fun p j -> st.beta.(j) <- st.beta.(j) +. (gamma *. dir.d.(p)))
      dir.act;
    Vec.axpy gamma dir.u st.mu;
    if drop >= 0 then begin
      st.beta.(drop) <- 0.;
      st.active <- List.filter (fun j -> j <> drop) st.active;
      st.in_active.(drop) <- false;
      match rebuild_chol st with
      | () -> ()
      | exception (Cholesky.Not_positive_definite _ as e) -> (
          match t.on_singular with
          | `Stop -> raise e
          | `Fallback ->
              (* The remaining active Gram factor itself went non-SPD:
                 no usable direction is left; end the path at the last
                 consistent model. *)
              st.notes <-
                "lars: stopped on non-SPD active set after drop" :: st.notes;
              t.stop <- true)
    end;
    record t ~added:dir.added ~banned:(-1)
      ~dropped:(if drop >= 0 then Some drop else None)
      ~gamma ~cc:dir.cc

  (* Correlation phase. C comes from the best column overall; the
     entering variable is the best inactive one, added unless the active
     set is saturated or it is not at the correlation tie (a lasso drop
     just occurred). A linearly dependent entrant is skipped under
     [`Stop] and banned under [`Fallback]. Returns the entry outcome so
     a backend can mirror it. *)
  let corr_step t (p : Shard_sweep.pick) =
    let st = t.st in
    t.nsteps <- t.nsteps + 1;
    if t.nsteps = 1 then t.initial_c <- p.big_c;
    if p.big_c <= t.tol *. Float.max t.initial_c 1. then begin
      halt t;
      `Held
    end
    else begin
      let cval = lookup (Array.append p.act_c [| (p.enter, p.enter_val) |]) in
      let entry =
        if
          p.enter >= 0
          && List.length st.active < t.max_active
          && p.enter_abs >= p.big_c -. (1e-9 *. p.big_c) -. 1e-15
        then
          match append_to_chol st p.enter with
          | () ->
              enter st p.enter;
              `Entered p.enter
          | exception Cholesky.Not_positive_definite _ -> (
              match t.on_singular with
              | `Stop -> `Held
              | `Fallback ->
                  ban_column st p.enter;
                  `Banned p.enter)
        else `Held
      in
      (if st.active = [] then halt t
       else
         match entry with
         | `Banned j ->
             ban_step t j cval;
             settle t
         | `Entered _ | `Held -> (
             let added = match entry with `Entered j -> Some j | _ -> None in
             match direction t ~added cval with
             | None -> halt t
             | Some dir -> t.phase <- Dir dir));
      entry
    end

  (* The support cap. A Lar coefficient, once nonzero, never returns to
     exactly zero, so after a step whose support exceeds [max_support]
     no later step can fit it again. The test is on the support, not on
     the active set: a near-dependent entrant can pass the factor append
     and keep an exactly-zero coefficient, leaving the support smaller
     than the active set. *)
  let cap t =
    let st = t.st in
    if
      List.fold_left
        (fun n j -> if st.beta.(j) <> 0. then n + 1 else n)
        0 st.active
      > t.max_support
    then t.stop <- true

  (* Direction phase: γ is the first crossing — an inactive column
     catching up ([bound]), the saturation step C/A, or (lasso) an
     active coefficient reaching zero at γ = −β_j/d_j. Returns (γ, drop),
     drop = -1 when none. *)
  let dir_step t dir ~bound =
    let gamma = ref (dir.cc /. dir.a_a) in
    if bound < !gamma then gamma := bound;
    let drop = ref (-1) in
    if t.mode = Lasso then
      Array.iteri
        (fun p j ->
          if dir.d.(p) <> 0. then begin
            let gz = -.t.st.beta.(j) /. dir.d.(p) in
            if gz > 1e-12 && gz < !gamma then begin
              gamma := gz;
              drop := j
            end
          end)
        dir.act;
    advance t dir ~gamma:!gamma ~drop:!drop;
    cap t;
    settle t;
    (!gamma, !drop)

  let supply t g =
    let st = t.st in
    match t.phase with
    | Corr ->
        let c, pick =
          Shard_sweep.scan_pick ~base:0 ~norms:st.norms ~active:st.in_active
            ~banned:st.banned g
        in
        t.c <- c;
        ignore (corr_step t pick)
    | Dir dir ->
        ignore
          (dir_step t dir
             ~bound:
               (Shard_sweep.scan_gamma ~norms:st.norms ~active:st.in_active
                  ~banned:st.banned ~c:t.c ~cc:dir.cc ~a_a:dir.a_a g))
    | Done -> invalid_arg "Lars.Engine.supply: engine is finished"

  (* Replay a checkpoint's event log through the step code above. The
     recorded γ and drop replace the two O(K·M) sweeps of every live
     step and the active correlations come from exact per-column dots
     over cached columns (bitwise the entries of a live Gᵀ·r sweep), so
     replay costs O(E·p·K) yet reproduces mu/beta/active/chol and every
     step record bit-for-bit. The terminal digests and sets in the
     checkpoint then guard against resuming with different data, mode or
     [on_singular] policy. *)
  let replay t (ck : Ckpt.t) =
    let st = t.st in
    let fail msg = invalid_arg ("Lars.path: resume: " ^ msg) in
    if ck.Ckpt.k <> st.k || ck.Ckpt.m <> st.m then
      fail
        (Printf.sprintf "checkpoint shape %dx%d disagrees with problem %dx%d"
           ck.Ckpt.k ck.Ckpt.m st.k st.m);
    if ck.Ckpt.mode <> mode_tag t.mode then
      fail
        (Printf.sprintf "checkpoint mode %s disagrees with requested mode %s"
           ck.Ckpt.mode (mode_tag t.mode));
    let exact_corr () =
      let res = residual t in
      lookup
        (Array.map
           (fun j ->
             (j, Provider.Cache.col_dot st.cache j res /. st.norms.(j)))
           (active_oldest_first st))
    in
    Array.iter
      (fun (e : Ckpt.event) ->
        if t.stop then fail "events continue past a terminal state";
        if e.banned >= 0 then begin
          if t.on_singular = `Stop then
            fail
              "checkpoint recorded a banned column (was it written with \
               ~on_singular:`Fallback?)";
          if st.banned.(e.banned) then fail "column banned twice";
          if e.added >= 0 || e.dropped >= 0 || e.gamma <> 0. then
            fail "ban event must be a zero-length step";
          if st.active = [] then fail "ban event with an empty active set";
          ban_column st e.banned;
          ban_step t e.banned (exact_corr ())
        end
        else begin
          if e.added >= 0 then begin
            if st.in_active.(e.added) then fail "column added twice";
            match append_to_chol st e.added with
            | () -> enter st e.added
            | exception Cholesky.Not_positive_definite _ ->
                fail "replayed entering column is linearly dependent"
          end;
          if st.active = [] then fail "step event with an empty active set";
          if e.dropped >= 0 && t.mode <> Lasso then
            fail "drop event outside lasso mode";
          if e.dropped >= 0 && not st.in_active.(e.dropped) then
            fail "replayed drop of an inactive column";
          let added = if e.added >= 0 then Some e.added else None in
          match direction t ~added (exact_corr ()) with
          | None -> fail "non-positive equiangular normalization"
          | Some dir -> (
              try advance t dir ~gamma:e.gamma ~drop:e.dropped
              with Cholesky.Not_positive_definite _ ->
                fail "non-SPD active set after replayed drop")
        end)
      ck.Ckpt.events;
    if active_oldest_first st <> ck.Ckpt.active then
      fail "replayed active set disagrees with the checkpoint";
    if banned_columns st <> ck.Ckpt.banned then
      fail "replayed banned set disagrees with the checkpoint";
    if Array.of_list (List.rev st.notes) <> ck.Ckpt.notes then
      fail "replayed notes disagree with the checkpoint";
    if residual_signs st t.f <> ck.Ckpt.signs then
      fail "replayed correlation signs disagree with the checkpoint";
    if Ckpt.digest st.mu <> ck.Ckpt.mu_digest then
      fail "fit-vector digest mismatch (different data or flags?)";
    if Ckpt.digest st.beta <> ck.Ckpt.beta_digest then
      fail "coefficient digest mismatch (different data or flags?)";
    (* Every non-terminal live iteration records exactly one step, so
       the iteration counter resumes at the event count. *)
    t.nsteps <- t.nevents;
    t.initial_c <- ck.Ckpt.scale;
    cap t;
    settle t
end

let path_p ?(mode = Lar) ?(tol = 1e-10) ?pool ?(on_singular = `Stop)
    ?(checkpoint_every = 0) ?on_checkpoint ?resume
    ?(sweep = Corr_sweep.Exact) ?(shards = 1)
    ?(shard_mode = Shard_sweep.Domains) ?recovered ?max_support src f
    ~max_steps =
  Engine.validate ?max_support src f ~max_steps;
  if checkpoint_every < 0 then
    invalid_arg "Lars.path: negative checkpoint interval";
  if shards < 1 then invalid_arg "Lars.path: shards must be positive";
  (* The backend starts from f: a resume re-sweeps the replayed residual
     below — the same exact refresh the checkpoint emission ran, which
     is what keeps resumed incremental runs bitwise equal to
     uninterrupted ones. *)
  Shard_sweep.run ?pool ?recovered ~mode:shard_mode ~shards ~sweep src ~r0:f
  @@ fun sh ->
  let t =
    Engine.make ~mode ~tol ~on_singular ?max_support
      ~norms:(Shard_sweep.raw_norms sh) src f ~max_steps
  in
  let st = t.Engine.st in
  let column j = Provider.Cache.column st.cache j in
  Option.iter
    (fun ck ->
      Engine.replay t ck;
      Shard_sweep.refresh sh (Engine.residual t);
      List.iter
        (fun j -> Shard_sweep.activate sh j (column j))
        (List.rev st.active);
      Array.iter (Shard_sweep.ban sh) (banned_columns st))
    resume;
  let stepped, finish =
    Shard_sweep.checkpoints sh ~every:checkpoint_every ~on_checkpoint
      ~capture:(fun () ->
        capture st ~mode ~scale:t.Engine.initial_c ~f t.Engine.events)
      ~residual:(fun () -> Engine.residual t)
      ~start:t.Engine.nevents
  in
  while not (Engine.finished t) do
    (match t.Engine.phase with
    | Engine.Corr -> (
        match
          Engine.corr_step t
            (Shard_sweep.lars_select sh ~r:(Engine.residual t))
        with
        | `Entered j -> Shard_sweep.activate sh j (column j)
        | `Banned j -> Shard_sweep.ban sh j
        | `Held -> ())
    | Engine.Dir dir ->
        let bound =
          Shard_sweep.lars_gamma sh ~cc:dir.Engine.cc ~a_a:dir.Engine.a_a
            ~u:dir.Engine.u ~weights:(Engine.weights t dir)
        in
        let gamma, drop = Engine.dir_step t dir ~bound in
        Shard_sweep.commit sh ~gamma ~residual:(fun () -> Engine.residual t);
        if drop >= 0 then Shard_sweep.deactivate sh drop
    | Engine.Done -> ());
    stepped t.Engine.nevents
  done;
  (* Terminal checkpoint: whatever the cadence, a completed path leaves
     a checkpoint of its full event log, so resuming from it replays the
     whole walk rather than a stale prefix. *)
  finish t.Engine.nevents;
  Engine.steps t

let fit_p ?mode ?tol ?pool ?on_singular ?checkpoint_every ?on_checkpoint
    ?resume ?sweep ?shards ?shard_mode ?recovered src f ~lambda =
  if lambda <= 0 then invalid_arg "Lars.fit: lambda must be positive";
  (* Drops can make the path longer than the target support size. *)
  let base_steps = (2 * lambda) + 8 in
  let rec run max_steps =
    let steps =
      path_p ?mode ?tol ?pool ?on_singular ?checkpoint_every ?on_checkpoint
        ?resume ?sweep ?shards ?shard_mode ?recovered ~max_support:lambda src f
        ~max_steps
    in
    let best = ref None in
    Array.iter
      (fun s -> if Model.nnz s.model <= lambda then best := Some s.model)
      steps;
    match !best with
    | Some m -> m
    | None ->
        if Array.length steps >= max_steps && max_steps < 8 * base_steps then
          (* The step budget truncated the path (drops/bans ate it all)
             before any model fit inside the sparsity budget: extend the
             walk rather than silently giving up. Replay from the resume
             checkpoint (when any) is cheap, so re-running the path is
             dominated by the new live steps. *)
          run (2 * max_steps)
        else
          (* Genuinely no qualifying model even with headroom: say so on
             the returned model instead of handing back a bare zero fit. *)
          Model.add_note
            (Model.make ~basis_size:(Provider.cols src) ~support:[||]
               ~coeffs:[||])
            (Printf.sprintf
               "lars: path ended after %d steps with no model of at most %d \
                bases"
               (Array.length steps) lambda)
  in
  run base_steps

let path ?mode ?tol ?pool ?on_singular g f ~max_steps =
  path_p ?mode ?tol ?pool ?on_singular (Provider.dense g) f ~max_steps

let fit ?mode ?tol ?pool ?on_singular g f ~lambda =
  fit_p ?mode ?tol ?pool ?on_singular (Provider.dense g) f ~lambda
