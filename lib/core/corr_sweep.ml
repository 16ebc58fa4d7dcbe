module Provider = Polybasis.Design.Provider

type sweep = Exact | Incremental of { refresh : int }

let default_refresh = 16
let incremental ?(refresh = default_refresh) () = Incremental { refresh }

let sweep_of_string = function
  | "exact" -> Some Exact
  | "incremental" -> Some (Incremental { refresh = default_refresh })
  | _ -> None

let sweep_to_string = function
  | Exact -> "exact"
  | Incremental _ -> "incremental"

let gram_tr ?pool src r = Provider.gram_tr ?pool src r

let argmax_abs ?pool ~skip src r = Provider.argmax_abs ?pool ~skip src r

let gram_tr_multi ?pool src ~rows rs = Provider.gram_tr_multi ?pool src ~rows rs

let argmax_abs_multi ?pool ~skips src ~rows rs =
  Provider.argmax_abs_multi ?pool ~skips src ~rows rs

module Inc = struct
  type t = {
    src : Provider.t;
    pool : Parallel.Pool.t option;
    c : Linalg.Vec.t;
    (* j ↦ v_j = Gᵀ·g_j, built once when column j enters the active set. *)
    grams : (int, Linalg.Vec.t) Hashtbl.t;
  }

  let create ?pool src r =
    { src; pool; c = Provider.gram_tr ?pool src r; grams = Hashtbl.create 32 }

  let correlations t = t.c
  let cached t = Hashtbl.length t.grams

  let ensure_gram t j col =
    if not (Hashtbl.mem t.grams j) then
      Hashtbl.add t.grams j (Provider.gram_tr ?pool:t.pool t.src col)

  let gram t j =
    match Hashtbl.find_opt t.grams j with
    | Some v -> v
    | None ->
        invalid_arg "Corr_sweep.Inc: gram column was never cached (ensure_gram)"

  let pool_of t =
    match t.pool with Some p -> p | None -> Parallel.Pool.default ()

  (* c ← c − Σ_j Δβ_j·v_j at O(p·M) — the Gram-cached delta update that
     replaces the O(K·M) full sweep. Column-chunked with the deltas
     applied in the given order within each chunk, so every entry sees
     the same float sequence at any domain count. *)
  let apply_deltas t deltas =
    if Array.length deltas > 0 then begin
      let vs = Array.map (fun (j, _) -> gram t j) deltas in
      let m = Array.length t.c in
      let c = t.c in
      Parallel.Pool.parallel_for_chunks (pool_of t)
        ~grain:(Parallel.Pool.grain_for ~work:(Array.length deltas))
        ~lo:0 ~hi:m
        (fun ~lo ~hi ->
          Array.iteri
            (fun q (_, db) ->
              if db <> 0. then begin
                let v = Array.unsafe_get vs q in
                for jj = lo to hi - 1 do
                  Array.unsafe_set c jj
                    (Array.unsafe_get c jj -. (db *. Array.unsafe_get v jj))
                done
              end)
            deltas)
    end

  (* Σ_p w_p·v_{j_p} — the cached stand-in for Gᵀ·u when
     u = Σ_p w_p·g_{j_p} (LARS equiangular direction), at O(p·M)
     instead of an O(K·M) sweep. *)
  let combination t terms =
    let m = Array.length t.c in
    let out = Array.make m 0. in
    if Array.length terms > 0 then begin
      let vs = Array.map (fun (j, _) -> gram t j) terms in
      Parallel.Pool.parallel_for_chunks (pool_of t)
        ~grain:(Parallel.Pool.grain_for ~work:(Array.length terms))
        ~lo:0 ~hi:m
        (fun ~lo ~hi ->
          Array.iteri
            (fun q (_, w) ->
              if w <> 0. then begin
                let v = Array.unsafe_get vs q in
                for jj = lo to hi - 1 do
                  Array.unsafe_set out jj
                    (Array.unsafe_get out jj +. (w *. Array.unsafe_get v jj))
                done
              end)
            terms)
    end;
    out

  (* c ← c − γ·a for a precomputed direction image a = Gᵀ·u (the
     residual moved by γ along u). *)
  let retreat t gamma a =
    if Array.length a <> Array.length t.c then
      invalid_arg "Corr_sweep.Inc.retreat: direction length mismatch";
    let m = Array.length t.c in
    let c = t.c in
    Parallel.Pool.parallel_for_chunks (pool_of t)
      ~grain:(Parallel.Pool.grain_for ~work:1) ~lo:0 ~hi:m (fun ~lo ~hi ->
        for jj = lo to hi - 1 do
          Array.unsafe_set c jj
            (Array.unsafe_get c jj -. (gamma *. Array.unsafe_get a jj))
        done)

  let refresh t r =
    let fresh = Provider.gram_tr ?pool:t.pool t.src r in
    Array.blit fresh 0 t.c 0 (Array.length t.c)

  (* Sequential O(M) scan of the maintained vector — same strict [>] /
     lowest-index-on-tie rule as the provider's argmax. *)
  let argmax_abs ~skip t =
    if Array.length skip <> Array.length t.c then
      invalid_arg "Corr_sweep.Inc.argmax_abs: skip length mismatch";
    let best = ref (-1) and best_abs = ref 0. in
    Array.iteri
      (fun j cj ->
        if not (Array.unsafe_get skip j) then begin
          let a = Float.abs cj in
          if a > !best_abs then begin
            best := j;
            best_abs := a
          end
        end)
      t.c;
    (!best, !best_abs)
end
