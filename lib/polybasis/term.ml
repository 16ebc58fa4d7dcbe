type t = (int * int) array

let constant = [||]

let linear v =
  if v < 0 then invalid_arg "Term.linear: negative variable";
  [| (v, 1) |]

let square v =
  if v < 0 then invalid_arg "Term.square: negative variable";
  [| (v, 2) |]

let cross u v =
  if u < 0 || v < 0 then invalid_arg "Term.cross: negative variable";
  if u = v then invalid_arg "Term.cross: variables must differ (use square)";
  if u < v then [| (u, 1); (v, 1) |] else [| (v, 1); (u, 1) |]

let make pairs =
  List.iter
    (fun (v, d) ->
      if v < 0 then invalid_arg "Term.make: negative variable";
      if d < 0 then invalid_arg "Term.make: negative degree")
    pairs;
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, d) ->
      let cur = try Hashtbl.find tbl v with Not_found -> 0 in
      Hashtbl.replace tbl v (cur + d))
    pairs;
  let merged =
    Hashtbl.fold (fun v d acc -> if d > 0 then (v, d) :: acc else acc) tbl []
  in
  let arr = Array.of_list merged in
  Array.sort (fun (u, _) (v, _) -> Stdlib.compare u v) arr;
  arr

let total_degree t = Array.fold_left (fun acc (_, d) -> acc + d) 0 t

let max_var t = Array.fold_left (fun acc (v, _) -> max acc v) (-1) t

let vars t = Array.to_list (Array.map fst t)

(* Plain loops keep [acc] an unboxed local, so no factor allocates.
   Factors multiply left to right from 1, the order every design kernel
   reproduces. *)
let eval t dy =
  let acc = ref 1. in
  for p = 0 to Array.length t - 1 do
    let v, d = Array.unsafe_get t p in
    if v >= Array.length dy then invalid_arg "Term.eval: variable out of range";
    acc := !acc *. Hermite.eval d dy.(v)
  done;
  !acc

let eval_tables t tbl =
  let acc = ref 1. in
  for p = 0 to Array.length t - 1 do
    let v, d = Array.unsafe_get t p in
    acc := !acc *. tbl.(v).(d)
  done;
  !acc

let compare a b =
  let da = total_degree a and db = total_degree b in
  if da <> db then Stdlib.compare da db
  else Stdlib.compare (Array.to_list a) (Array.to_list b)

let equal a b = compare a b = 0

let to_string t =
  if Array.length t = 0 then "1"
  else
    String.concat "*"
      (Array.to_list
         (Array.map
            (fun (v, d) ->
              if d = 1 then Printf.sprintf "y%d" v
              else Printf.sprintf "y%d^%d" v d)
            t))

let pp fmt t = Format.pp_print_string fmt (to_string t)
