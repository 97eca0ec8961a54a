(* Regression oracle: the pre-rewrite one-copy serialization checker,
   verbatim. It filtered every site's whole apply log once per written key
   and found overwriters by scanning the key's version order, so its cost
   grew with keys x sites x history. The rewrite builds the per-key version
   orders in one pass over the apply logs; this reference pins down the
   observable contract the rewrite must keep — the same violations, in the
   same order, with the same cycle. *)

module History = Verify.History

module Txn_id = Db.Txn_id

type violation =
  | Read_from_uncommitted of { reader : Txn_id.t; writer : Txn_id.t }
  | Applied_but_aborted of Txn_id.t
  | Divergent_install_order of {
      key : int;
      site_a : Net.Site_id.t;
      site_b : Net.Site_id.t;
    }
  | Cycle of Txn_id.t list

let pp_violation ppf = function
  | Read_from_uncommitted { reader; writer } ->
    Format.fprintf ppf "%a read from uncommitted %a" Txn_id.pp reader Txn_id.pp
      writer
  | Applied_but_aborted txn ->
    Format.fprintf ppf "%a was applied at some site but aborted at its origin"
      Txn_id.pp txn
  | Divergent_install_order { key; site_a; site_b } ->
    Format.fprintf ppf "sites %a and %a installed writers of key %d in different orders"
      Net.Site_id.pp site_a Net.Site_id.pp site_b key
  | Cycle cycle ->
    Format.fprintf ppf "serialization cycle: %s"
      (String.concat " -> " (List.map Txn_id.to_string cycle))

(* The writer sequence of [key] at [site]: its apply log filtered to
   transactions that wrote the key. *)
let writer_sequence history ~site ~writers key =
  History.apply_order history ~site
  |> List.filter (fun txn ->
         match Txn_id.Map.find_opt txn writers with
         | Some keys -> List.mem key keys
         | None -> false)

(* One sequence must be a prefix of the other: a site that lags has seen
   fewer installs, but never a different order. *)
let rec consistent_prefix a b =
  match a, b with
  | [], _ | _, [] -> true
  | x :: a', y :: b' -> Txn_id.equal x y && consistent_prefix a' b'

let check history =
  let violations = ref [] in
  let sites = History.sites_applied history in
  let applied_set =
    List.fold_left
      (fun acc site ->
        List.fold_left
          (fun acc txn -> Txn_id.Set.add txn acc)
          acc
          (History.apply_order history ~site))
      Txn_id.Set.empty sites
  in
  (* Committed = reported committed, or installed somewhere (origin may
     have died before learning the group's decision). Installed + reported
     aborted is a protocol bug. *)
  let committed =
    List.filter
      (fun r ->
        match r.History.outcome with
        | Some History.Committed -> true
        | Some (History.Aborted _) ->
          if Txn_id.Set.mem r.History.txn applied_set then
            violations := Applied_but_aborted r.History.txn :: !violations;
          false
        | None -> Txn_id.Set.mem r.History.txn applied_set)
      (History.txns history)
  in
  let committed_set =
    List.fold_left
      (fun acc r -> Txn_id.Set.add r.History.txn acc)
      Txn_id.Set.empty committed
  in
  (* keys written per committed txn *)
  let writers =
    List.fold_left
      (fun acc r ->
        Txn_id.Map.add r.History.txn (List.map fst r.History.writes) acc)
      Txn_id.Map.empty committed
  in
  (* 1. reads-from must point at committed transactions *)
  List.iter
    (fun r ->
      List.iter
        (fun { History.read_from; _ } ->
          match read_from with
          | Some w when not (Txn_id.Set.mem w committed_set) ->
            violations :=
              Read_from_uncommitted { reader = r.History.txn; writer = w }
              :: !violations
          | Some _ | None -> ())
        r.History.reads)
    committed;
  (* 2. reconstruct a version order per key and check sites agree *)
  let all_keys =
    List.concat_map (fun r -> List.map fst r.History.writes) committed
    |> List.sort_uniq Int.compare
  in
  let version_order =
    List.map
      (fun key ->
        let sequences =
          List.map
            (fun site -> (site, writer_sequence history ~site ~writers key))
            sites
        in
        let rec cross = function
          | [] -> ()
          | (site_a, seq_a) :: rest ->
            List.iter
              (fun (site_b, seq_b) ->
                if not (consistent_prefix seq_a seq_b) then
                  violations :=
                    Divergent_install_order { key; site_a; site_b }
                    :: !violations)
              rest;
            cross rest
        in
        cross sequences;
        let longest =
          List.fold_left
            (fun best (_, seq) ->
              if List.length seq > List.length best then seq else best)
            [] sequences
        in
        (key, longest))
      all_keys
  in
  let order_of key =
    Option.value ~default:[] (List.assoc_opt key version_order)
  in
  (* 3. build the serialization graph *)
  let edges = ref [] in
  let add_edge a b = if not (Txn_id.equal a b) then edges := (a, b) :: !edges in
  (* write-write: consecutive writers *)
  List.iter
    (fun (_, seq) ->
      let rec pairs = function
        | a :: (b :: _ as rest) ->
          add_edge a b;
          pairs rest
        | [ _ ] | [] -> ()
      in
      pairs seq)
    version_order;
  (* write-read and read-write *)
  List.iter
    (fun r ->
      List.iter
        (fun { History.read_key; read_from } ->
          (match read_from with
          | Some w when Txn_id.Set.mem w committed_set -> add_edge w r.History.txn
          | Some _ | None -> ());
          (* the writer that overwrote the version we read *)
          let seq = order_of read_key in
          let overwriter =
            match read_from with
            | None -> (match seq with first :: _ -> Some first | [] -> None)
            | Some w ->
              let rec after = function
                | x :: next :: _ when Txn_id.equal x w -> Some next
                | _ :: rest -> after rest
                | [] -> None
              in
              after seq
          in
          match overwriter with
          | Some o -> add_edge r.History.txn o
          | None -> ())
        r.History.reads)
    committed;
  (* 4. cycle detection *)
  (match Db.Deadlock.find_cycle !edges with
  | Some cycle -> violations := Cycle cycle :: !violations
  | None -> ());
  List.rev !violations

let is_one_copy_serializable history = check history = []
