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

(* One sequence must be a prefix of the other: a site that lags has seen
   fewer installs, but never a different order. *)
let rec consistent_prefix a b =
  match a, b with
  | [], _ | _, [] -> true
  | x :: a', y :: b' -> Txn_id.equal x y && consistent_prefix a' b'

(* A key's writer sequences while the apply logs are walked site by site,
   in ascending site order: [rev] is the current site's sequence, newest
   first; [done_] holds the finished sites' sequences, last site first. *)
type sequences = {
  mutable site : Net.Site_id.t;
  mutable rev : Txn_id.t list;
  mutable done_ : (Net.Site_id.t * Txn_id.t list) list;
}

(* A key's version order — the longest site sequence — with each writer's
   first position in it, so the overwriter of a read version is O(1). *)
type version_order = { writers : Txn_id.t array; first : int Txn_id.Tbl.t }

let check_records history txns =
  let violations = ref [] in
  let logs =
    List.map
      (fun site -> (site, History.apply_order history ~site))
      (History.sites_applied history)
  in
  let applied = Txn_id.Tbl.create 256 in
  List.iter
    (fun (_, log) -> List.iter (fun txn -> Txn_id.Tbl.replace applied txn ()) log)
    logs;
  (* Committed = reported committed, or installed somewhere (origin may
     have died before learning the group's decision). Installed + reported
     aborted is a protocol bug. *)
  let committed =
    List.filter
      (fun r ->
        match r.History.outcome with
        | Some History.Committed -> true
        | Some (History.Aborted _) ->
          if Txn_id.Tbl.mem applied r.History.txn then
            violations := Applied_but_aborted r.History.txn :: !violations;
          false
        | None -> Txn_id.Tbl.mem applied r.History.txn)
      txns
  in
  (* keys written per committed txn, deduplicated *)
  let writers = Txn_id.Tbl.create 256 in
  List.iter
    (fun r ->
      Txn_id.Tbl.replace writers r.History.txn
        (List.sort_uniq Int.compare (List.map fst r.History.writes)))
    committed;
  let is_committed txn = Txn_id.Tbl.mem writers txn in
  (* 1. reads-from must point at committed transactions *)
  List.iter
    (fun r ->
      List.iter
        (fun { History.read_from; _ } ->
          match read_from with
          | Some w when not (is_committed w) ->
            violations :=
              Read_from_uncommitted { reader = r.History.txn; writer = w }
              :: !violations
          | Some _ | None -> ())
        r.History.reads)
    committed;
  (* 2. every key's writer sequence at every site, in one pass over each
     apply log: a site's sequence for a key is its log filtered to the
     transactions that wrote the key *)
  let per_key = Hashtbl.create 256 in
  List.iter
    (fun (site, log) ->
      List.iter
        (fun txn ->
          match Txn_id.Tbl.find_opt writers txn with
          | None -> ()
          | Some keys ->
            List.iter
              (fun key ->
                match Hashtbl.find_opt per_key key with
                | None -> Hashtbl.add per_key key { site; rev = [ txn ]; done_ = [] }
                | Some s when Net.Site_id.equal s.site site -> s.rev <- txn :: s.rev
                | Some s ->
                  s.done_ <- (s.site, List.rev s.rev) :: s.done_;
                  s.site <- site;
                  s.rev <- [ txn ])
              keys)
        log)
    logs;
  (* then check the sites agree, key by key in ascending order; sites that
     never installed the key agree with everyone and are left out *)
  let keys =
    Hashtbl.fold (fun key _ acc -> key :: acc) per_key [] |> List.sort Int.compare
  in
  let orders = Hashtbl.create (List.length keys) in
  List.iter
    (fun key ->
      let s = Hashtbl.find per_key key in
      let sequences = List.rev ((s.site, List.rev s.rev) :: s.done_) in
      let rec cross = function
        | [] -> ()
        | (site_a, seq_a) :: rest ->
          List.iter
            (fun (site_b, seq_b) ->
              if not (consistent_prefix seq_a seq_b) then
                violations :=
                  Divergent_install_order { key; site_a; site_b } :: !violations)
            rest;
          cross rest
      in
      cross sequences;
      let longest, _ =
        List.fold_left
          (fun (best, best_len) (_, seq) ->
            let len = List.length seq in
            if len > best_len then (seq, len) else (best, best_len))
          ([], 0) sequences
      in
      let writers = Array.of_list longest in
      let first = Txn_id.Tbl.create (Array.length writers) in
      Array.iteri
        (fun i txn -> if not (Txn_id.Tbl.mem first txn) then Txn_id.Tbl.add first txn i)
        writers;
      Hashtbl.add orders key { writers; first })
    keys;
  (* 3. build the serialization graph *)
  let edges = ref [] in
  let add_edge a b = if not (Txn_id.equal a b) then edges := (a, b) :: !edges in
  (* write-write: consecutive writers *)
  Hashtbl.iter
    (fun _ { writers; _ } ->
      for i = 1 to Array.length writers - 1 do
        add_edge writers.(i - 1) writers.(i)
      done)
    orders;
  (* write-read and read-write *)
  List.iter
    (fun r ->
      List.iter
        (fun { History.read_key; read_from } ->
          (match read_from with
          | Some w when is_committed w -> add_edge w r.History.txn
          | Some _ | None -> ());
          (* the writer that overwrote the version we read *)
          match Hashtbl.find_opt orders read_key with
          | None -> ()
          | Some { writers; first } ->
            let next =
              match read_from with
              | None -> 0
              | Some w -> (
                match Txn_id.Tbl.find_opt first w with
                | Some i -> i + 1
                | None -> Array.length writers)
            in
            if next < Array.length writers then add_edge r.History.txn writers.(next))
        r.History.reads)
    committed;
  (* 4. cycle detection; the cycle found depends only on the edge set *)
  (match Db.Deadlock.find_cycle !edges with
  | Some cycle -> violations := Cycle cycle :: !violations
  | None -> ());
  List.rev !violations

let check history = check_records history (History.txns history)

let is_one_copy_serializable history = check history = []
