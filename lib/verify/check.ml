type report = {
  serialization : Serialization.violation list;
  divergences : Convergence.divergence list;
  ro_conflict_aborts : Db.Txn_id.t list;
  deadlock_aborts : Db.Txn_id.t list;
  undecided : int;
  all_decided_required : bool;
}

let conflict_class = function
  | History.Write_conflict | History.Certification | History.Deadlock_victim ->
    true
  | History.View_change | History.Timeout -> false

let check_execution ?(require_all_decided = false) ?(deadlock_free = true)
    ~history ~stores () =
  let txns = History.txns history in
  let ro_conflict_aborts =
    List.filter_map
      (fun r ->
        match r.History.outcome with
        | Some (History.Aborted reason)
          when r.History.read_only && conflict_class reason ->
          Some r.History.txn
        | _ -> None)
      txns
  in
  let deadlock_aborts =
    if not deadlock_free then []
    else
      List.filter_map
        (fun r ->
          if r.History.outcome = Some (History.Aborted History.Deadlock_victim)
          then Some r.History.txn
          else None)
        txns
  in
  let _, _, undecided = History.count_outcomes history in
  {
    serialization = Serialization.check_records history txns;
    divergences = Convergence.check stores;
    ro_conflict_aborts;
    deadlock_aborts;
    undecided;
    all_decided_required = require_all_decided;
  }

let ok r =
  r.serialization = [] && r.divergences = [] && r.ro_conflict_aborts = []
  && r.deadlock_aborts = []
  && ((not r.all_decided_required) || r.undecided = 0)

let summary r =
  if ok r then "ok"
  else
    Printf.sprintf
      "FAIL serialization=%d divergence=%d ro-aborts=%d deadlocks=%d \
       undecided=%d"
      (List.length r.serialization)
      (List.length r.divergences)
      (List.length r.ro_conflict_aborts)
      (List.length r.deadlock_aborts)
      (if r.all_decided_required then r.undecided else 0)

let pp ppf r =
  if ok r then Format.fprintf ppf "ok"
  else begin
    Format.fprintf ppf "@[<v>%s" (summary r);
    List.iter
      (fun v -> Format.fprintf ppf "@,  1SR: %a" Serialization.pp_violation v)
      r.serialization;
    List.iter
      (fun d ->
        Format.fprintf ppf "@,  convergence: %a" Convergence.pp_divergence d)
      r.divergences;
    List.iter
      (fun txn ->
        Format.fprintf ppf "@,  read-only transaction %a aborted on conflict"
          Db.Txn_id.pp txn)
      r.ro_conflict_aborts;
    List.iter
      (fun txn ->
        Format.fprintf ppf "@,  deadlock victim %a under a deadlock-free protocol"
          Db.Txn_id.pp txn)
      r.deadlock_aborts;
    if r.all_decided_required && r.undecided > 0 then
      Format.fprintf ppf "@,  %d transactions undecided after drain" r.undecided;
    Format.fprintf ppf "@]"
  end
