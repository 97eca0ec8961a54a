(* Two-clock benchmark of the replicated-database simulator.

   One invocation runs one workload in one process on one domain:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   A unit is one fixed-length closed-loop history: build the system
   (Sim.Engine.create + P.create), drive it with the semantics of
   Exper.Runner.run (each client resubmits 100us after its previous
   transaction decided; drive until every transaction has decided, then a
   3s grace), and judge it with Verify.Check.check_execution. A run draws
   [histories] distinct histories from the seed, generates their inputs
   before anything is timed, and repeats them round-robin until the time is
   up. Only the number of repeats depends on --seconds; every per-commit
   value is a property of the histories.

   Host time is calibrated: every unit is preceded by a fixed stdlib-only
   reference loop, and a history's host time is the median over its
   repeats of (unit time / reference time), expressed in seconds of a
   nominal host on which the reference takes [reference_nominal_s]. The
   shared host's speed drifts by up to 2x over minutes, and the ratio
   cancels most of that drift (see README.md for the measurements).
   Allocation and live heap are exact and must repeat exactly, as must
   every simulated number.

   --trace 0 prints the end-to-end metrics. --trace 1 runs the same
   untraced units, then one traced unit per history (spans around each call
   into a layer, with Obs.Recorder, Audit.Log and a 1ms Obs.Sampler on),
   and prints the per-layer metrics. The last stdout line is the JSON
   result; a failed check exits 1. *)

module History = Verify.History

let n_sites = 5
let mpl = 8
let think = Sim.Time.of_us 100
let drain_limit = Sim.Time.of_sec 30.0
let grace = Sim.Time.of_sec 3.0
let sample_every = Sim.Time.of_ms 1
let min_rounds = 5

(* Builds per timed setup block; one block runs before every unit. *)
let setup_builds = 200

type workload = {
  name : string;
  protocol : Repdb.Protocol.id;
  config : Repdb.Config.t;
  profile : Workload.profile;
  txns_per_site : int;  (** history length of one unit *)
  histories : int;  (** distinct histories per run, pooled *)
}

(* Many short histories per run: pooling them keeps the seed-to-seed
   spread of the simulated tail metrics small (over 1600 committed updates,
   so p99 has 16 or more samples beyond it), and summing the per-history
   host medians averages out the noise of each. A round of units takes
   about 3-4s. *)
let workloads =
  let base = Repdb.Config.default ~n_sites in
  [
    {
      name = "causal-contended";
      protocol = Repdb.Protocol.Causal;
      config = base;
      profile = Workload.default;
      txns_per_site = 100;
      histories = 16;
    };
    {
      name = "atomic-batched";
      protocol = Repdb.Protocol.Atomic;
      config =
        {
          base with
          Repdb.Config.batch =
            Some { Broadcast.Endpoint.max_msgs = 16; max_delay = Sim.Time.of_ms 1 };
          tx_time = Sim.Time.of_us 50;
        };
      profile = Workload.default;
      txns_per_site = 100;
      histories = 10;
    };
    {
      name = "reliable-readmostly";
      protocol = Repdb.Protocol.Reliable;
      config = base;
      profile = { Workload.default with Workload.ro_fraction = 0.8 };
      txns_per_site = 300;
      histories = 10;
    };
  ]

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Host-speed reference *)

module Int_map = Map.Make (Int)

(* About the reference loop's median time on the shared 2-vCPU Xeon VM the
   benchmark was tuned on, so calibrated seconds read close to wall seconds
   there. It only sets the scale. *)
let reference_nominal_s = 0.020

(* Fixed work that never changes with the program: hashing, a balanced map
   and a sort over a cache-sized working set. Runs from a compacted heap,
   like each unit. *)
let reference_ns () =
  Gc.compact ();
  let t0 = now_ns () in
  let table = Hashtbl.create 16 and map = ref Int_map.empty and acc = ref 0 in
  for i = 0 to 20_000 do
    let k = (i * 7919) land 32767 in
    Hashtbl.replace table k (k, i);
    map := Int_map.add k [ i; k ] !map;
    match Hashtbl.find_opt table ((k * 31) land 32767) with
    | Some (a, _) -> acc := !acc + a
    | None -> ()
  done;
  let sorted = List.sort compare (List.init 15_000 (fun i -> (i * 104729) land 65535)) in
  ignore (Sys.opaque_identity (!acc, !map, sorted, table));
  now_ns () - t0

(* ------------------------------------------------------------------ *)
(* Spans around the calls into each layer (traced units only) *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (** -1 for a root *)
  sp_history : int;  (** -1 for the setup block *)
  sp_scale : float;  (** calibrated seconds per raw nanosecond *)
  sp_start : int;
  mutable sp_stop : int;
}

let tracing = ref false
let cur_history = ref (-1)
let cur_scale = ref 0.0
let spans : span list ref = ref [] (* closed spans, newest first *)
let open_spans : span list ref = ref []
let next_span = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let s =
      {
        sp_id = !next_span;
        sp_name = name;
        sp_parent = (match !open_spans with p :: _ -> p.sp_id | [] -> -1);
        sp_history = !cur_history;
        sp_scale = !cur_scale;
        sp_start = now_ns ();
        sp_stop = 0;
      }
    in
    incr next_span;
    open_spans := s :: !open_spans;
    let close () =
      s.sp_stop <- now_ns ();
      open_spans := List.tl !open_spans;
      spans := s :: !spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let duration s = s.sp_stop - s.sp_start

(* A span's duration minus what its children cover, in raw ns. *)
let self_times all =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace covered s.sp_parent
          (duration s + Option.value ~default:0 (Hashtbl.find_opt covered s.sp_parent)))
    all;
  List.map
    (fun s -> (s, duration s - Option.value ~default:0 (Hashtbl.find_opt covered s.sp_id)))
    all

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let write_spans ~path ~workload ~origin all =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"workload\":%S,\"history\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.sp_id s.sp_name s.sp_parent workload s.sp_history (s.sp_start - origin)
        (s.sp_stop - origin))
    (List.sort (fun a b -> Int.compare a.sp_id b.sp_id) all);
  close_out oc

(* ------------------------------------------------------------------ *)
(* One unit *)

type layer_info = {
  audit_report : Audit.Log.report;
  audit_events : int;
  order_wire_msgs : int;
  paths : Critpath.path list;
  probe_rows : int;
  probe_sums : (string * float) list;
      (** per probe name: the sum over its labelled series and all rows *)
}

type exact = {
  alloc_words : int;  (** setup + simulate + verify *)
  sim_alloc_words : int;  (** simulate only *)
  verify_alloc_words : int;
  live_words : int;  (** after simulate; 0 for a traced unit *)
}

type outcome = {
  submitted : int;
  committed : int;
  aborted : int;
  undecided : int;
  aborts_by_reason : (History.abort_reason * int) list;
  latencies_ms : float list;  (** committed update transactions *)
  elapsed_s : float;  (** simulated time to the last decision *)
  datagrams : int;
  broadcasts : int;
  per_category : (string * int) list;
  events : int;  (** engine callbacks, sampler ticks excluded *)
  exact : exact;
  sim_ns : int;
  verify_ns : int;
  check : Verify.Check.report;
  layers : layer_info option;
}

let reason_name = function
  | History.Write_conflict -> "write-conflict"
  | History.Certification -> "certification"
  | History.Deadlock_victim -> "deadlock-victim"
  | History.View_change -> "view-change"
  | History.Timeout -> "timeout"

(* Every simulated number of a unit; must repeat exactly. *)
let sim_fingerprint o =
  String.concat " "
    ([
       string_of_int o.submitted;
       string_of_int o.committed;
       string_of_int o.aborted;
       string_of_int o.undecided;
       Printf.sprintf "%h" o.elapsed_s;
       string_of_int o.datagrams;
       string_of_int o.broadcasts;
       string_of_int o.events;
     ]
    @ List.map (fun (r, k) -> Printf.sprintf "%s=%d" (reason_name r) k) o.aborts_by_reason
    @ List.map (fun (c, k) -> Printf.sprintf "%s=%d" c k) o.per_category
    @ List.map (Printf.sprintf "%h") o.latencies_ms)

let exact_string e =
  Printf.sprintf "alloc=%d sim=%d verify=%d live=%d" e.alloc_words e.sim_alloc_words
    e.verify_alloc_words e.live_words

let count_reasons history =
  List.fold_left
    (fun acc r ->
      match r.History.outcome with
      | Some (History.Aborted reason) ->
        let k = Option.value ~default:0 (List.assoc_opt reason acc) in
        (reason, k + 1) :: List.remove_assoc reason acc
      | Some History.Committed | None -> acc)
    [] (History.txns history)
  |> List.sort compare

let probe_sums sampler =
  let names = Array.of_list (List.map fst (Obs.Sampler.probes sampler)) in
  let sums = Hashtbl.create 16 in
  List.iter
    (fun (_, row) ->
      Array.iteri
        (fun i v ->
          Hashtbl.replace sums names.(i)
            (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums names.(i))))
        row)
    (Obs.Sampler.samples sampler);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums [])

let words () = int_of_float (Gc.minor_words ())

let run_unit wl ~seed ~(inputs : Repdb.Op.spec array array) ~traced =
  let module P = (val Repdb.Protocol.get wl.protocol) in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let recorder, audit, sampler =
    if traced then
      ( Obs.Recorder.create (),
        Audit.Log.create ~n:n_sites,
        Obs.Sampler.create ~interval:sample_every () )
    else (Obs.Recorder.none, Audit.Log.none, Obs.Sampler.none)
  in
  let config = { wl.config with Repdb.Config.obs = recorder; audit; sampler } in
  let history = History.create () in
  span "bench.unit" @@ fun () ->
  let w0 = words () in
  let engine = span "sim.create" (fun () -> Sim.Engine.create ~seed ()) in
  let system = span "core.create" (fun () -> P.create engine config ~history) in
  if traced then begin
    Obs.Sampler.register sampler ~name:"sim_events_pending" (fun () ->
        float_of_int (Sim.Engine.pending engine));
    Obs.Sampler.attach sampler engine
  end;
  let w_setup = words () in
  let t0 = now_ns () in
  let submit =
    if traced then fun ~origin op ~on_done ->
      span "core.submit" (fun () -> P.submit system ~origin op ~on_done)
    else P.submit system
  in
  let next = Array.make n_sites 0 in
  let submitted = ref 0 and decided = ref 0 in
  let committed = ref 0 and aborted = ref 0 in
  let last_decision = ref Sim.Time.zero in
  let latencies = ref [] in
  let rec client site =
    if next.(site) < wl.txns_per_site then begin
      let op = inputs.(site).(next.(site)) in
      next.(site) <- next.(site) + 1;
      let read_only = Repdb.Op.is_read_only op in
      let start = Sim.Engine.now engine in
      incr submitted;
      ignore
        (submit ~origin:site op ~on_done:(fun outcome ->
             let now = Sim.Engine.now engine in
             incr decided;
             last_decision := now;
             (match outcome with
             | History.Committed ->
               incr committed;
               if not read_only then
                 latencies := Sim.Time.to_ms (Sim.Time.diff now start) :: !latencies
             | History.Aborted _ -> incr aborted);
             ignore (Sim.Engine.schedule engine ~delay:think (fun () -> client site))))
    end
  in
  span "sim.run" (fun () ->
      for site = 0 to n_sites - 1 do
        for _client = 1 to mpl do
          client site
        done
      done;
      let total = n_sites * wl.txns_per_site in
      let slice = Sim.Time.of_ms 100 in
      let rec drive horizon =
        Sim.Engine.run_until engine horizon;
        if
          !decided < total
          && Sim.Time.( < ) (Sim.Engine.now engine)
               (Sim.Time.add !last_decision drain_limit)
        then drive (Sim.Time.add horizon slice)
      in
      drive slice;
      Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) grace));
  let t1 = now_ns () in
  let w1 = words () in
  (* Untimed and outside the allocation count: the live heap with the
     system, its history and its stores still reachable. *)
  let live_words =
    if traced then 0
    else begin
      Gc.full_major ();
      (Gc.stat ()).Gc.live_words - live0
    end
  in
  if traced then begin
    span "obs.close" (fun () ->
        Obs.Recorder.close_dangling recorder ~at:(Sim.Engine.now engine));
    ignore (span "audit.finalize" (fun () -> Audit.Log.finalize audit))
  end;
  let stores = List.map (fun s -> (s, P.store system s)) (Net.Site_id.all ~n:n_sites) in
  let w2 = words () in
  let t2 = now_ns () in
  let check =
    span "verify.check" (fun () ->
        Verify.Check.check_execution ~require_all_decided:true ~deadlock_free:true
          ~history ~stores ())
  in
  let t3 = now_ns () in
  let w3 = words () in
  let layers =
    if not traced then None
    else begin
      ignore (span "verify.serialization" (fun () -> Verify.Serialization.check history));
      ignore (span "verify.convergence" (fun () -> Verify.Convergence.check stores));
      let audit_events = Audit.Log.events audit in
      let paths =
        span "obs.critpath" (fun () ->
            Critpath.explain ~spans:(Obs.Recorder.events recorder) ~audit:audit_events)
      in
      Some
        {
          audit_report = Audit.Log.finalize audit;
          audit_events = List.length audit_events;
          order_wire_msgs = Audit.Accounting.order_wire_msgs audit_events;
          paths;
          probe_rows = List.length (Obs.Sampler.samples sampler);
          probe_sums = probe_sums sampler;
        }
    end
  in
  let net = P.net_stats system in
  let o =
    {
      submitted = !submitted;
      committed = !committed;
      aborted = !aborted;
      undecided = !submitted - !decided;
      aborts_by_reason = count_reasons history;
      latencies_ms = List.rev !latencies;
      elapsed_s = Sim.Time.to_sec !last_decision;
      datagrams = Net.Net_stats.datagrams net;
      broadcasts = Net.Net_stats.broadcasts net;
      per_category = Net.Net_stats.by_category net;
      events = Sim.Engine.processed engine - List.length (Obs.Sampler.samples sampler);
      exact =
        {
          alloc_words = w1 - w0 + (w3 - w2);
          sim_alloc_words = w1 - w_setup;
          verify_alloc_words = w3 - w2;
          live_words;
        };
      sim_ns = t1 - t0;
      verify_ns = t3 - t2;
      check;
      layers;
    }
  in
  ignore (Sys.opaque_identity (engine, system, history));
  o

(* One timed block of [setup_builds] system constructions; ns per build. *)
let setup_block wl ~seed =
  let module P = (val Repdb.Protocol.get wl.protocol) in
  let histories = Array.init setup_builds (fun _ -> History.create ()) in
  let t0 = now_ns () in
  for i = 0 to setup_builds - 1 do
    let engine = span "sim.create" (fun () -> Sim.Engine.create ~seed ()) in
    ignore
      (Sys.opaque_identity
         (span "core.create" (fun () -> P.create engine wl.config ~history:histories.(i))))
  done;
  float_of_int (now_ns () - t0) /. float_of_int setup_builds

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Nearest-rank percentile over sorted samples, and how many samples lie
   beyond it. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  (sorted.(rank - 1), n - rank)

exception Refused of string

(* A tail percentile is emitted only with at least 10 samples beyond it. *)
let tail_percentile ~what sorted q =
  let v, beyond = nearest_rank sorted q in
  if beyond < 10 then
    raise
      (Refused
         (Printf.sprintf "%s: %d samples leave %d beyond p%g (need 10)" what
            (Array.length sorted) beyond (100.0 *. q)));
  v

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let ratio a b = float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Output *)

let metrics : (string * float * string) list ref = ref []

let emit ?note name value unit =
  metrics := (name, value, unit) :: !metrics;
  Printf.printf "  %-36s %.6g %s%s\n" name value unit
    (match note with Some n -> "  (" ^ n ^ ")" | None -> "")

let print_result ~correct ~attempted ~failed =
  let fields =
    List.rev_map
      (fun (name, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Runs *)

type run = {
  wl : workload;
  seeds : int array;
  inputs : Repdb.Op.spec array array array;
  warmup : outcome array;  (** simulated reference of each history *)
  exact_ref : exact array;  (** from the first timed repeat *)
  sim_ratio : float list array;  (** per repeat: simulate / reference *)
  verify_ratio : float list array;
  setup_ratio : float list;  (** per block: ns per build / reference *)
  reference_ns : float list;
  rounds : int;
}

let attempted = ref 0
let failed = ref 0
let errors = ref []
let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

(* Count a unit's operations; all of them fail if any check on it does. *)
let judge k (o : outcome) problems =
  attempted := !attempted + o.submitted;
  let problems =
    if Verify.Check.ok o.check then problems else Verify.Check.summary o.check :: problems
  in
  if problems <> [] then begin
    failed := !failed + o.submitted;
    List.iter (error "history %d: %s" k) problems
  end

let measure wl ~seed ~seconds =
  let root = Sim.Rng.create ~seed in
  let seeds = Array.init wl.histories (fun _ -> Sim.Rng.int root 1_000_000_000) in
  let inputs =
    Array.map
      (fun s ->
        let rng = Sim.Rng.create ~seed:s in
        Array.init n_sites (fun _ ->
            let gen = Workload.create wl.profile ~rng in
            Array.init wl.txns_per_site (fun _ -> Workload.next gen)))
      seeds
  in
  let deadline = now_ns () + (seconds * 1_000_000_000) in
  let unit k = run_unit wl ~seed:seeds.(k) ~inputs:inputs.(k) ~traced:false in
  let warmup =
    Array.init wl.histories (fun k ->
        let o = unit k in
        judge k o [];
        o)
  in
  let exact_ref = Array.map (fun o -> o.exact) warmup in
  let sim_ratio = Array.make wl.histories [] in
  let verify_ratio = Array.make wl.histories [] in
  let setup_ratio = ref [] and refs = ref [] in
  let rounds = ref 0 in
  while !errors = [] && (!rounds < min_rounds || now_ns () < deadline) do
    for k = 0 to wl.histories - 1 do
      let r = float_of_int (reference_ns ()) in
      refs := r :: !refs;
      setup_ratio := (setup_block wl ~seed:seeds.(k) /. r) :: !setup_ratio;
      let o = unit k in
      if !rounds = 0 then exact_ref.(k) <- o.exact;
      judge k o
        ((if sim_fingerprint o <> sim_fingerprint warmup.(k) then
            [ "simulated numbers differ between repeats" ]
          else [])
        @
        if o.exact <> exact_ref.(k) then
          [
            Printf.sprintf "allocation or live heap differ between repeats (%s vs %s)"
              (exact_string o.exact) (exact_string exact_ref.(k));
          ]
        else []);
      sim_ratio.(k) <- (float_of_int o.sim_ns /. r) :: sim_ratio.(k);
      verify_ratio.(k) <- (float_of_int o.verify_ns /. r) :: verify_ratio.(k)
    done;
    incr rounds
  done;
  {
    wl;
    seeds;
    inputs;
    warmup;
    exact_ref;
    sim_ratio;
    verify_ratio;
    setup_ratio = !setup_ratio;
    reference_ns = !refs;
    rounds = !rounds;
  }

(* Calibrated seconds of history [k]'s simulate and verify phases. *)
let host_s run k =
  ( median run.sim_ratio.(k) *. reference_nominal_s,
    median run.verify_ratio.(k) *. reference_nominal_s )

let end_to_end run =
  let outs = Array.to_list run.warmup in
  let committed = sum (fun o -> o.committed) outs in
  let lat = Array.of_list (List.concat_map (fun o -> o.latencies_ms) outs) in
  Array.sort compare lat;
  let n = Array.length lat in
  let p99 = tail_percentile ~what:"commit_p99_ms" lat 0.99 in
  let host =
    fsum
      (fun k ->
        let s, v = host_s run k in
        s +. v)
      (List.init run.wl.histories Fun.id)
  in
  emit "setup_s" (median run.setup_ratio *. reference_nominal_s) "s"
    ~note:
      (Printf.sprintf "median of %d blocks of %d builds" (List.length run.setup_ratio)
         setup_builds);
  emit "commits_per_wall_s" (float_of_int committed /. host) "txn/s"
    ~note:(Printf.sprintf "%d commits / %.4f calibrated s" committed host);
  let exact = Array.to_list run.exact_ref in
  emit "alloc_words_per_commit" (ratio (sum (fun e -> e.alloc_words) exact) committed) "words";
  emit "live_heap_mb"
    (float_of_int (sum (fun e -> e.live_words) exact * (Sys.word_size / 8))
    /. float_of_int run.wl.histories /. 1048576.0)
    "MB" ~note:"mean over histories";
  emit "commit_p50_ms" (fst (nearest_rank lat 0.50)) "ms" ~note:(Printf.sprintf "n=%d" n);
  emit "commit_p99_ms" p99 "ms"
    ~note:(Printf.sprintf "n=%d, %d beyond" n (snd (nearest_rank lat 0.99)));
  emit "sim_tps" (float_of_int committed /. fsum (fun o -> o.elapsed_s) outs) "txn/s";
  emit "datagrams_per_commit" (ratio (sum (fun o -> o.datagrams) outs) committed) "msgs";
  emit "abort_frac"
    (ratio (sum (fun o -> o.aborted + o.undecided) outs) (sum (fun o -> o.submitted) outs))
    "ratio"

let per_layer run ~out ~seed =
  let wl = run.wl in
  let ks = List.init wl.histories Fun.id in
  (* One traced unit per history, each after its own reference. *)
  tracing := true;
  let traced =
    List.map
      (fun k ->
        cur_history := k;
        cur_scale := reference_nominal_s /. float_of_int (reference_ns ());
        let o = run_unit wl ~seed:run.seeds.(k) ~inputs:run.inputs.(k) ~traced:true in
        judge k o
          ((if sim_fingerprint o <> sim_fingerprint run.warmup.(k) then
              [ "tracing perturbed the simulation" ]
            else [])
          @
          match o.layers with
          | Some l when not (Audit.Log.report_ok l.audit_report) ->
            [ "audit " ^ Audit.Log.summary l.audit_report ]
          | _ -> []);
        o)
      ks
  in
  cur_history := -1;
  cur_scale := reference_nominal_s /. float_of_int (reference_ns ());
  let setup_from = !next_span in
  ignore (span "bench.setup" (fun () -> setup_block wl ~seed:run.seeds.(0)));
  tracing := false;
  let all = !spans in
  let selfs = self_times all in
  (* The layers' self times must add up to the root spans. *)
  let roots = sum duration (List.filter (fun s -> s.sp_parent < 0) all) in
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun (s, t) ->
      let l = layer_of s.sp_name in
      Hashtbl.replace by_layer l (t + Option.value ~default:0 (Hashtbl.find_opt by_layer l)))
    selfs;
  let layer_total = Hashtbl.fold (fun _ t acc -> acc + t) by_layer 0 in
  if layer_total <> roots then
    error "span self times add up to %dns but the roots cover %dns" layer_total roots;
  List.iter
    (fun (l, t) -> Printf.printf "  self time %-10s %.6fs\n" l (float_of_int t /. 1e9))
    (List.sort compare (Hashtbl.fold (fun l t acc -> (l, t) :: acc) by_layer []));
  let in_units s = s.sp_id < setup_from in
  let calibrated s ns = float_of_int ns *. s.sp_scale in
  let self_s name =
    fsum (fun (s, t) -> if s.sp_name = name && in_units s then calibrated s t else 0.0) selfs
  in
  let total_s name =
    fsum (fun s -> if s.sp_name = name && in_units s then calibrated s (duration s) else 0.0) all
  in
  let mean_us name keep =
    let l = List.filter (fun s -> s.sp_name = name && keep s) all in
    fsum (fun s -> calibrated s (duration s)) l /. float_of_int (max 1 (List.length l)) *. 1e6
  in
  let outs = Array.to_list run.warmup in
  let committed = sum (fun o -> o.committed) outs in
  let per_commit f = ratio (sum f outs) committed in
  let layers = List.filter_map (fun o -> o.layers) traced in
  let paths = List.concat_map (fun l -> l.paths) layers in
  let blame = Critpath.blame_table paths in
  let seg_note = Printf.sprintf "n=%d paths" (List.length paths) in
  let share sg =
    match List.find_opt (fun b -> b.Critpath.b_seg = sg) blame with
    | Some b -> b.Critpath.b_share
    | None -> 0.0
  in
  let p99_us sg =
    let per =
      Array.of_list
        (List.map
           (fun p ->
             sum
               (fun g -> if g.Critpath.sg_seg = sg then g.sg_to_us - g.sg_from_us else 0)
               p.Critpath.p_segments)
           paths)
    in
    Array.sort compare per;
    float_of_int (tail_percentile ~what:(Critpath.seg_name sg ^ " p99_us") per 0.99)
  in
  let seg prefix sg =
    let name = Printf.sprintf "%s.%s" prefix (Critpath.seg_name sg) in
    emit (name ^ ".share") (share sg) "ratio";
    emit (name ^ ".p99_us") (p99_us sg) "us" ~note:seg_note
  in
  let rows = sum (fun l -> l.probe_rows) layers in
  let probe_mean name =
    fsum (fun l -> Option.value ~default:0.0 (List.assoc_opt name l.probe_sums)) layers
    /. float_of_int (max 1 rows)
  in
  let events = sum (fun o -> o.events) outs in
  let exact = Array.to_list run.exact_ref in
  let q_sim = fsum (fun k -> fst (host_s run k)) ks in
  let q_verify = fsum (fun k -> snd (host_s run k)) ks in
  let sim_self = self_s "sim.run" in
  emit "sim.run.host_s" sim_self "s" ~note:"traced, core.submit excluded";
  emit "sim.host_ns_per_event" (sim_self *. 1e9 /. float_of_int events) "ns";
  emit "sim.events_per_commit" (ratio events committed) "events";
  emit "sim.run.alloc_words_per_commit"
    (ratio (sum (fun e -> e.sim_alloc_words) exact) committed) "words";
  emit "sim.pending_mean" (probe_mean "sim_events_pending") "events";
  emit "core.create.host_us" (mean_us "core.create" (fun s -> not (in_units s))) "us"
    ~note:(Printf.sprintf "mean of %d builds" setup_builds);
  emit "core.submit.host_us" (mean_us "core.submit" in_units) "us";
  emit "core.outstanding_mean" (probe_mean "proto_outstanding") "txns";
  List.iter
    (fun r ->
      emit
        (Printf.sprintf "core.abort.%s_frac" (reason_name r))
        (ratio
           (sum (fun o -> Option.value ~default:0 (List.assoc_opt r o.aborts_by_reason)) outs)
           (sum (fun o -> o.submitted) outs))
        "ratio")
    [ History.Write_conflict; History.Certification; History.View_change ];
  emit "core.local.share" (share Critpath.Local) "ratio" ~note:seg_note;
  seg "core" Critpath.Timer_wait;
  emit "db.locks_held_mean" (probe_mean "db_locks_held") "locks";
  emit "db.lock_waiters_mean" (probe_mean "db_lock_waiters") "waiters";
  seg "db" Critpath.Lock_wait;
  List.iter
    (fun c ->
      emit
        (Printf.sprintf "net.%s_per_commit" c)
        (per_commit (fun o -> Option.value ~default:0 (List.assoc_opt c o.per_category)))
        "msgs")
    [ "write"; "commitreq"; "vote"; "order"; "ack"; "nack"; "hb"; "frame" ];
  emit "net.tx_backlog_us_mean" (probe_mean "net_tx_backlog_us") "us";
  seg "net" Critpath.Nic_serialize;
  seg "net" Critpath.Link_latency;
  emit "broadcast.broadcasts_per_commit" (per_commit (fun o -> o.broadcasts)) "msgs";
  emit "broadcast.order_msgs_per_commit"
    (ratio (sum (fun l -> l.order_wire_msgs) layers) committed) "msgs";
  emit "broadcast.delay_depth_mean" (probe_mean "bcast_delay_depth") "msgs";
  emit "broadcast.order_backlog_mean" (probe_mean "bcast_order_backlog") "msgs";
  seg "broadcast" Critpath.Batch_wait;
  seg "broadcast" Critpath.Ordering_wait;
  emit "verify.check.host_s" (total_s "verify.check") "s";
  emit "verify.serialization.host_s" (total_s "verify.serialization") "s";
  emit "verify.convergence.host_s" (total_s "verify.convergence") "s";
  emit "verify.alloc_words_per_commit"
    (ratio (sum (fun e -> e.verify_alloc_words) exact) committed) "words";
  emit "verify.share" (q_verify /. (q_sim +. q_verify)) "ratio"
    ~note:"untraced, of simulate + verify";
  emit "audit.finalize.host_s" (total_s "audit.finalize") "s";
  emit "audit.events_per_commit" (ratio (sum (fun l -> l.audit_events) layers) committed) "events";
  emit "obs.trace_overhead" (total_s "sim.run" /. q_sim) "ratio"
    ~note:"traced / untraced simulate";
  emit "obs.critpath.host_s" (total_s "obs.critpath") "s";
  let residual = List.fold_left (fun acc p -> max acc p.Critpath.p_residual_us) 0 paths in
  if residual >= 1 then error "critical-path residual %dus (must stay below 1us)" residual;
  emit "obs.critpath.residual_max_us" (float_of_int residual) "us";
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let path = Filename.concat out (Printf.sprintf "spans-%s-%d.jsonl" wl.name seed) in
  let origin = List.fold_left (fun acc s -> min acc s.sp_start) max_int all in
  write_spans ~path ~workload:wl.name ~origin all;
  Printf.printf "spans: %d written to %s\n" (List.length all) path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S time to fill with repeats");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S; known: %s\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  Printf.printf "workload %s seed %d: %d histories x %d txns/site, %d sites x %d clients\n%!"
    wl.name !seed wl.histories wl.txns_per_site n_sites mpl;
  let run = measure wl ~seed:!seed ~seconds:!seconds in
  let committed = sum (fun o -> o.committed) (Array.to_list run.warmup) in
  Printf.printf "rounds %d (+1 warm-up), %d committed per round; reference loop median %.1fms\n"
    run.rounds committed (median run.reference_ns /. 1e6);
  (* Everything that must repeat exactly; the same for --trace 0 and 1. *)
  Printf.printf "digest %s\n"
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (List.map sim_fingerprint (Array.to_list run.warmup)
             @ List.map exact_string (Array.to_list run.exact_ref)))));
  Array.iteri
    (fun k o ->
      let s, v = host_s run k in
      Printf.printf
        "  history %d: %d committed, simulate %.1fms + verify %.1fms calibrated, %d repeats\n"
        k o.committed (s *. 1e3) (v *. 1e3) (List.length run.sim_ratio.(k)))
    run.warmup;
  if !errors = [] then begin
    try if !trace = 0 then end_to_end run else per_layer run ~out:!out ~seed:!seed
    with Refused msg -> error "%s" msg
  end;
  let correct = !errors = [] in
  List.iter (fun e -> Printf.printf "FAIL %s\n" e) (List.rev !errors);
  print_result ~correct ~attempted:!attempted ~failed:!failed;
  exit (if correct then 0 else 1)
