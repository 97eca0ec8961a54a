(** One-copy serializability checking.

    Builds the one-copy serialization graph [BG87, BHG87] of a recorded
    history over its committed transactions and searches it for cycles.
    Nodes are committed transactions; edges are the usual three conflict
    families over a per-key version order reconstructed from the sites'
    apply logs:

    - write-read: the writer of the version a transaction read precedes it;
    - write-write: consecutive writers of a key, in install order;
    - read-write: a reader of version [v] precedes the writer that
      overwrote [v].

    The checker also flags histories that are broken before graph
    construction: reads from uncommitted transactions, and replicas that
    installed the writers of some key in different orders (a one-copy
    equivalence violation on its own).

    Cost is linear in the history: each site's apply log is walked once to
    build every key's per-site writer sequence, a key's version order is
    an array with each writer's first position indexed, and the cycle
    search is one depth-first pass over the edges (O(applies x keys per
    transaction + reads + edges), up to the sort of the keys and of each
    node's successors). *)

type violation =
  | Read_from_uncommitted of { reader : Db.Txn_id.t; writer : Db.Txn_id.t }
  | Applied_but_aborted of Db.Txn_id.t
      (** a site installed the write set of a transaction whose origin
          reported an abort *)
  | Divergent_install_order of {
      key : int;
      site_a : Net.Site_id.t;
      site_b : Net.Site_id.t;
    }
  | Cycle of Db.Txn_id.t list

val pp_violation : Format.formatter -> violation -> unit

val check : History.t -> violation list
(** Empty iff the history is one-copy serializable (as far as the recorded
    information can tell). A transaction whose write set was installed at
    some site counts as committed even if its origin crashed before
    reporting an outcome — the decision belongs to the surviving group. *)

val check_records : History.t -> History.txn_record list -> violation list
(** [check_records h (History.txns h)] is [check h], for callers that
    already froze the history's records. *)

val is_one_copy_serializable : History.t -> bool
