(** The policy-facing projection of a bin.

    The engine ([Simulator.Online]) owns all bin state in its store;
    policies only ever see this read-only view, which deliberately
    omits the departure times of the items inside — keeping
    algorithms honestly online.

    Each bin carries its own capacity: the paper's model uses one
    uniform capacity [W], but the application layer supports
    heterogeneous server types (bins opened under different tags get
    different capacities — see [Simulator.Online.create]'s
    [tag_capacity]). *)

open Dbp_num

type view = {
  bin_id : int;  (** Opening-order index: bin [i] of the paper is id [i]. *)
  bin_tag : string;  (** Policy-private label (e.g. MFF's ["large"]/["small"]). *)
  bin_capacity : Rat.t;
  bin_level : Rat.t;  (** Total size of the items currently inside. *)
  bin_residual : Rat.t;
  bin_opened : Rat.t;
  bin_count : int;  (** Number of items currently inside. *)
}
