open Dbp_num

type view = {
  bin_id : int;
  bin_tag : string;
  bin_capacity : Rat.t;
  bin_level : Rat.t;
  bin_residual : Rat.t;
  bin_opened : Rat.t;
  bin_count : int;
}
