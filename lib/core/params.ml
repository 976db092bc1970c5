open Rn_util

type t = {
  c_whp : int;
  c_recruit : int;
  c_epochs : int;
  adaptive : bool;
  max_round_factor : int;
}

let default =
  {
    c_whp = 8;
    c_recruit = 12;
    c_epochs = 8;
    adaptive = true;
    max_round_factor = 64;
  }

let phase_len ~n = Ilog.clog (max 2 n)

let whp_rounds t ~n = t.c_whp * phase_len ~n * phase_len ~n

let recruit_iterations t ~n =
  let l = Ilog.clog (max 2 n) in
  t.c_recruit * l * l

let max_epochs t ~n = t.c_epochs * Ilog.clog (max 2 n)

let stage_over t ~round ~budget ~period goal x =
  round >= budget || (t.adaptive && round mod period = 0 && goal x)

let skip_stage t goal x = t.adaptive && goal x
