let encode rng ~msgs ~count =
  let k = Array.length msgs in
  if count < 0 then invalid_arg "Fec.encode";
  let rec nonzero_coeffs () =
    let c = Bitvec.random rng k in
    if Bitvec.is_zero c && k > 0 then nonzero_coeffs () else c
  in
  Array.init count (fun _ -> Rlnc.packet_of_coeffs ~msgs (nonzero_coeffs ()))
