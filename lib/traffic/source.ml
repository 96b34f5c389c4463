open Smbm_prelude

type t = { mmpp : Mmpp.t; label : Label.t; rng : Rng.t }

let create ~mmpp ~label ~rng = { mmpp; label; rng }

(* The state transition first, then one label draw per emission. *)
let step t ~into =
  for _ = 1 to Mmpp.step t.mmpp do
    Label.push t.label t.rng into
  done

let mean_rate t = Mmpp.mean_rate t.mmpp
