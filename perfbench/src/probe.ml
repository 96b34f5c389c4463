type t = {
  mutable ns : int;
  mutable words : int;
  mutable calls : int;
  mutable t0 : int;
  mutable w0 : int;
}

let create () = { ns = 0; words = 0; calls = 0; t0 = 0; w0 = 0 }

let[@inline] start p =
  p.w0 <- Clock.words ();
  p.t0 <- Clock.now_ns ()

let[@inline] stop p =
  let t = Clock.now_ns () in
  let w = Clock.words () in
  p.ns <- p.ns + (t - p.t0);
  p.words <- p.words + (w - p.w0);
  p.calls <- p.calls + 1

let calls p = p.calls

type cost = {
  inner_ns : float;
  inner_words : float;
  pair_ns : float;
  pair_words : float;
}

let calibrate () =
  let n = 100_000 in
  let once () =
    let p = create () in
    let w0 = Clock.words () in
    let t0 = Clock.now_ns () in
    for _ = 1 to n do
      start p;
      stop p
    done;
    let t1 = Clock.now_ns () in
    let w1 = Clock.words () in
    let per x = float_of_int x /. float_of_int n in
    {
      inner_ns = per p.ns;
      inner_words = per p.words;
      pair_ns = per (t1 - t0);
      pair_words = per (w1 - w0);
    }
  in
  let runs = List.init 7 (fun _ -> once ()) in
  let median f =
    let a = Array.of_list (List.map f runs) in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  {
    inner_ns = median (fun c -> c.inner_ns);
    inner_words = median (fun c -> c.inner_words);
    pair_ns = median (fun c -> c.pair_ns);
    pair_words = median (fun c -> c.pair_words);
  }

let corrected cost p =
  let n = float_of_int p.calls in
  ( Float.max 0. (float_of_int p.ns -. (n *. cost.inner_ns)),
    Float.max 0. (float_of_int p.words -. (n *. cost.inner_words)) )
