(* Output checks.  Each is computed here from the scheme's definitions,
   independently of the code path the workloads time: the sampler law
   from exp(-x^2/2sigma^2), and Falcon verification with a schoolbook
   negacyclic product in place of the repo's NTT. *)

(* ------------------------------------------------------------------ *)
(* Discrete Gaussian draws                                             *)
(* ------------------------------------------------------------------ *)

(* The law of |x|: P(0) ∝ rho(0) and P(v) ∝ 2 rho(v) for 0 < v <= support,
   rho(v) = exp(-v^2 / 2 sigma^2).  At [precision] bits each probability is
   truncated to a multiple of 2^-precision; the walks that fall in the
   truncated mass are redrawn, so the law is the truncated table
   renormalised.  (Truncation below 2^-53 is invisible to this test.) *)
let magnitude_law ~sigma ~precision ~support =
  let w =
    Array.init (support + 1) (fun v ->
        let r = exp (-.float_of_int (v * v) /. (2.0 *. sigma *. sigma)) in
        if v = 0 then r else 2.0 *. r)
  in
  let total = Array.fold_left ( +. ) 0.0 w in
  let p = Array.map (fun x -> x /. total) w in
  let p =
    if precision >= 53 then p
    else
      let scale = Float.ldexp 1.0 precision in
      Array.map (fun x -> Float.floor (x *. scale) /. scale) p
  in
  let s = Array.fold_left ( +. ) 0.0 p in
  Array.map (fun x -> x /. s) p

(* Upper critical value of chi^2 with [df] degrees of freedom at a one-sided
   normal deviate [z] (Wilson-Hilferty). *)
let chi2_critical ~df ~z =
  let k = float_of_int df in
  let a = 2.0 /. (9.0 *. k) in
  k *. ((1.0 -. a +. (z *. sqrt a)) ** 3.0)

(* Tests reject at z = 5 (about 3e-7 one-sided), so a correct sampler
   fails one of the checks of a full set of runs with probability < 1e-4. *)
let z_reject = 5.0

type tally = { support : int; counts : int array; mutable outside : int }

let tally ~support = { support; counts = Array.make ((2 * support) + 1) 0; outside = 0 }

let add_draws t buf n =
  for i = 0 to n - 1 do
    let j = buf.(i) + t.support in
    if j < 0 || j > 2 * t.support then t.outside <- t.outside + 1
    else t.counts.(j) <- t.counts.(j) + 1
  done

type verdict = { draws : int; chi2 : float; df : int; chi2_max : float; sign_z : float; ok : bool }

let gaussian_verdict t ~sigma ~precision =
  let law = magnitude_law ~sigma ~precision ~support:t.support in
  let mag v =
    if v = 0 then t.counts.(t.support)
    else t.counts.(t.support + v) + t.counts.(t.support - v)
  in
  let draws = Array.fold_left ( + ) 0 t.counts in
  let n = float_of_int draws in
  (* Bins 0..k-1 one magnitude each while the expected count stays >= 20,
     then one bin for the rest of the tail. *)
  let chi2 = ref 0.0 and bins = ref 0 and v = ref 0 in
  while !v <= t.support && n *. law.(!v) >= 20.0 do
    let e = n *. law.(!v) in
    let d = float_of_int (mag !v) -. e in
    chi2 := !chi2 +. (d *. d /. e);
    incr bins;
    incr v
  done;
  let tail_e = ref 0.0 and tail_o = ref 0 in
  for u = !v to t.support do
    tail_e := !tail_e +. (n *. law.(u));
    tail_o := !tail_o + mag u
  done;
  (* A tail the truncated table gives no mass must stay empty. *)
  let impossible = !tail_e = 0.0 && !tail_o > 0 in
  if !tail_e > 0.0 then begin
    let d = float_of_int !tail_o -. !tail_e in
    chi2 := !chi2 +. (d *. d /. !tail_e);
    incr bins
  end;
  let df = max 1 (!bins - 1) in
  let chi2_max = chi2_critical ~df ~z:z_reject in
  let pos = ref 0 and neg = ref 0 in
  for u = 1 to t.support do
    pos := !pos + t.counts.(t.support + u);
    neg := !neg + t.counts.(t.support - u)
  done;
  let sign_z =
    if !pos + !neg = 0 then 0.0
    else float_of_int (!pos - !neg) /. sqrt (float_of_int (!pos + !neg))
  in
  let ok =
    t.outside = 0 && (not impossible) && draws > 0 && !chi2 <= chi2_max
    && Float.abs sign_z <= z_reject
  in
  { draws = draws + t.outside; chi2 = !chi2; df; chi2_max; sign_z; ok }

(* ------------------------------------------------------------------ *)
(* Falcon signatures                                                   *)
(* ------------------------------------------------------------------ *)

let q = 12289

(* HashToPoint (Falcon specification, Alg. 3): SHAKE128(salt ‖ msg) read
   as big-endian 16-bit words; a word below 5q is kept mod q. *)
let hash_to_point ~n ~salt ~msg =
  let xof = Ctg_prng.Keccak.shake128 (Bytes.cat salt msg) in
  let c = Array.make n 0 and i = ref 0 in
  while !i < n do
    let b = Ctg_prng.Keccak.squeeze xof 2 in
    let w = (Char.code (Bytes.get b 0) lsl 8) lor Char.code (Bytes.get b 1) in
    if w < 5 * q then begin
      c.(!i) <- w mod q;
      incr i
    end
  done;
  c

(* a·b mod (x^n + 1), coefficients mod q in [0, q).  Schoolbook: the
   products stay far below 2^62 for signature-sized inputs. *)
let mul_negacyclic a b =
  let n = Array.length a in
  let acc = Array.make n 0 in
  for i = 0 to n - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      for j = 0 to n - 1 - i do
        acc.(i + j) <- acc.(i + j) + (ai * b.(j))
      done;
      for j = n - i to n - 1 do
        acc.(i + j - n) <- acc.(i + j - n) - (ai * b.(j))
      done
    end
  done;
  Array.map (fun x -> ((x mod q) + q) mod q) acc

let centered x =
  let x = ((x mod q) + q) mod q in
  if x > q / 2 then x - q else x

(* A Falcon signature (salt, s2) on [msg] under public key [h] is valid
   when s1 := c - s2·h (mod q, centred) gives ‖(s1, s2)‖² <= [bound], with
   c = HashToPoint(salt ‖ msg).  When the signer also returned its [s1],
   it must satisfy s1 + s2·h ≡ c and is the one whose norm counts. *)
let signature_ok ~h ~bound ~msg ~salt ~s2 ?s1 () =
  let n = Array.length h in
  Array.length s2 = n
  &&
  let c = hash_to_point ~n ~salt ~msg in
  let p = mul_negacyclic s2 h in
  let r = Array.init n (fun i -> centered (c.(i) - p.(i))) in
  let s1, consistent =
    match s1 with
    | None -> (r, true)
    | Some s1 ->
      ( s1,
        Array.length s1 = n
        && Array.for_all2 (fun a b -> centered (a - b) = 0) s1 r )
  in
  let sq a = Array.fold_left (fun acc x -> acc + (x * x)) 0 a in
  consistent && float_of_int (sq s1 + sq s2) <= bound
