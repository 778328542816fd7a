(* The [sign] workload: the paper's Table 1 loop at Falcon-512
   ([Params.level2]) in a closed loop on one domain.  Each operation is
   [Sign.sign] with verify-after-sign, then [Codec.encode_signature]; the
   base sampler is the sigma = 2 bitsliced sampler and the randomness a
   [Stream_fork] ChaCha20 lane with its health tests on, as the daemon
   signs. *)

open Common
module F = Ctg_falcon
module Sig = Ctg_samplers.Sampler_sig
module Registry = Ctg_obs.Registry

let params = F.Params.level2
let setup_reps = 7
let window_sigs = 16
let warmup_sigs = 16

(* The share of the traced p50 that the stage times may leave
   unexplained: the target computation (FFT of c, two products, two
   scalings), the salt, the norm and the span bookkeeping sit outside
   every stage. *)
let residual_share = 0.15

let setup () =
  let totals = Fbuf.create () and keygen = Fbuf.create () in
  let last = ref None in
  for _ = 1 to setup_reps do
    (* Every repetition starts from the same compacted heap. *)
    Gc.compact ();
    let ref0 = Reference.setup_time () in
    let t0 = now_ns () in
    let sampler = Ctgauss.Sampler.create ~sigma:"2" ~precision:128 ~tail_cut:13 () in
    let t1 = now_ns () in
    let kp =
      F.Keygen.generate params
        (Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed key_seed))
    in
    let t2 = now_ns () in
    let ref_ns = (ref0 +. Reference.setup_time ()) /. 2.0 in
    Fbuf.add keygen (Reference.scale ~ref_ns (float_of_int (t2 - t1) *. 1e-9));
    Fbuf.add totals (Reference.scale ~ref_ns (float_of_int (t2 - t0) *. 1e-9));
    last := Some (sampler, kp)
  done;
  (Option.get !last, median_fbuf totals, median_fbuf keygen)

let stages = [| "hash_to_point"; "ff_sampling"; "ntt"; "verify_after_sign" |]

let stage_sums () =
  Array.map
    (fun s ->
      (Registry.histo_summary
         (Registry.histo Registry.default ~labels:[ ("stage", s) ] "falcon_sign_stage_ns"))
        .Ctg_obs.Histo.sum)
    stages

type sig_out = { msg : bytes; s : F.Sign.signature; enc : bytes }

(* A recorded window: busy time and per-signature latencies (reference
   us) and, in a traced window, the reference ns the signer's stages, the
   base draws and the encoding took in it. *)
type window = { busy : float; lat : float array; stage_ns : int array; draw_ns : int; encode_ns : int }

let run ~seed ~seconds ~trace =
  let (sampler, kp), setup_s, keygen_s = setup () in
  let bound = F.Sign.norm_bound_sq params in
  let inputs = input_stream ~workload:"sign" ~seed in
  let rng =
    Ctg_engine.Stream_fork.bitstream ~health:true
      ~seed:(Printf.sprintf "ctbench/sign/%d" seed) ~lane:0 ()
  in
  let inst = Sig.of_bitsliced sampler in
  (* The traced instance times every base draw the signer makes. *)
  let sign_ix = 0 and draw_ix = 1 and encode_ix = 2 in
  let sp = Spans.create 3 in
  let traced_inst =
    {
      inst with
      Sig.sample_magnitude =
        (fun bs ->
          let t0 = now_ns () in
          let v = inst.Sig.sample_magnitude bs in
          Spans.record sp draw_ix t0 (now_ns ());
          v);
    }
  in
  let plain = F.Base_sampler.of_instance inst in
  let traced = F.Base_sampler.of_instance traced_inst in
  let outs = Array.make window_sigs None in
  (* Per recorded window: busy time and per-signature latencies, untraced
     and traced windows apart. *)
  let windows = Array.make 2 [] in
  let sigs = ref 0 and attempts = ref 0 and failed = ref 0 and checked = ref 0 in
  let words = ref 0.0 and minor_gcs = ref 0 and draws = ref 0 in
  let one ~record ~traced_op i =
    let msg = message inputs in
    let base = if traced_op then traced else plain in
    let calls0 = F.Base_sampler.calls base in
    let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let s, enc =
      if traced_op then begin
        let s = F.Sign.sign ~check:true kp base rng ~msg in
        let e0 = now_ns () in
        let enc = F.Codec.encode_signature ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2 in
        Spans.record sp encode_ix e0 (now_ns ());
        (s, enc)
      end
      else
        let s = F.Sign.sign ~check:true kp base rng ~msg in
        (s, F.Codec.encode_signature ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2)
    in
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    let gc1 = (Gc.quick_stat ()).Gc.minor_collections in
    if record then begin
      words := !words +. (w1 -. w0);
      minor_gcs := !minor_gcs + (gc1 - gc0);
      draws := !draws + (F.Base_sampler.calls base - calls0);
      attempts := !attempts + s.F.Sign.attempts;
      incr sigs
    end;
    outs.(i) <- Some { msg; s; enc };
    t1 - t0
  in
  let check_window () =
    Array.iter
      (function
        | None -> ()
        | Some o ->
          let ok =
            match F.Codec.decode_signature ~params o.enc with
            | Some (salt, s2) ->
              Bytes.equal salt o.s.F.Sign.salt
              && s2 = o.s.F.Sign.s2
              && Check.signature_ok ~h:kp.F.Keygen.h ~bound ~msg:o.msg ~salt ~s2
                   ~s1:o.s.F.Sign.s1 ()
            | None -> false
          in
          incr checked;
          if not ok then incr failed)
      outs;
    Array.fill outs 0 window_sigs None
  in
  (* A traced window records a span per signature, with the base draws
     and the encoding as its children; in a traced run every other window
     is traced. *)
  let window ~record ~traced_op n =
    let st0 = if traced_op then stage_sums () else [||] in
    let d0 = Spans.total_ns sp draw_ix and e0 = Spans.total_ns sp encode_ix in
    let lat = Array.make n 0.0 and refs = Array.make (n + 1) 0.0 in
    for i = 0 to n - 1 do
      refs.(i) <- Reference.once ();
      let d =
        if traced_op then begin
          let t0 = now_ns () in
          let d = one ~record ~traced_op i in
          Spans.record sp sign_ix t0 (t0 + d);
          d
        end
        else one ~record ~traced_op i
      in
      lat.(i) <- float_of_int d /. 1e3
    done;
    refs.(n) <- Reference.once ();
    if record then begin
      let k = if traced_op then 1 else 0 in
      (* Each signature is scaled by the reference times on either side of
         it; the window's stage and span times by their mean. *)
      let ref_at i = (refs.(i) +. refs.(i + 1)) /. 2.0 in
      let scale = Reference.scale ~ref_ns:(median (Array.init n ref_at)) in
      let scale_int x = int_of_float (scale (float_of_int x)) in
      let stage_ns =
        if traced_op then Array.map2 (fun a b -> scale_int (a - b)) (stage_sums ()) st0
        else [||]
      in
      let lat = Array.mapi (fun i x -> Reference.scale ~ref_ns:(ref_at i) x) lat in
      let w =
        {
          busy = Array.fold_left ( +. ) 0.0 lat;
          lat;
          stage_ns;
          draw_ns = scale_int (Spans.total_ns sp draw_ix - d0);
          encode_ns = scale_int (Spans.total_ns sp encode_ix - e0);
        }
      in
      windows.(k) <- w :: windows.(k)
    end;
    check_window ()
  in
  Gc.compact ();
  window ~record:false ~traced_op:false warmup_sigs;
  let t_start = now_ns () in
  let n_windows = ref 0 in
  while seconds_since t_start < seconds do
    window ~record:true ~traced_op:(trace && !n_windows land 1 = 1) window_sigs;
    incr n_windows
  done;
  Printf.printf "check: %d signatures decoded and verified, %d invalid\n" !checked !failed;
  let recorded k = Array.of_list windows.(k) in
  let rate ws = median (Array.map (fun w -> float_of_int window_sigs /. (w.busy *. 1e-6)) ws) in
  let lat_q ws q = quantile (Array.concat (Array.to_list (Array.map (fun w -> w.lat) ws))) q in
  let per_sig x = x /. float_of_int !sigs in
  let metrics =
    if not trace then
      let ws = recorded 0 in
      [
        metric "setup_s" "s" setup_s;
        metric "ops_per_s" "op/s" (rate ws);
        metric "op_ns" "ns/op" (1e3 *. lat_q ws 0.5);
        metric "alloc_words_per_op" "words/op" (per_sig !words);
      ]
    else begin
      let tw = recorded 1 in
      let per_sig_us f =
        float_of_int (Array.fold_left (fun acc w -> acc + f w) 0 tw)
        /. float_of_int (Array.length tw * window_sigs) /. 1e3
      in
      let stage_us k = per_sig_us (fun w -> w.stage_ns.(k)) in
      let hash = stage_us 0 and ff = stage_us 1 and ntt = stage_us 2 and vas = stage_us 3 in
      let base = per_sig_us (fun w -> w.draw_ns) and encode = per_sig_us (fun w -> w.encode_ns) in
      let p50 = lat_q (recorded 0) 0.5 and p50_traced = lat_q tw 0.5 in
      let explained = hash +. ff +. ntt +. vas +. encode in
      let unexplained = p50_traced -. explained in
      Printf.printf
        "ledger: p50 %.1f us = hash %.1f + ff_sampling %.1f (base draws %.1f, tree walk %.1f) \
         + ntt %.1f + verify %.1f + encode %.1f + unexplained %.1f (%.1f%%; stated residual %.0f%%)\n"
        p50_traced hash ff base (ff -. base) ntt vas encode unexplained
        (100.0 *. unexplained /. p50_traced) (100.0 *. residual_share);
      [
        metric "falcon.sign_per_s" "sig/s" (rate (recorded 0));
        metric "falcon.sign_p50_us" "us" p50;
        metric "falcon.sign_p90_us" "us" (lat_q (recorded 0) 0.9);
        metric "falcon.sign_p99_us" "us" (lat_q (recorded 0) 0.99);
        metric "falcon.hash_to_point_us" "us" hash;
        metric "falcon.ff_sampling_us" "us" ff;
        metric "falcon.base_draw_us" "us" base;
        metric "falcon.tree_walk_us" "us" (ff -. base);
        metric "falcon.ntt_us" "us" ntt;
        metric "falcon.verify_after_sign_us" "us" vas;
        metric "falcon.encode_us" "us" encode;
        metric "falcon.unexplained_us" "us" unexplained;
        metric "falcon.minor_gcs_per_sig" "gcs/sig" (per_sig (float_of_int !minor_gcs));
        metric "falcon.base_draws_per_sig" "draws/sig" (per_sig (float_of_int !draws));
        metric "falcon.attempts_per_sig" "attempts/sig" (per_sig (float_of_int !attempts));
        metric "falcon.keygen_s" "s" keygen_s;
        metric "trace.overhead_pct.sign" "%" (100.0 *. (p50_traced -. p50) /. p50);
      ]
    end
  in
  { attempted = !checked; failed = !failed; metrics }
