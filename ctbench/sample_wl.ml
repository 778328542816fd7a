(* The [sample] workload: the paper's sampler alone.  Batches through
   [Ctgauss.Sampler.batch_signed] at sigma = 2 and 6.15543 (128-bit
   precision) and sigma = 215 (16-bit), plus sigma = 2 through the
   per-sample [Sampler_sig] path the Falcon signer uses, all on one
   ChaCha20 stream and one domain.  No Falcon or serving code runs. *)

open Common
module Bs = Ctg_prng.Bitstream
module Sampler = Ctgauss.Sampler
module Sig = Ctg_samplers.Sampler_sig

let tail_cut = 13

(* [batches] per window is set so every window takes a few milliseconds. *)
type arm = {
  label : string;  (** Metric suffix. *)
  sigma : string;
  precision : int;
  batches : int;
  per_sample : bool;
}

let arms =
  [|
    { label = "sigma2"; sigma = "2"; precision = 128; batches = 96; per_sample = false };
    { label = "sigma6"; sigma = "6.15543"; precision = 128; batches = 64; per_sample = false };
    { label = "sigma215"; sigma = "215"; precision = 16; batches = 160; per_sample = false };
    { label = "sigma2"; sigma = "2"; precision = 128; batches = 64; per_sample = true };
  |]

(* The three batch arms compile a sampler each; the per-sample arm draws
   from a clone of the sigma = 2 one. *)
let compiled = 3
let setup_reps = 7
let warmup_rounds = 20
let lanes = Ctgauss.Bitslice.lanes

type state = {
  arm : arm;
  sampler : Sampler.t;
  inst : Sig.instance option;
  buf : int array;
  tally : Check.tally;
  ns_per_sample : Fbuf.t;  (** Untraced windows. *)
  traced_ns : Fbuf.t;  (** Traced windows (traced run only). *)
  mutable last_ns : float;  (** The latest window, before scaling. *)
  mutable bits : int;
  mutable drawn : int;
  mutable words : float;  (** Minor words allocated inside the windows. *)
  mutable resamples : int;
}

(* Compile the three samplers [setup_reps] times; set-up time is the
   median of the rounds, and the last round's samplers are used. *)
let setup () =
  let totals = Fbuf.create () in
  let per = Array.init compiled (fun _ -> Fbuf.create ()) in
  let last = ref [||] in
  for _ = 1 to setup_reps do
    (* Every repetition starts from the same compacted heap. *)
    Gc.compact ();
    let ref0 = Reference.setup_time () in
    let times = Array.make compiled 0.0 in
    last :=
      Array.init compiled (fun i ->
          let a = arms.(i) in
          let t0 = now_ns () in
          let s = Sampler.create ~sigma:a.sigma ~precision:a.precision ~tail_cut () in
          times.(i) <- seconds_since t0;
          s);
    let ref_ns = (ref0 +. Reference.setup_time ()) /. 2.0 in
    Array.iteri (fun i t -> Fbuf.add per.(i) (Reference.scale ~ref_ns t)) times;
    Fbuf.add totals (Reference.scale ~ref_ns (Array.fold_left ( +. ) 0.0 times))
  done;
  (!last, median_fbuf totals, Array.map median_fbuf per)

let state_of samplers i arm =
  let sampler = if arm.per_sample then Sampler.clone samplers.(0) else samplers.(i) in
  let support = int_of_float (Float.floor (float_of_int tail_cut *. float_of_string arm.sigma)) in
  {
    arm;
    sampler;
    inst = (if arm.per_sample then Some (Sig.of_bitsliced sampler) else None);
    buf = Array.make (arm.batches * lanes) 0;
    tally = Check.tally ~support;
    ns_per_sample = Fbuf.create ();
    traced_ns = Fbuf.create ();
    last_ns = 0.0;
    bits = 0;
    drawn = 0;
    words = 0.0;
    resamples = 0;
  }

(* One fixed-size window of draws, tallied afterwards (outside the
   timing).  With [spans], each batch or per-sample call is a span. *)
let window st rng ~spans ~record =
  let n = st.arm.batches * lanes in
  let bits0 = Bs.bits_consumed rng in
  let res0 = Sampler.resamples st.sampler in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  (match (st.inst, spans) with
  | None, None ->
    for b = 0 to st.arm.batches - 1 do
      Array.blit (Sampler.batch_signed st.sampler rng) 0 st.buf (b * lanes) lanes
    done
  | Some inst, None ->
    for i = 0 to n - 1 do
      st.buf.(i) <- Sig.sample_signed inst rng
    done
  | None, Some (sp, ix) ->
    for b = 0 to st.arm.batches - 1 do
      let s0 = now_ns () in
      let a = Sampler.batch_signed st.sampler rng in
      Spans.record sp ix s0 (now_ns ());
      Array.blit a 0 st.buf (b * lanes) lanes
    done
  | Some inst, Some (sp, ix) ->
    for b = 0 to st.arm.batches - 1 do
      let s0 = now_ns () in
      for i = b * lanes to ((b + 1) * lanes) - 1 do
        st.buf.(i) <- Sig.sample_signed inst rng
      done;
      Spans.record sp ix s0 (now_ns ())
    done);
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  if record then begin
    st.last_ns <- float_of_int (t1 - t0) /. float_of_int n;
    st.words <- st.words +. (w1 -. w0);
    st.bits <- st.bits + (Bs.bits_consumed rng - bits0);
    st.resamples <- st.resamples + (Sampler.resamples st.sampler - res0);
    st.drawn <- st.drawn + n
  end;
  Check.add_draws st.tally st.buf n

(* Layer micro-windows of the traced run: PRNG words drawn alone, and the
   gate kernel on pre-drawn inputs. *)
let word_window rng buf =
  let t0 = now_ns () in
  for i = 0 to Array.length buf - 1 do
    buf.(i) <- Bs.next_word rng
  done;
  float_of_int (now_ns () - t0) /. float_of_int (Array.length buf)

let kernel_window sampler rng inputs =
  let prog = Sampler.program sampler in
  let scratch = Ctgauss.Bitslice.scratch prog in
  Array.iter
    (fun a ->
      for i = 0 to Array.length a - 1 do
        a.(i) <- Bs.next_word rng
      done)
    inputs;
  let t0 = now_ns () in
  Array.iter (fun a -> Ctgauss.Bitslice.eval prog scratch ~inputs:a) inputs;
  float_of_int (now_ns () - t0) /. float_of_int (Array.length inputs * lanes)

let run ~seed ~seconds ~trace =
  let samplers, setup_s, compile_s = setup () in
  Gc.compact ();
  let states = Array.mapi (state_of samplers) arms in
  let rng = Bs.of_chacha (Ctg_prng.Chacha20.of_seed (Printf.sprintf "ctbench/sample/%d" seed)) in
  let sp = Spans.create (Array.length arms) in
  let word_ns = Fbuf.create () and word_buf = Array.make 4096 0 in
  let kernel_ns = Array.init compiled (fun _ -> Fbuf.create ()) in
  let kernel_inputs =
    Array.map
      (fun s -> Array.init 32 (fun _ -> Array.make (Sampler.program s).Ctgauss.Gate.num_vars 0))
      samplers
  in
  (* A round times one window per arm, each beside a reference time;
     every window of the round is scaled by the median of those. *)
  let refs = Array.make (Array.length states + 1) 0.0 in
  let round_rate = Fbuf.create () in
  let round ~record ~traced =
    Array.iteri
      (fun i st ->
        refs.(i) <- Reference.time ();
        window st rng ~spans:(if traced then Some (sp, i) else None) ~record)
      states;
    refs.(Array.length states) <- Reference.time ();
    let ref_ns = median refs in
    if record then begin
      Array.iter
        (fun st ->
          Fbuf.add (if traced then st.traced_ns else st.ns_per_sample)
            (Reference.scale ~ref_ns st.last_ns))
        states;
      (* The round's throughput: its samples over its scaled time. *)
      if not traced then begin
        let n st = float_of_int (st.arm.batches * lanes) in
        let ns = Array.fold_left (fun acc st -> acc +. (n st *. st.last_ns)) 0.0 states in
        let samples = Array.fold_left (fun acc st -> acc +. n st) 0.0 states in
        Fbuf.add round_rate (samples /. (Reference.scale ~ref_ns ns *. 1e-9))
      end;
      if trace then begin
        Fbuf.add word_ns (Reference.scale ~ref_ns (word_window rng word_buf));
        Array.iteri
          (fun i s ->
            Fbuf.add kernel_ns.(i)
              (Reference.scale ~ref_ns (kernel_window s rng kernel_inputs.(i))))
          samplers
      end
    end
  in
  for _ = 1 to warmup_rounds do
    round ~record:false ~traced:false
  done;
  (* Whole rounds until the time is up; a traced run alternates traced
     and untraced rounds, whose difference is the tracing overhead. *)
  let t_start = now_ns () in
  let rounds = ref 0 in
  while seconds_since t_start < seconds do
    round ~record:true ~traced:(trace && !rounds land 1 = 1);
    incr rounds
  done;
  let verdicts =
    Array.map
      (fun st ->
        Check.gaussian_verdict st.tally ~sigma:(float_of_string st.arm.sigma)
          ~precision:st.arm.precision)
      states
  in
  Array.iter2
    (fun st (v : Check.verdict) ->
      Printf.printf "check %-8s %s: %d draws, chi2 %.1f (df %d, max %.1f), sign z %.2f -> %s\n"
        st.arm.label (if st.arm.per_sample then "per-sample" else "batch")
        v.draws v.chi2 v.df v.chi2_max v.sign_z (if v.ok then "ok" else "FAILED"))
    states verdicts;
  let attempted = Array.fold_left (fun acc (v : Check.verdict) -> acc + v.draws) 0 verdicts in
  let failed =
    Array.fold_left (fun acc (v : Check.verdict) -> if v.ok then acc else acc + v.draws) 0 verdicts
  in
  let ns i = median_fbuf states.(i).ns_per_sample in
  let drawn st = float_of_int st.drawn in
  let arms_geomean f = geomean (Array.map f states) in
  let metrics =
    if not trace then
      [
        metric "setup_s" "s" setup_s;
        metric "ops_per_s" "op/s" (median_fbuf round_rate);
        metric "op_ns" "ns/op" (arms_geomean (fun st -> median_fbuf st.ns_per_sample));
        metric "alloc_words_per_op" "words/op"
          (Array.fold_left (fun acc st -> acc +. st.words) 0.0 states
          /. Array.fold_left (fun acc st -> acc +. drawn st) 0.0 states);
      ]
    else begin
      let word = median_fbuf word_ns in
      let kernel k = median_fbuf kernel_ns.(k) in
      let bits i = float_of_int states.(i).bits /. drawn states.(i) in
      let gates i = float_of_int (Sampler.gate_count samplers.(i)) in
      (* Words per sample: bits per sample over the 64 bits each lane word
         costs the stream. *)
      let deslice = ns 0 -. (bits 0 /. 64.0 *. word) -. kernel 0 in
      let overhead =
        100.0 *. (median_fbuf states.(0).traced_ns -. ns 0) /. ns 0
      in
      [
        metric "samplers.batch_ns.sigma2" "ns/sample" (ns 0);
        metric "samplers.batch_ns.sigma6" "ns/sample" (ns 1);
        metric "samplers.batch_ns.sigma215" "ns/sample" (ns 2);
        metric "samplers.persample_ns.sigma2" "ns/sample" (ns 3);
        metric "samplers.persample_overhead_ns" "ns/sample" (ns 3 -. ns 0);
        metric "prng.word_ns" "ns/word" word;
        metric "prng.bits_per_sample.sigma2" "bits/sample" (bits 0);
        metric "prng.bits_per_sample.sigma6" "bits/sample" (bits 1);
        metric "prng.bits_per_sample.sigma215" "bits/sample" (bits 2);
        metric "core.kernel_ns.sigma2" "ns/sample" (kernel 0);
        metric "core.kernel_ns.sigma6" "ns/sample" (kernel 1);
        metric "core.kernel_ns.sigma215" "ns/sample" (kernel 2);
        metric "core.gates.sigma2" "gates" (gates 0);
        metric "core.gates.sigma6" "gates" (gates 1);
        metric "core.gates.sigma215" "gates" (gates 2);
        metric "core.deslice_ns.sigma2" "ns/sample" deslice;
        metric "core.alloc_words_per_sample.sigma2" "words/sample"
          (states.(0).words /. drawn states.(0));
        metric "core.fallback_per_Msample.sigma215" "1/Msample"
          (1e6 *. float_of_int states.(2).resamples /. drawn states.(2));
        metric "core.compile_s.sigma2" "s" compile_s.(0);
        metric "core.compile_s.sigma6" "s" compile_s.(1);
        metric "core.compile_s.sigma215" "s" compile_s.(2);
        metric "trace.overhead_pct.sample" "%" overhead;
      ]
    end
  in
  { attempted; failed; metrics }
