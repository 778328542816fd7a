(* Timing, statistics, spans and result output shared by the workloads. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Growable float buffer for per-window and per-operation observations. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Quantile by linear interpolation between closest ranks, [q] in [0, 1]. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

let median_fbuf b = median (Fbuf.to_array b)

let geomean a =
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 a /. float_of_int (Array.length a))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Span totals recorded around the benchmark's calls into the repo's
   layers in a traced run: the summed time per span name. *)
module Spans = struct
  type t = int array

  let create k : t = Array.make k 0
  let record (t : t) ix t0 t1 = t.(ix) <- t.(ix) + (t1 - t0)
  let total_ns (t : t) ix = t.(ix)
end

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one part of a run checked and measured: operations attempted,
   those whose output failed its check, and the metrics. *)
type outcome = { attempted : int; failed : int; metrics : metric list }

(* The last line of standard output: the one JSON object the benchmark's
   caller reads. *)
let print_result { attempted; failed; metrics } =
  let field m =
    if not (Float.is_finite m.value) then
      failwith (Printf.sprintf "metric %s is not finite" m.name);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map field metrics))

(* Signing keys come from a fixed seed: key generation is set-up work,
   timed, and must cost the same on every seed. *)
let key_seed = "ctbench/key"

(* Deterministic input bytes derived from the workload seed. *)
let input_stream ~workload ~seed =
  Ctg_prng.Chacha20.of_seed (Printf.sprintf "ctbench/%s/inputs/%d" workload seed)

let message stream = Ctg_prng.Chacha20.next_bytes stream 48
