(* The serving layers, measured in every traced run:
   a [Serve.Daemon] at n = 512, sigma = 2, precision 128 in a process of
   its own (so the load generator's GC never stops the daemon's domains),
   driven by two closed-loop keep-alive client connections that each POST
   /v1/sign for one tenant and wait for the reply.  It is the only load
   with the request path, the batcher's coalescing and linger, and a
   daemon doing its own monitoring, and the only one where two domains
   sign at once.

   It is not a workload of its own, and none of its figures is gated: on
   a shared 2-vCPU KVM guest (Intel Xeon) the daemon's throughput, latency and start-up time
   moved between identical runs by 17-33% (p50), 22-64% (p99) and up to
   57% (start-up) between quartiles, beyond any bound a regression gate
   can use, and no reference kernel followed them.  A request here is
   mostly sleeping and waking (the linger, socket waits, condition
   variables, and the stop-the-world minor collections a multi-domain
   process makes every domain join), and the wake-ups are what varies.
   Every reply is still checked. *)

open Common
module F = Ctg_falcon
module Client = Ctg_net.Client
module Jsonx = Ctg_obs.Jsonx

let tenant = "bench"
let clients = 2
(* The load runs in rounds of [round_ns]; a request belongs to the round
   it was sent in.  Round 0 warms up; every other round after it is
   traced. *)
let round_ns = 500_000_000

(* Two sign domains.  While ffSampling's scratch buffer is process-global
   (see the README), the two domains corrupt each other's tree walks:
   signatures take several attempts, and a request that runs out of
   attempts gets an HTTP 500, reported in [serve.error_pct]. *)
let config ~seed =
  {
    Ctg_serve.Daemon.default_config with
    n = 512;
    sigma = "2";
    precision = 128;
    tail_cut = 13;
    port = 0;
    http_workers = 2;
    sign_domains = Some 2;
    seed = Printf.sprintf "ctbench/serve/%d" seed;
    key_seed;
  }

(* The daemon process: print the bound port, serve until standard input
   closes, then drain. *)
let daemon ~seed =
  let d = Ctg_serve.Daemon.create (config ~seed) in
  Printf.printf "port %d\n%!" (Ctg_serve.Daemon.port d);
  (try
     while true do
       ignore (input_line stdin : string)
     done
   with End_of_file -> ());
  Ctg_serve.Daemon.stop d

type daemon = { pid : int; port : int; to_child : out_channel; from_child : in_channel }

let start_daemon ~seed =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "daemon"; "--seed"; string_of_int seed |] in_r out_w
      Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let from_child = Unix.in_channel_of_descr out_r in
  let port =
    match input_line from_child with
    | line -> Scanf.sscanf line "port %d" Fun.id
    | exception End_of_file -> failwith "serve: the daemon exited before listening"
  in
  { pid; port; to_child = Unix.out_channel_of_descr in_w; from_child }

let stop_daemon d =
  close_out d.to_child;
  ignore (Unix.waitpid [] d.pid : int * Unix.process_status);
  close_in d.from_child

let get_ok ~port path =
  let r = Client.get ~port path in
  if r.Client.status <> 200 then
    failwith (Printf.sprintf "GET %s -> %d" path r.Client.status);
  r.Client.body

let json_member k j =
  match Jsonx.member k j with Some v -> v | None -> failwith ("missing " ^ k)

let num k j =
  match Jsonx.to_float (json_member k j) with Some v -> v | None -> failwith ("bad " ^ k)

let str k j =
  match Jsonx.to_str (json_member k j) with Some v -> v | None -> failwith ("bad " ^ k)

let parse body = match Jsonx.parse body with Ok j -> j | Error e -> failwith e

(* Set-up: daemon start (compile, self-test, monitors, listener) plus the
   tenant's first key, which [GET /v1/pubkey] generates. *)
let setup ~seed =
  let t0 = now_ns () in
  let d = start_daemon ~seed in
  let pk = parse (get_ok ~port:d.port ("/v1/pubkey?tenant=" ^ tenant)) in
  (d, pk, seconds_since t0)

type req = {
  msg : bytes;
  round : int;
  t0 : int;
  t1 : int;
  status : int;
  body : string;
}

let client ~stop ~port ~seed ~id ~t_origin =
  let c = Client.connect ~port ~timeout:60.0 () in
  let inputs = input_stream ~workload:(Printf.sprintf "serve/client%d" id) ~seed in
  let out = ref [] in
  let sp = Spans.create 1 in
  while not (Atomic.get stop) do
    let msg = message inputs in
    let t0 = now_ns () in
    let round = (t0 - t_origin) / round_ns in
    let r =
      Client.request c ~meth:"POST" ~path:("/v1/sign?tenant=" ^ tenant)
        ~body:(Bytes.to_string msg) ()
    in
    let t1 = now_ns () in
    (* Traced requests read the daemon's reply on the spot: the work a
       per-request tracer adds to the loop. *)
    if round land 1 = 1 then begin
      ignore (parse r.Client.body : Jsonx.t);
      Spans.record sp 0 t0 t1
    end;
    out := { msg; round; t0; t1; status = r.Client.status; body = r.Client.body } :: !out
  done;
  Client.close c;
  !out

(* Sum over label sets of one series of the daemon's text exposition. *)
let series text name =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ' ' with
      | Some i when line.[0] <> '#' ->
        let key = String.sub line 0 i in
        let key = match String.index_opt key '{' with Some j -> String.sub key 0 j | None -> key in
        if key = name then
          acc +. float_of_string (String.trim (String.sub line i (String.length line - i)))
        else acc
      | _ -> acc)
    0.0
    (String.split_on_char '\n' text)

let mean_series text name = series text (name ^ "_sum") /. series text (name ^ "_count")

(* Drive the daemon for [seconds].  The operations are the 200 replies,
   each checked; a failed one is an invalid signature.  The non-200
   replies (the ffSampling fault's HTTP 500s) come now and then, so they
   are reported as [serve.error_pct], not as failed operations. *)
let run ~seed ~seconds =
  let d, pk, setup_s = setup ~seed in
  let params = Ctg_serve.Daemon.params_of_n (int_of_float (num "n" pk)) in
  let h =
    match F.Codec.decode_public_key ~n:params.F.Params.n (Ctg_util.Hex.decode (str "pk" pk)) with
    | Some h -> h
    | None -> failwith "serve: undecodable public key"
  in
  let bound = F.Sign.norm_bound_sq params in
  let stop = Atomic.make false in
  let t_origin = now_ns () in
  let workers =
    Array.init clients (fun id ->
        Domain.spawn (fun () -> client ~stop ~port:d.port ~seed ~id ~t_origin))
  in
  (* Whole rounds: the warm-up round, then as many as fill [seconds]. *)
  let rounds = 1 + int_of_float (Float.ceil (seconds *. 1e9 /. float_of_int round_ns)) in
  Unix.sleepf (float_of_int ((rounds * round_ns) - (now_ns () - t_origin)) *. 1e-9);
  Atomic.set stop true;
  let reqs = List.concat_map Domain.join (Array.to_list workers) in
  let metrics_text = get_ok ~port:d.port "/metrics" in
  stop_daemon d;
  (* Checks, after the daemon has stopped. *)
  let non200 = ref 0 and invalid = ref 0 and attempts = ref 0.0 and batch = ref 0.0 in
  let served = ref 0 in
  let lat = Array.init 2 (fun _ -> Fbuf.create ()) in
  let done_in = Array.make rounds 0 and busy_us = Array.make rounds 0.0 in
  let net = Fbuf.create () in
  List.iter
    (fun q ->
      if q.status <> 200 then incr non200
      else begin
        let j = parse q.body in
        let sig_ok =
          match F.Codec.decode_signature ~params (Ctg_util.Hex.decode (str "sig" j)) with
          | Some (salt, s2) ->
            str "tenant" j = tenant && Check.signature_ok ~h ~bound ~msg:q.msg ~salt ~s2 ()
          | None -> false
        in
        if not sig_ok then incr invalid
        else if q.round > 0 && q.round < rounds then begin
          let us = float_of_int (q.t1 - q.t0) /. 1e3 in
          Fbuf.add lat.(q.round land 1) us;
          Fbuf.add net (us -. (num "latency_ns" j /. 1e3));
          done_in.(q.round) <- done_in.(q.round) + 1;
          busy_us.(q.round) <- busy_us.(q.round) +. us;
          attempts := !attempts +. num "attempts" j;
          batch := !batch +. num "batch" j;
          incr served
        end
      end)
    reqs;
  (* A round's rate, by Little's law for a closed loop: the clients over
     the mean latency of the valid answers to the requests sent in it. *)
  let rates =
    Array.init (rounds - 1) (fun k ->
        float_of_int (clients * done_in.(k + 1)) /. (busy_us.(k + 1) *. 1e-6))
  in
  let requests = List.length reqs in
  Printf.printf "check: %d requests, %d not 200, %d invalid signatures\n" requests !non200
    !invalid;
  let lat_a = Fbuf.to_array lat.(0) in
  let served = float_of_int !served in
  let p50 = quantile lat_a 0.5 in
  {
    attempted = requests - !non200;
    failed = !invalid;
    metrics =
    [
      metric "serve.setup_s" "s" setup_s;
      metric "serve.per_s" "req/s" (median rates);
      metric "serve.p50_us" "us" p50;
      metric "serve.p99_us" "us" (quantile lat_a 0.99);
      metric "serve.queue_wait_us" "us" (mean_series metrics_text "serve_queue_wait_ns" /. 1e3);
      metric "serve.service_us" "us" (mean_series metrics_text "serve_service_ns" /. 1e3);
      metric "serve.batch_size" "req/batch" (!batch /. served);
      metric "serve.attempts_per_sig" "attempts/sig" (!attempts /. served);
      metric "serve.shed" "count" (series metrics_text "serve_shed_total");
      metric "serve.error_pct" "%" (100.0 *. float_of_int !non200 /. float_of_int requests);
      metric "net.overhead_us" "us" (median_fbuf net);
      metric "trace.overhead_pct.serve" "%" (100.0 *. (median_fbuf lat.(1) -. p50) /. p50);
    ];
  }
