(* The reference kernel, frozen in the benchmark: a fixed mix of the kinds
   of work the workloads time — a branchless gate pass over lane words as
   in [Bitslice.eval], ChaCha-style add-rotate-xor rounds, FFT-style float
   butterflies, and sequential stores as fresh minor-heap blocks are
   written.

   On shared virtual machines such as the 2-vCPU KVM guest (Intel Xeon,
   Sapphire Rapids) the benchmark was tuned on, other tenants slow the
   cores now and then, for seconds to minutes at a time and by up to 1.5x
   on cache- and port-bound code; the repo's code and this kernel slow
   together.  Every window a workload times is scaled by the reference
   time measured beside it, so figures are in "reference ns": the time
   the operation would take on a host that runs this kernel in
   [nominal_ns] (that guest when quiet).  The kernel's code and data never
   change, so a change to the repo moves the workloads' times and not the
   reference. *)

let vars = 128
let gates = 4096

let xs, ys, m1, m2 =
  let st = Ctg_prng.Splitmix64.create 0x5eedL in
  let r k = Ctg_prng.Splitmix64.next_int st k in
  let xs = Array.init gates (fun i -> r (vars + i)) in
  let ys = Array.init gates (fun i -> r (vars + i)) in
  let kind = Array.init gates (fun _ -> r 3) in
  ( xs,
    ys,
    Array.map (fun k -> if k <= 1 then -1 else 0) kind,
    Array.map (fun k -> if k >= 1 then -1 else 0) kind )

let regs = Array.init (vars + gates) (fun i -> i * 0x1e3779b97f4a7c15)

let gate_pass () =
  for i = 0 to gates - 1 do
    let a = Array.unsafe_get regs (Array.unsafe_get xs i) in
    let b = Array.unsafe_get regs (Array.unsafe_get ys i) in
    Array.unsafe_set regs (vars + i)
      (a land b land Array.unsafe_get m1 i lor ((a lxor b) land Array.unsafe_get m2 i))
  done

let st = Array.init 16 (fun i -> i * 0x01010101)

let arx_pass () =
  let m = 0xffffffff in
  let rotl x k = ((x lsl k) lor (x lsr (32 - k))) land m in
  let qr a b c d =
    st.(a) <- (st.(a) + st.(b)) land m;
    st.(d) <- rotl (st.(d) lxor st.(a)) 16;
    st.(c) <- (st.(c) + st.(d)) land m;
    st.(b) <- rotl (st.(b) lxor st.(c)) 12;
    st.(a) <- (st.(a) + st.(b)) land m;
    st.(d) <- rotl (st.(d) lxor st.(a)) 8;
    st.(c) <- (st.(c) + st.(d)) land m;
    st.(b) <- rotl (st.(b) lxor st.(c)) 7
  in
  for _ = 1 to 10 do
    qr 0 4 8 12;
    qr 1 5 9 13;
    qr 2 6 10 14;
    qr 3 7 11 15;
    qr 0 5 10 15;
    qr 1 6 11 12;
    qr 2 7 8 13;
    qr 3 4 9 14
  done

let re = Array.init 1024 (fun i -> float_of_int i /. 1024.0)
let im = Array.init 1024 (fun i -> float_of_int (1024 - i) /. 1024.0)

let float_pass () =
  let h = Array.length re / 2 in
  let c = 0.9995 and s = 0.0316 in
  for i = 0 to h - 1 do
    let ar = re.(i) and ai = im.(i) and br = re.(i + h) and bi = im.(i + h) in
    let tr = (br *. c) -. (bi *. s) and ti = (br *. s) +. (bi *. c) in
    re.(i) <- (ar +. tr) *. 0.5;
    im.(i) <- (ai +. ti) *. 0.5;
    re.(i + h) <- (ar -. tr) *. 0.5;
    im.(i + h) <- (ai -. ti) *. 0.5
  done

(* Sequential stores through a 2 MiB region, as fresh minor-heap blocks
   are written: 256 blocks of 27 words (a header and its fields) per
   pass, moving on through the region from pass to pass.  Nothing is
   allocated, so the kernel neither triggers a workload's garbage
   collections nor is slowed by them. *)
let heap = Array.make (1 lsl 18) 0
let cursor = ref 0
let block_words = 27

let store_pass () =
  let c = if !cursor + (256 * block_words) > Array.length heap then 0 else !cursor in
  for b = 0 to 255 do
    let o = c + (b * block_words) in
    for j = 0 to block_words - 1 do
      Array.unsafe_set heap (o + j) (b + j)
    done
  done;
  cursor := c + (256 * block_words)

(* The shares of the kernel's time — gate 0.3, ARX 0.3, float 0.2,
   heap stores 0.2 — are the mix whose time tracked the σ = 2 and σ = 215
   batches and a Falcon-512 signature best over 150 s of that guest's
   varying speed: per-second medians of each, divided by the kernel's,
   moved with a standard deviation of 2.5–3% in log, against 15–17% for
   the raw times.  The fit was made with minor-heap allocations where
   the stores are; the stores keep their share without sharing the
   workloads' minor heap. *)
let once_ns () =
  let t0 = Common.now_ns () in
  for _ = 1 to 2 do
    gate_pass ()
  done;
  for _ = 1 to 17 do
    arx_pass ()
  done;
  for _ = 1 to 6 do
    float_pass ()
  done;
  store_pass ();
  store_pass ();
  Common.now_ns () - t0

(* The kernel's time on that guest when quiet, in ns. *)
let nominal_ns = 80_000.0

(* One run of the kernel, in ns. *)
let once () = float_of_int (once_ns ())

(* One steadier reference time: the median of three runs. *)
let time () =
  let a = once_ns () and b = once_ns () and c = once_ns () in
  float_of_int (max (min a b) (min (max a b) c))

(* A reference time for set-up, which runs long between two of them and
   leaves the caches cold: the median of 21 runs, so the first few,
   which warm the kernel's working set up again, do not count. *)
let setup_time () = Common.median (Array.init 21 (fun _ -> once ()))

(* [ns] measured beside reference time [ref_ns], in reference ns. *)
let scale ~ref_ns ns = ns *. nominal_ns /. ref_ns
