(* Entry point:
     ctbench.exe (sample|sign) --seed N --seconds S --trace 0|1
     ctbench.exe daemon --seed N      (the daemon process of the traced run)
   The last line of standard output is the run's JSON result.

   With --trace 0 a workload prints the end-to-end metrics, which both
   workloads report under the same names.  With --trace 1 it runs the
   whole per-layer ledger: the sample layers, the Falcon layers and the
   serve phase, the named workload's own part for S seconds and the
   others for a quarter of that (the serve phase for half of it in a
   traced sign run, and for at least 2 s). *)

open Common

let usage () =
  prerr_endline
    "usage: ctbench.exe (sample|sign) --seed N --seconds S --trace 0|1\n\
    \       ctbench.exe daemon --seed N";
  exit 2

let ledger ~workload ~seed ~seconds =
  let share own = if own then seconds else seconds /. 4.0 in
  let parts =
    [
      Sample_wl.run ~seed ~seconds:(share (workload = "sample")) ~trace:true;
      Sign_wl.run ~seed ~seconds:(share (workload = "sign")) ~trace:true;
      Serve_wl.run ~seed ~seconds:(Float.max 2.0 (share (workload = "sign") /. 2.0));
    ]
  in
  List.fold_left
    (fun acc o ->
      {
        attempted = acc.attempted + o.attempted;
        failed = acc.failed + o.failed;
        metrics = acc.metrics @ o.metrics;
      })
    { attempted = 0; failed = 0; metrics = [] }
    parts

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | [] -> usage ()
  | workload :: rest -> (
    let o = opts [] rest in
    let get k conv =
      match List.assoc_opt k o with
      | None -> usage ()
      | Some v -> ( try conv v with _ -> usage ())
    in
    let seed = get "seed" int_of_string in
    let seconds () = get "seconds" float_of_string in
    let trace () = get "trace" (fun v -> int_of_string v <> 0) in
    match workload with
    | "sample" | "sign" ->
      let seconds = seconds () in
      print_result
        (if trace () then ledger ~workload ~seed ~seconds
         else if workload = "sample" then Sample_wl.run ~seed ~seconds ~trace:false
         else Sign_wl.run ~seed ~seconds ~trace:false)
    | "daemon" -> Serve_wl.daemon ~seed
    | _ -> usage ())
