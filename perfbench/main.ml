(* The repository benchmark.  One invocation runs one named workload on
   one seed for a fixed measuring window, checks every output it times,
   and prints its metrics as one JSON object on the last line of stdout:
   the end-to-end metrics with [--trace 0], the per-layer metrics with
   [--trace 1].  Per-layer numbers are taken from outside the library,
   by timing calls into each layer's public functions; end-to-end
   numbers never come from a traced run.

     python3 perfbench/run.py --workload resnet20-batch --seed 1 \
       --seconds 30 --trace 0

   perfbench/METRICS.md explains each workload and metric. *)

module Tensor = Ax_tensor.Tensor
module Shape = Ax_tensor.Shape
module Graph = Ax_nn.Graph
module Exec = Ax_nn.Exec
module Axconv = Ax_nn.Axconv
module Im2col = Ax_nn.Im2col
module Filter = Ax_nn.Filter
module Range = Ax_quant.Range
module Q = Ax_quant.Quantization
module Lut = Ax_arith.Lut
module Registry = Ax_arith.Registry
module Cost = Ax_gpusim.Cost
module Device = Ax_gpusim.Device
module Energy = Ax_gpusim.Energy
module Multipliers = Ax_netlist.Multipliers
module Power = Ax_netlist.Power
module Resnet = Ax_models.Resnet
module Lenet = Ax_models.Lenet
module Cifar = Ax_data.Cifar
module Mnist = Ax_data.Mnist
module Emulator = Tfapprox.Emulator
module Check = Ax_analysis.Check
module Pool = Ax_pool.Pool
module Store = Ax_serve.Store
module Server = Ax_serve.Server
module Protocol = Ax_serve.Protocol
module Admission = Ax_serve.Admission
module Client = Ax_serve.Client
module Search = Ax_explore.Search
module Genome = Ax_explore.Genome
module Pareto = Ax_explore.Pareto
module Srng = Ax_explore.Srng

(* ------------------------------------------------------------------ *)
(* Clock, statistics, result record                                    *)
(* ------------------------------------------------------------------ *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, and the number of samples strictly beyond
   it: a tail percentile is reported only with at least ten beyond. *)
let rank n p = max 1 (int_of_float (ceil (p *. float_of_int n)))
let percentile xs p =
  let a = sorted xs in
  a.(rank (Array.length a) p - 1)

let beyond n p = n - rank n p
let min_tail_samples = 10

(* Host-speed references.  On a shared host the same call runs up to
   ~1.7x slower for minutes at a time (other tenants on the same cores
   and caches), so wall-clock medians of whole runs drift past any
   useful bound.  Timed calls are therefore normalised by a reference
   kernel owned by this file and shaped like the workload's hot path,
   sharing no code with the library, so a library change moves the call
   and never the reference.  A time [t] is reported as
   [t *. nominal_s /. r], with [r] the reference time taken next to it:
   what the call would take on a host where the reference runs in
   [nominal_s]. *)
type reference = {
  kernel : unit -> int;  (** returns a checksum that must never change *)
  expected : int;
  passes : int;
  nominal_s : float;
}

(* The fastest of [passes] back-to-back passes: the first warms the
   caches the timed call left behind, and a single scheduler hiccup
   cannot set it. *)
let measure_reference r =
  let once () =
    let sum, dt = time r.kernel in
    if sum <> r.expected then failwith "reference kernel changed its result";
    dt
  in
  let best = ref (once ()) in
  for _ = 2 to r.passes do
    best := Float.min !best (once ())
  done;
  !best

let normalise r t ref_s = t *. r.nominal_s /. ref_s

let make_reference ~passes ~nominal_s kernel =
  { kernel; expected = kernel (); passes; nominal_s }

(* For the emulator: an 8-bit LUT-GEMM (64x144x256 lookups into a
   65536-entry u16 table), like the Cpu_gemm inner loop. *)
let lut_reference =
  let m = 64 and k = 144 and n = 256 in
  let table =
    Bigarray.Array1.init Bigarray.int16_unsigned Bigarray.c_layout 65536 (fun i ->
        ((i lsr 8) * (i land 255)) lsr 1)
  in
  let a = Bytes.init (m * k) (fun i -> Char.chr ((i * 37) land 255)) in
  let b = Bytes.init (k * n) (fun i -> Char.chr (((i * 91) + 7) land 255)) in
  let acc = Array.make (m * n) 0 in
  make_reference ~passes:2 ~nominal_s:0.004 (fun () ->
      Array.fill acc 0 (m * n) 0;
      for i = 0 to m - 1 do
        let base = i * n in
        for p = 0 to k - 1 do
          let ca = Char.code (Bytes.unsafe_get a ((i * k) + p)) lsl 8 in
          for j = 0 to n - 1 do
            let cb = Char.code (Bytes.unsafe_get b ((p * n) + j)) in
            Array.unsafe_set acc (base + j)
              (Array.unsafe_get acc (base + j) + Bigarray.Array1.unsafe_get table (ca lor cb))
          done
        done
      done;
      Array.fold_left ( + ) 0 acc)

(* For the BDD-bound search: a pointer chase through a 64 MB random
   cycle (off the OCaml heap, so [peak_heap_mb] does not see it) plus a
   hash-consed node table, like a BDD unique table.  Built on first
   use. *)
let memory_reference =
  lazy
    (let n = 1 lsl 24 in
     let next = Bigarray.Array1.init Bigarray.int32 Bigarray.c_layout n Int32.of_int in
     (* Sattolo's shuffle: one random cycle through every slot *)
     let st = Random.State.make [| 42 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = next.{i} in
       next.{i} <- next.{j};
       next.{j} <- t
     done;
     make_reference ~passes:3 ~nominal_s:0.02 (fun () ->
         let p = ref 0 in
         for _ = 1 to 100_000 do
           p := Int32.to_int (Bigarray.Array1.unsafe_get next !p)
         done;
         let nodes = Hashtbl.create 4096 in
         let sum = ref !p in
         for i = 0 to 60_000 do
           let key = (i land 1023, (i * 7) land 2047, i land 15) in
           let id =
             match Hashtbl.find_opt nodes key with
             | Some id -> id
             | None ->
               let id = Hashtbl.length nodes + 2 in
               Hashtbl.add nodes key id;
               id
           in
           sum := !sum + id
         done;
         !sum))

(* Every metric keeps its sample count, printed in the summary. *)
let metrics : (string * (float * string * int)) list ref = ref []
let emit ?(n = 1) name unit_ value = metrics := (name, (value, unit_, n)) :: !metrics
let attempted = ref 0
let failed = ref 0
let problems = ref []
let problem msg = problems := msg :: !problems

let record ok =
  incr attempted;
  if not ok then incr failed

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let end_to_end =
  [
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("ok_frac", "frac");
  ]

let axconv_groups = [ "stem"; "stage0"; "stage1"; "stage2" ]

let per_layer =
  List.concat_map
    (fun g ->
      List.map
        (fun (m, u) -> (Printf.sprintf "axconv.%s.%s" g m, u))
        [
          ("macs", "count");
          ("s", "s");
          ("ns_per_mac", "ns");
          ("im2col_quant_s", "s");
          ("gemm_dequant_s", "s");
          ("alloc_words", "words");
          ("gpusim_s", "s");
        ])
    axconv_groups
  @ [
      ("exec.conv_s", "s");
      ("exec.nonconv_s", "s");
      ("setup.build_s", "s");
      ("setup.lut_s", "s");
      ("setup.transform_s", "s");
      ("setup.check_s", "s");
      ("setup.first_call_s", "s");
      ("setup.store_load_s", "s");
      ("setup.server_start_s", "s");
      ("setup.first_infer_s", "s");
      ("pool.tasks", "count");
      ("pool.busy_frac", "frac");
      ("pool.imbalance", "frac");
      ("serve.service_ms", "ms");
      ("serve.overhead_ms", "ms");
      ("serve.codec_ms", "ms");
      ("serve.batch_mean", "count");
      ("serve.max_depth", "count");
      ("serve.refused", "count");
      ("serve.gen_late_ms", "ms");
      ("explore.tabulate_s", "s");
      ("explore.certify_s", "s");
      ("explore.power_s", "s");
      ("explore.energy_s", "s");
      ("explore.accuracy_s", "s");
      ("explore.scored_frac", "frac");
      ("explore.cache_hit_frac", "frac");
      ("trace.overhead_frac", "frac");
      ("trace.reconcile_ratio", "ratio");
    ]

(* Prints the summary (one metric per line, with its sample count) and
   the JSON result as the last line of stdout.  Metrics a workload does
   not exercise are reported as 0 with n=0. *)
let finish ~trace =
  let wanted = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name wanted) then
        problem ("metric outside the declared set: " ^ name))
    !metrics;
  let rows =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name !metrics with
        | Some (v, u, n) ->
          if u <> unit_ then problem ("unit mismatch on " ^ name);
          if not (Float.is_finite v) then problem ("non-finite " ^ name);
          (name, (if Float.is_finite v then v else 0.), unit_, n)
        | None ->
          if not trace then problem ("end-to-end metric missing: " ^ name);
          (name, 0., unit_, 0))
      wanted
  in
  List.iter
    (fun (name, v, u, n) -> Printf.printf "  %-28s %14.6g %-6s n=%d\n" name v u n)
    rows;
  List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) (List.rev !problems);
  let correct = !problems = [] && !failed = 0 && !attempted > 0 in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, u, _) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u)
         rows)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted)
    (if !attempted = 0 then 1 else !failed)
    body;
  correct

(* Set-up time is the time to the first correct result.  One
   repetition starts from a compacted heap; [rep] returns its named
   steps (seconds) and whether its first result was correct.  The
   steps are normalised by [reference] taken just before and after.  A
   run reports the median total over [setup_reps] repetitions as
   [setup_s] and, traced, the median of each step. *)
let setup_reps = 9

let setup_once ~reference rep =
  Gc.compact ();
  let r0 = measure_reference reference in
  let steps, ok = rep () in
  let r = (r0 +. measure_reference reference) /. 2. in
  if not ok then problem "set-up: first result was wrong";
  List.map (fun (step, s) -> (step, normalise reference s r)) steps

let emit_setup ~trace ~prefix_map runs =
  let n = List.length runs in
  if trace then
    List.iter
      (fun (step, metric) ->
        emit ~n metric "s" (median (List.map (fun steps -> List.assoc step steps) runs)))
      prefix_map
  else
    emit ~n "setup_s" "s"
      (median (List.map (List.fold_left (fun a (_, s) -> a +. s) 0.) runs))

let measure_setup ?(reps = setup_reps) ~reference ~trace ~prefix_map rep =
  emit_setup ~trace ~prefix_map (List.init reps (fun _ -> setup_once ~reference rep))

(* The process's major-heap peak so far; each workload emits it after
   the work it describes. *)
let emit_peak_heap () =
  let st = Gc.quick_stat () in
  emit "peak_heap_mb" "MB"
    (float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.)

(* [latency_p90_ms] is a supported tail only with [min_tail_samples]
   beyond it; resnet20-batch sizes its runs for that.  explore-lenet
   cannot (a few searches per run), and reports it anyway because every
   workload prints every end-to-end metric: there it is the slowest
   search of the run, flagged in the summary. *)
let emit_latencies ~n_label latencies =
  let n = List.length latencies in
  log "%s: %d latency samples, %d beyond p90; deciles (ms) %s" n_label n
    (beyond n 0.9)
    (String.concat " "
       (List.map
          (fun d -> Printf.sprintf "%.1f" (1000. *. percentile latencies (float_of_int d /. 10.)))
          [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]));
  emit ~n "latency_p50_ms" "ms" (1000. *. median latencies);
  emit ~n "latency_p90_ms" "ms" (1000. *. percentile latencies 0.9);
  if beyond n 0.9 < min_tail_samples then
    Printf.printf "  note: latency_p90_ms is not a supported tail here (%d beyond)\n"
      (beyond n 0.9)

let emit_ok_frac () =
  emit ~n:!attempted "ok_frac" "frac"
    (if !attempted = 0 then 0.
     else float_of_int (!attempted - !failed) /. float_of_int !attempted)

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let digest t =
  let a = Tensor.to_array t in
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x)) a;
  Digest.to_hex (Digest.bytes b)

(* A softmax output: finite, and each image's row sums to 1. *)
let softmax_ok t =
  let a = Tensor.to_array t in
  let n = (Tensor.shape t).Shape.n in
  let per = Array.length a / max 1 n in
  let ok = ref (n > 0 && Array.for_all Float.is_finite a) in
  for i = 0 to n - 1 do
    let s = ref 0. in
    for j = 0 to per - 1 do
      s := !s +. a.((i * per) + j)
    done;
    if Float.abs (!s -. 1.) > 1e-4 then ok := false
  done;
  !ok

(* [expect table key d]: the first result for [key] is recorded, every
   later one must repeat it bit for bit. *)
let expect table key d =
  match Hashtbl.find_opt table key with
  | Some d0 -> d0 = d
  | None ->
    Hashtbl.replace table key d;
    true

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)
(* ------------------------------------------------------------------ *)

let multiplier = "mul8u_trunc8"
let cifar ~seed ~images = (Cifar.generate ~seed ~n:images ()).Cifar.images

(* Runs [body] until [seconds] have passed and at least [min_calls]
   calls were made (capped at three windows).  Time [body] adds to
   [paused] is left out of the window.  Returns the measured time. *)
let timed_loop ?(paused = ref 0.) ~seconds ~min_calls body =
  let t0 = now () in
  let elapsed () = now () -. t0 -. !paused in
  let k = ref 0 in
  while (elapsed () < seconds || !k < min_calls) && elapsed () < 3. *. seconds do
    body !k;
    incr k
  done;
  elapsed ()

(* Pool metrics over measured spans, each a (before, after) pair of
   [Pool.stats] snapshots; [wall] is their summed length. *)
let pool_delta spans ~wall ~size =
  let sum f = List.fold_left (fun acc (a, b) -> acc +. f b -. f a) 0. spans in
  let per =
    Array.init size (fun i ->
        sum (fun (s : Pool.stats) ->
            if i < Array.length s.Pool.per_domain_busy_seconds then
              s.Pool.per_domain_busy_seconds.(i)
            else 0.))
  in
  let last = snd (List.hd spans) in
  emit "pool.tasks" "count" (sum (fun s -> float_of_int s.Pool.tasks));
  emit "pool.busy_frac" "frac"
    (sum (fun s -> s.Pool.busy_seconds) /. (wall *. float_of_int size));
  emit "pool.imbalance" "frac"
    (Pool.imbalance { last with Pool.per_domain_busy_seconds = per })

(* The emulator's design flow (Sec. II) plus the first call, step by
   step, as a user of the library performs it. *)
let resnet_design_flow ~depth ~input ~expected () =
  let entry = Registry.find_exn multiplier in
  let g, build_s = time (fun () -> Resnet.build ~depth ()) in
  let lut, lut_s =
    time (fun () ->
        Lut.make ~signedness:entry.Registry.signedness entry.Registry.multiply)
  in
  let ax, transform_s = time (fun () -> Emulator.approximate_model ~lut g) in
  let (), check_s =
    time (fun () -> Check.assert_runnable ~input:(Tensor.shape input) ax)
  in
  let out, first_s =
    time (fun () -> Emulator.run ~verify:false ~backend:Emulator.Cpu_gemm ax input)
  in
  ( [
      ("build", build_s);
      ("lut", lut_s);
      ("transform", transform_s);
      ("check", check_s);
      ("first_call", first_s);
    ],
    digest out = expected )

let design_steps =
  [
    ("build", "setup.build_s");
    ("lut", "setup.lut_s");
    ("transform", "setup.transform_s");
    ("check", "setup.check_s");
    ("first_call", "setup.first_call_s");
  ]

(* Per-layer replay.  Every AxConv2D's inputs are captured once with
   [Exec.run_all]; each replay pass then runs every layer through
   [Axconv.conv] (output must be bit-identical to run_all's),
   [Im2col.to_codes], [Axconv.quantize_filters] and its two Min/Max
   range reductions. *)
type layer = {
  name : string;
  group : string;
  macs : float;
  gpusim_s : float;
  expected : string;  (** digest of run_all's output for the layer *)
  conv : unit -> Tensor.t;
  ranges : unit -> unit;
  to_codes : unit -> unit;
  filters : unit -> unit;
  mutable conv_s : float list;  (** one sample per pass, newest first *)
  mutable range_s : float list;
  mutable im2col_s : float list;
  mutable filter_s : float list;
  mutable alloc_words : float;
}

let capture_layers ~graph ~input =
  let values = Exec.run_all ~strategy:Exec.Cpu_gemm graph ~input in
  let images = (Tensor.shape input).Shape.n in
  let workloads = Cost.workloads_of_graph graph ~input:(Tensor.shape input) ~images in
  let gpusim =
    Cost.per_layer Device.gtx_1080 ~chunk_size:Axconv.default_chunk_size workloads
  in
  let tensor id =
    match values.(id) with Exec.Tensor t -> t | Exec.Scalar _ -> assert false
  in
  let scalar id =
    match values.(id) with Exec.Scalar x -> x | Exec.Tensor _ -> assert false
  in
  Graph.nodes graph |> Array.to_list
  |> List.filter_map (fun (node : Graph.node) ->
         match (node.Graph.op, node.Graph.inputs) with
         | Graph.Ax_conv2d { filter; bias; spec; config }, [ d; i0; i1; f0; f1 ] ->
           let name = node.Graph.name in
           let data = tensor d in
           let input_range = Range.make ~min:(scalar i0) ~max:(scalar i1) in
           let filter_range = Range.make ~min:(scalar f0) ~max:(scalar f1) in
           let signedness = Lut.signedness config.Axconv.lut in
           let round_mode = config.Axconv.round_mode in
           let plan =
             Im2col.make (Tensor.shape data) ~kh:(Filter.kh filter)
               ~kw:(Filter.kw filter) ~spec
           in
           let coeffs1 =
             Q.compute_coeffs signedness ~rmin:input_range.Range.min
               ~rmax:input_range.Range.max
           in
           let coeffs2 =
             Axconv.filter_coeffs config.Axconv.granularity signedness filter
               filter_range
           in
           Some
             {
               name;
               group =
                 (if name = "conv0" then "stem"
                  else List.hd (String.split_on_char '/' name));
               macs =
                 Cost.lut_lookups (List.find (fun w -> w.Cost.label = name) workloads);
               gpusim_s = Cost.total (List.assoc name gpusim);
               expected = digest (tensor node.Graph.id);
               conv =
                 (fun () ->
                   Axconv.conv ~config ~input:data ~input_range ~filter ~filter_range
                     ?bias ~spec ());
               ranges = (fun () -> ignore (Tensor.min_max data, Tensor.min_max data));
               to_codes =
                 (fun () ->
                   ignore
                     (Im2col.to_codes ~scratch:(Ax_nn.Scratch.domain_local ()) plan data
                        ~coeffs:coeffs1 ~round_mode ~signedness));
               filters =
                 (fun () ->
                   ignore (Axconv.quantize_filters signedness coeffs2.(0) round_mode filter));
               conv_s = [];
               range_s = [];
               im2col_s = [];
               filter_s = [];
               alloc_words = 0.;
             }
         | _ -> None)

(* One pass over every layer; returns its AxConv2D plus range time. *)
let replay_pass layers =
  List.fold_left
    (fun acc l ->
      let minor0, promoted0, major0 = Gc.counters () in
      let out, conv_s = time l.conv in
      let minor1, promoted1, major1 = Gc.counters () in
      l.alloc_words <- minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0);
      if digest out <> l.expected then problem ("replayed " ^ l.name ^ " differs from run_all");
      let (), range_s = time l.ranges in
      let (), im2col_s = time l.to_codes in
      let (), filter_s = time l.filters in
      l.conv_s <- conv_s :: l.conv_s;
      l.range_s <- range_s :: l.range_s;
      l.im2col_s <- im2col_s :: l.im2col_s;
      l.filter_s <- filter_s :: l.filter_s;
      acc +. conv_s +. range_s)
    0. layers

(* Per-layer medians over all passes, summed per group. *)
let emit_layers layers =
  List.iter
    (fun g ->
      match List.filter (fun l -> l.group = g) layers with
      | [] -> ()
      | ls ->
        let n = List.length (List.hd ls).conv_s in
        let sum f = List.fold_left (fun a l -> a +. f l) 0. ls in
        let s = sum (fun l -> median l.conv_s)
        and i = sum (fun l -> median l.im2col_s)
        and f = sum (fun l -> median l.filter_s) in
        let m k u v = emit ~n (Printf.sprintf "axconv.%s.%s" g k) u v in
        let macs = sum (fun l -> l.macs) in
        m "macs" "count" macs;
        m "s" "s" s;
        m "ns_per_mac" "ns" (1e9 *. s /. macs);
        m "im2col_quant_s" "s" i;
        m "gemm_dequant_s" "s" (Float.max 0. (s -. i -. f));
        m "alloc_words" "words" (sum (fun l -> l.alloc_words));
        m "gpusim_s" "s" (sum (fun l -> l.gpusim_s)))
    axconv_groups

(* A traced run is valid only when replayed layer time reconciles with
   the untraced call time within this tolerance. *)
let reconcile_tolerance = 0.2

let emit_trace_checks ~untraced ~tapped ~ratio =
  emit ~n:(List.length untraced) "trace.overhead_frac" "frac"
    ((median tapped /. median untraced) -. 1.);
  emit ~n:(List.length ratio) "trace.reconcile_ratio" "ratio" (median ratio);
  if Float.abs (median ratio -. 1.) > reconcile_tolerance then
    problem
      (Printf.sprintf "trace.reconcile_ratio %.3f outside 1 +- %.2f" (median ratio)
         reconcile_tolerance)

(* Each round of the window makes an untraced call, a call through the
   [?tap] hook, which splits it into AxConv2D and non-conv time (the
   interval up to a node's tap is charged to that node), and one replay
   pass over every layer.  The reconcile ratio of a round is (replayed
   conv + range time + tapped non-conv time) / untraced call time; the
   three are taken back to back so they see the same host conditions. *)
let model_trace ~graph ~inputs ~seconds ~check =
  let layers = capture_layers ~graph ~input:inputs.(0) in
  let is_conv =
    let convs = List.map (fun l -> l.name) layers in
    fun (n : Graph.node) -> List.mem n.Graph.name convs
  in
  let untraced = ref [] and tapped = ref [] and conv = ref [] and nonconv = ref [] in
  let ratio = ref [] in
  let n_in = Array.length inputs in
  let _ =
    timed_loop ~seconds ~min_calls:10 (fun k ->
        let input = inputs.(k mod n_in) in
        let out, u = time (fun () -> Emulator.run ~backend:Emulator.Cpu_gemm graph input) in
        record (check (k mod n_in) out);
        let c = ref 0. in
        let last = ref (now ()) in
        let t0 = !last in
        let tap node t =
          let t1 = now () in
          if is_conv node then c := !c +. (t1 -. !last);
          last := t1;
          t
        in
        let out = Emulator.run ~tap ~backend:Emulator.Cpu_gemm graph input in
        let total = now () -. t0 in
        record (check (k mod n_in) out);
        let replayed = replay_pass layers in
        untraced := u :: !untraced;
        tapped := total :: !tapped;
        conv := !c :: !conv;
        nonconv := (total -. !c) :: !nonconv;
        ratio := ((replayed +. total -. !c) /. u) :: !ratio)
  in
  let n = List.length !untraced in
  emit ~n "exec.conv_s" "s" (median !conv);
  emit ~n "exec.nonconv_s" "s" (median !nonconv);
  emit_layers layers;
  emit_trace_checks ~untraced:!untraced ~tapped:!tapped ~ratio:!ratio

(* ------------------------------------------------------------------ *)
(* Serve layer probe                                                   *)
(* ------------------------------------------------------------------ *)

(* The Ax_serve layer (Protocol, Admission, Server), measured in
   resnet20-batch's traced run: an in-process daemon with [domains = 1]
   serving ResNet-8 on a Unix socket in the working directory, driven by
   an open loop of [serve_requests] 1-image requests.  (A serve workload
   with its own end-to-end metrics did not repeat on a shared 2-core
   host: its open-loop p90 spread 0.36 over ten seeds.) *)
let serve_model = "resnet8"
let serve_spec () = Store.parse_spec "resnet8=resnet8+mul8u_trunc8"

(* Arrival gaps are uniform in [0.75, 1.25] / rate, so the shortest gap
   (125 ms) stays above the ~55 ms service time and the queueing
   metrics describe an unloaded daemon. *)
let serve_rate = 6.
let serve_requests = 60

let serve_probe ~seed =
  (* The daemon's process-wide pool has exactly its one domain, as under
     [tfapprox serve --domains 1]. *)
  Pool.set_default_size 1;
  let socket tag = Server.Unix_sock (Printf.sprintf ".perfbench-%d%s.sock" (Unix.getpid ()) tag) in
  let n_img = 16 in
  let images = Array.init n_img (fun i -> cifar ~seed:((seed * 7919) + i) ~images:1) in
  (* Reference: one-shot predictions of an independently built graph,
     per image, before any daemon runs. *)
  let graph = Emulator.approximate_model ~multiplier (Resnet.build ~depth:8 ()) in
  let expected =
    Array.map
      (fun img -> Emulator.predictions ~domains:1 graph ~backend:Emulator.Cpu_gemm img)
      images
  in
  (* Daemon set-up: Store.load -> Server.start -> first correct Infer. *)
  let setup_address = socket "-setup" in
  measure_setup ~reference:lut_reference ~trace:true
    ~prefix_map:
      [
        ("store_load", "setup.store_load_s");
        ("server_start", "setup.server_start_s");
        ("first_infer", "setup.first_infer_s");
      ]
    (fun () ->
      let store, load_s = time (fun () -> Store.load ~domains:1 [ serve_spec () ]) in
      let server, start_s =
        time (fun () ->
            Server.start
              { (Server.default_config ~store ~address:setup_address ()) with Server.domains = 1 })
      in
      let ok, first_s =
        time (fun () ->
            let c = Client.connect ~timeout:30. setup_address in
            let r = Client.infer c ~model:serve_model images.(0) in
            Client.close c;
            r = Ok expected.(0))
      in
      Server.stop server;
      ([ ("store_load", load_s); ("server_start", start_s); ("first_infer", first_s) ], ok));
  (* One request and its reply through encode, frame, parse, decode. *)
  let req =
    Protocol.Infer { id = 1; model = serve_model; deadline_ms = None; input = images.(0) }
  in
  let resp = Protocol.Predictions { id = 1; classes = expected.(0) } in
  let codec = ref [] in
  for _ = 1 to 200 do
    let ok, s =
      time (fun () ->
          let r =
            Protocol.parse_frame (Protocol.frame (Protocol.encode_request req))
            |> Result.map Protocol.decode_request
          in
          let a =
            Protocol.parse_frame (Protocol.frame (Protocol.encode_response resp))
            |> Result.map Protocol.decode_response
          in
          match (r, a) with
          | Ok (Ok r), Ok (Ok a) -> Protocol.request_equal r req && Protocol.response_equal a resp
          | _ -> false)
    in
    if not ok then problem "codec round trip changed a message";
    codec := s :: !codec
  done;
  emit ~n:200 "serve.codec_ms" "ms" (1000. *. median !codec);
  (* Open loop: one sender thread and one reader on one pipelined
     connection; latency is timed from each request's due time. *)
  let address = socket "" in
  let metrics = Ax_obs.Metrics.create () in
  let server =
    let store = Store.load ~domains:1 [ serve_spec () ] in
    Server.start
      { (Server.default_config ~store ~address ()) with Server.domains = 1; metrics }
  in
  let pool = Pool.default () in
  let pool0 = Pool.stats pool and t_pool = now () in
  let n = serve_requests in
  let st = Random.State.make [| seed; 8 |] in
  let idx = Array.init n (fun _ -> Random.State.int st n_img) in
  let due = Array.make n (now () +. 0.05) in
  for i = 1 to n - 1 do
    due.(i) <- due.(i - 1) +. ((0.75 +. Random.State.float st 0.5) /. serve_rate)
  done;
  let frames =
    Array.init n (fun i ->
        Protocol.frame
          (Protocol.encode_request
             (Protocol.Infer
                { id = i; model = serve_model; deadline_ms = None; input = images.(idx.(i)) })))
  in
  let late = Array.make n 0. and lat = Array.make n nan in
  let refused = ref 0 and received = ref 0 in
  let conn = Client.connect ~timeout:10. address in
  let sender () =
    try
      for i = 0 to n - 1 do
        let d = due.(i) -. now () in
        if d > 0. then Thread.delay d;
        late.(i) <- now () -. due.(i);
        Client.send_raw conn frames.(i)
      done
    with Unix.Unix_error _ -> ()
  in
  let th = Thread.create sender () in
  (try
     while !received < n do
       match Client.read_response conn with
       | Ok (Protocol.Predictions { id; classes }) when id >= 0 && id < n ->
         incr received;
         lat.(id) <- now () -. due.(id);
         record (classes = expected.(idx.(id)))
       | Ok (Protocol.Error _) ->
         incr received;
         incr refused;
         record false
       | Ok _ -> raise Exit
       | Error e ->
         problem ("open loop: " ^ Client.error_to_string e);
         raise Exit
     done
   with Exit -> ());
  Thread.join th;
  Client.close conn;
  for _ = !received + 1 to n do
    record false
  done;
  let adm = Admission.stats (Server.admission server) in
  let batches =
    Ax_obs.Metrics.find_histogram (Ax_obs.Metrics.snapshot metrics) "serve_batch_seconds"
  in
  let pool1 = Pool.stats pool in
  pool_delta [ (pool0, pool1) ] ~wall:(now () -. t_pool) ~size:(Pool.size pool);
  Server.stop server;
  let open_lat = List.filter Float.is_finite (Array.to_list lat) in
  (* Service time is the daemon's own batch execution time, from its
     metrics registry (one request a batch at this rate). *)
  let service, n_batches =
    match batches with
    | Some h when h.Ax_obs.Metrics.count > 0 ->
      (h.Ax_obs.Metrics.sum /. float_of_int h.Ax_obs.Metrics.count, h.Ax_obs.Metrics.count)
    | _ -> (nan, 0)
  in
  emit ~n:n_batches "serve.service_ms" "ms" (1000. *. service);
  emit ~n:(List.length open_lat) "serve.overhead_ms" "ms"
    (1000. *. (median open_lat -. service));
  emit ~n:adm.Admission.batches "serve.batch_mean" "count"
    (float_of_int adm.Admission.batched_jobs /. float_of_int (max 1 adm.Admission.batches));
  emit "serve.max_depth" "count" (float_of_int adm.Admission.max_depth);
  emit "serve.refused" "count" (float_of_int (!refused + adm.Admission.rejected));
  emit ~n "serve.gen_late_ms" "ms" (1000. *. median (Array.to_list late))

(* ------------------------------------------------------------------ *)
(* resnet20-batch                                                      *)
(* ------------------------------------------------------------------ *)

let resnet20_images = 1

let resnet20_batch ~seed ~seconds ~trace =
  let depth = 20 in
  let inputs =
    Array.init 6 (fun i -> cifar ~seed:((seed * 7919) + i) ~images:resnet20_images)
  in
  let graph = Emulator.approximate_model ~multiplier (Resnet.build ~depth ()) in
  (* Canary: the nested-loop backend is an independent implementation
     of the same arithmetic and must produce the same bits. *)
  let direct = digest (Emulator.run ~backend:Emulator.Cpu_direct graph inputs.(0)) in
  let seen = Hashtbl.create 8 in
  let check idx out = softmax_ok out && expect seen idx (digest out) in
  let gemm0 = Emulator.run ~backend:Emulator.Cpu_gemm graph inputs.(0) in
  if not (check 0 gemm0 && digest gemm0 = direct) then
    problem "canary: Cpu_gemm digest differs from Cpu_direct";
  let flow = resnet_design_flow ~depth ~input:inputs.(0) ~expected:direct in
  if trace then begin
    measure_setup ~reference:lut_reference ~trace ~prefix_map:design_steps flow;
    model_trace ~graph ~inputs ~seconds ~check;
    serve_probe ~seed
  end
  else begin
    let st = Random.State.make [| seed; 20 |] in
    let lat = ref [] and raw = ref [] and refs = ref [] and images = ref 0 in
    (* The set-up repetitions are spread over the window, so they see the
       same host conditions as the calls; their time is left out of it.
       Each call is normalised by the references just before and after
       it. *)
    let paused = ref 0. and setups = ref [] and t_start = now () in
    let r_prev = ref (measure_reference lut_reference) in
    let _ =
      timed_loop ~paused ~seconds ~min_calls:110 (fun _ ->
          let due = float_of_int (List.length !setups) *. seconds /. float_of_int setup_reps in
          if List.length !setups < setup_reps && now () -. t_start -. !paused >= due then begin
            let steps, dt = time (fun () -> setup_once ~reference:lut_reference flow) in
            setups := steps :: !setups;
            paused := !paused +. dt;
            r_prev := measure_reference lut_reference
          end;
          let idx = Random.State.int st (Array.length inputs) in
          let out, dt =
            time (fun () -> Emulator.run ~backend:Emulator.Cpu_gemm graph inputs.(idx))
          in
          let r = measure_reference lut_reference in
          let ok = check idx out in
          record ok;
          if ok then images := !images + resnet20_images;
          raw := dt :: !raw;
          refs := r :: !refs;
          lat := normalise lut_reference dt ((!r_prev +. r) /. 2.) :: !lat;
          r_prev := r)
    in
    log "resnet20-batch: raw call p50 %.1f ms, reference p50 %.2f ms (nominal %.2f ms)"
      (1000. *. median !raw) (1000. *. median !refs) (1000. *. lut_reference.nominal_s);
    emit_setup ~trace ~prefix_map:design_steps !setups;
    (* Images per second of normalised call time. *)
    emit ~n:(List.length !lat) "throughput_per_s" "1/s"
      (float_of_int !images /. List.fold_left ( +. ) 0. !lat);
    emit_latencies ~n_label:"resnet20-batch calls (normalised)" !lat;
    emit_peak_heap ()
  end

(* ------------------------------------------------------------------ *)
(* explore-lenet                                                       *)
(* ------------------------------------------------------------------ *)

let explore_config seed =
  {
    Search.default_config with
    Search.seed;
    generations = 1;
    population = 4;
    images = 2;
    model = Search.Lenet;
  }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Structural checks on any search result: a non-empty, mutually
   non-dominated front of certified, finite points. *)
let front_ok (r : Search.result) =
  r.Search.front <> []
  && List.for_all (fun p -> p.Pareto.certified && Pareto.finite p) r.Search.front
  && List.length (Pareto.front r.Search.front) = List.length r.Search.front
  && r.Search.evaluated >= List.length r.Search.front

(* The structural seeds a search starts from: generation 0 is the first
   [population] of them, in this order. *)
let seed_multipliers () =
  [
    ("exact8", Multipliers.unsigned_array ~bits:8);
    ("trunc4", Multipliers.truncated ~bits:8 ~cut:4);
    ("trunc6", Multipliers.truncated ~bits:8 ~cut:6);
    ("trunc8", Multipliers.truncated ~bits:8 ~cut:8);
  ]

(* The candidates of the search seeded [seed], rebuilt from outside, as
   its two generations: the structural seeds, then mutants of the
   generation-0 front [gen0] (in front order) drawn from the search's
   seeded stream. *)
let search_candidates ~gen0 (cfg : Search.config) =
  let seeds =
    List.map (fun (name, m) -> (name, Genome.of_multiplier m)) (seed_multipliers ())
  in
  let parents = List.map (fun p -> List.assoc p.Pareto.name seeds) gen0.Search.front in
  let rng = Srng.create cfg.Search.seed in
  let n = List.length parents in
  [
    List.map snd seeds;
    List.init cfg.Search.population (fun i ->
        Genome.mutate ~rng ~operations:cfg.Search.mutations (List.nth parents (i mod n)));
  ]

(* Per-candidate stage samples over every replayed candidate. *)
type stages = {
  mutable tabulate : float list;
  mutable certify : float list;
  mutable power : float list;
  mutable energy : float list;
  mutable accuracy : float list;
  mutable candidates : int;
  mutable scored : int;
}

(* Replays each candidate's stages the way the search runs them:
   tabulation on this domain, then certification, energy, power and
   accuracy as one pool task per candidate (accuracy once per LUT
   already scored in an earlier generation, as the search memoises it).
   Returns the summed tabulation and task time, comparable with the
   search's wall time on a 1-domain pool. *)
let replay_candidates ~pool st generations =
  let lenet = Lenet.build () and dataset = Mnist.generate ~n:2 () in
  let scored_luts = Hashtbl.create 8 in
  let evaluate (m, lut, cached) =
    let verdict, cert_s = time (fun () -> Search.certify_candidate m ~lut) in
    match verdict with
    | Error _ -> (cert_s, None)
    | Ok () ->
      let circuit = m.Multipliers.circuit in
      let e, energy_s =
        time (fun () ->
            try Some (Energy.relative_mac_energy (Energy.mac_of_circuit circuit))
            with Invalid_argument _ -> None)
      in
      let report, power_s = time (fun () -> Power.analyze circuit) in
      let accuracy =
        if cached then None
        else
          Some
            (time (fun () ->
                 Emulator.accuracy ~verify:false
                   (Emulator.approximate_model ~lut lenet)
                   ~backend:Emulator.Cpu_gemm dataset))
      in
      let ok =
        Option.is_some e && Float.is_finite report.Power.pdp
        && Option.fold ~none:true ~some:(fun (a, _) -> Float.is_finite a) accuracy
      in
      (cert_s, Some (energy_s, power_s, Option.map snd accuracy, ok))
  in
  List.fold_left
    (fun total genomes ->
      let jobs =
        Array.of_list
          (List.map
             (fun genome ->
               let (m, lut), s =
                 time (fun () ->
                     let m = Genome.to_multiplier ~name:"candidate" genome in
                     (m, Search.tabulate m))
               in
               st.tabulate <- s :: st.tabulate;
               let key = Digest.bytes (Lut.to_bytes lut) in
               ((m, lut, Hashtbl.mem scored_luts key), s))
             genomes)
      in
      let total = Array.fold_left (fun a (_, s) -> a +. s) total jobs in
      let jobs = Array.map fst jobs in
      let results = Pool.map_array pool ~schedule:(Pool.Dynamic { grain = 1 }) evaluate jobs in
      Array.fold_left
        (fun total ((_, lut, _), (cert_s, scored)) ->
          st.candidates <- st.candidates + 1;
          st.certify <- cert_s :: st.certify;
          match scored with
          | None -> total +. cert_s
          | Some (energy_s, power_s, acc_s, ok) ->
            st.energy <- energy_s :: st.energy;
            st.power <- power_s :: st.power;
            Option.iter (fun s -> st.accuracy <- s :: st.accuracy) acc_s;
            if ok then begin
              st.scored <- st.scored + 1;
              Hashtbl.replace scored_luts (Digest.bytes (Lut.to_bytes lut)) ()
            end;
            total +. cert_s +. energy_s +. power_s +. Option.value ~default:0. acc_s)
        total
        (Array.map2 (fun j r -> (j, r)) jobs results))
    0. generations

let emit_stages st =
  let m name l = emit ~n:(List.length l) name "s" (median l) in
  m "explore.tabulate_s" st.tabulate;
  m "explore.certify_s" st.certify;
  m "explore.power_s" st.power;
  m "explore.energy_s" st.energy;
  m "explore.accuracy_s" st.accuracy;
  emit ~n:st.candidates "explore.scored_frac" "frac"
    (float_of_int st.scored /. float_of_int (max 1 st.candidates))

(* The searches run on a 1-domain pool: at 2 domains on a 2-core shared
   host the per-run medians spread 0.16-0.29 from run to run.  Their
   times are normalised by the memory reference; they do not track the
   LUT one. *)
let explore_domains = 1

(* The pool layer is measured at 2 domains in the traced run, on a
   replay of a traced search's candidates. *)
let pool_probe_domains = 2

let explore_lenet ~seed ~seconds ~trace =
  let canary_front = read_file "perfbench/canary/explore_front.json" in
  let first_front = read_file "perfbench/canary/explore_first.json" in
  (* Set-up: a fresh pool, then a one-candidate search (the exact
     multiplier, certified and scored) — the first result. *)
  let first_cfg = { (explore_config 1) with Search.population = 1; generations = 0 } in
  let reference = Lazy.force memory_reference in
  measure_setup ~reps:3 ~reference ~trace ~prefix_map:[] (fun () ->
      let (pool, r), s =
        time (fun () ->
            let pool = Pool.create ~domains:explore_domains () in
            (pool, Search.run ~pool first_cfg))
      in
      Pool.shutdown pool;
      ([ ("first_result", s) ], Search.front_json_string r = first_front));
  let pool = Pool.create ~domains:explore_domains () in
  let canary = Search.run ~pool (explore_config 1) in
  if not (front_ok canary && Search.front_json_string canary = canary_front) then
    problem "canary: explore front differs from the recorded one";
  (* The heap peak is read after the set-up and the seed-1 canary, whose
     inputs do not depend on --seed: the BDDs of the timed searches'
     seeded mutants move it by about 10% from seed to seed. *)
  if not trace then emit_peak_heap ();
  let fronts = Hashtbl.create 4 in
  (* Seeds cycle through three values derived from --seed, so every
     repeat must reproduce its first front byte for byte.  Each search
     starts from a compacted heap, as the set-up does. *)
  let search_seed k = (seed * 1000) + (k mod 3) in
  let search k =
    let s = search_seed k in
    Gc.compact ();
    let r, dt = time (fun () -> Search.run ~pool (explore_config s)) in
    log "search seed %d: %.3f s, %d evaluated" s dt r.Search.evaluated;
    let ok = front_ok r && expect fronts s (Search.front_json_string r) in
    record ok;
    (r, dt)
  in
  if trace then begin
    let steps =
      List.init 3 (fun _ ->
          Gc.compact ();
          let exact = Multipliers.unsigned_array ~bits:8 in
          let (lenet, dataset), build_s =
            time (fun () -> (Lenet.build (), Mnist.generate ~n:2 ()))
          in
          let lut, lut_s = time (fun () -> Search.tabulate exact) in
          let cert, check_s = time (fun () -> Search.certify_candidate exact ~lut) in
          if cert <> Ok () then problem "exact multiplier failed certification";
          let g, transform_s = time (fun () -> Emulator.approximate_model ~lut lenet) in
          let _, first_s =
            time (fun () ->
                Emulator.accuracy ~verify:false g ~backend:Emulator.Cpu_gemm dataset)
          in
          [
            ("build", build_s);
            ("lut", lut_s);
            ("transform", transform_s);
            ("check", check_s);
            ("first_call", first_s);
          ])
    in
    List.iter
      (fun (step, metric) ->
        emit ~n:3 metric "s" (median (List.map (fun s -> List.assoc step s) steps)))
      design_steps;
    (* Generation 0 does not depend on the seed; its front is the parent
       set every search mutates. *)
    let gen0 = Search.run ~pool { (explore_config seed) with Search.generations = 0 } in
    let st =
      { tabulate = []; certify = []; power = []; energy = []; accuracy = [];
        candidates = 0; scored = 0 }
    in
    let untraced = ref [] and traced = ref [] and ratio = ref [] in
    let evaluated = ref 0 and hits = ref 0 in
    (* Odd calls are the traced ones, each followed at once by the replay
       of its own candidates; the replay is left out of the window.  The
       search and the replay are each divided by the memory references
       around them, so a change of host speed between the two cancels
       out of their ratio. *)
    let paused = ref 0. in
    let _ =
      timed_loop ~paused ~seconds ~min_calls:4 (fun k ->
          let traced_call = k mod 2 = 1 in
          let r0 = if traced_call then measure_reference reference else 0. in
          let r, dt = search k in
          evaluated := !evaluated + r.Search.evaluated;
          hits := !hits + r.Search.cache_hits;
          if not traced_call then untraced := dt :: !untraced
          else begin
            traced := dt :: !traced;
            let r1 = measure_reference reference in
            let replayed, s =
              time (fun () ->
                  Gc.compact ();
                  replay_candidates ~pool st
                    (search_candidates ~gen0 (explore_config (search_seed k))))
            in
            let r2 = measure_reference reference in
            paused := !paused +. s;
            ratio := (replayed /. (r1 +. r2) /. (dt /. (r0 +. r1))) :: !ratio
          end)
    in
    emit ~n:(List.length !untraced + List.length !traced) "explore.cache_hit_frac" "frac"
      (float_of_int !hits /. float_of_int (max 1 (!evaluated + !hits)));
    (* Pool probe: the first traced search's candidates once more, on a
       fresh 2-domain pool read through stats snapshots.  Its stage
       samples are not kept. *)
    let probe = Pool.create ~domains:pool_probe_domains () in
    let scratch_stages =
      { tabulate = []; certify = []; power = []; energy = []; accuracy = [];
        candidates = 0; scored = 0 }
    in
    let before = Pool.stats probe in
    let _, wall =
      time (fun () ->
          replay_candidates ~pool:probe scratch_stages
            (search_candidates ~gen0 (explore_config (search_seed 1))))
    in
    pool_delta [ (before, Pool.stats probe) ] ~wall ~size:(Pool.size probe);
    Pool.shutdown probe;
    emit_stages st;
    emit_trace_checks ~untraced:!untraced ~tapped:!traced ~ratio:!ratio
  end
  else begin
    let lat = ref [] and raw = ref [] and refs = ref [] and evaluated = ref 0 in
    let r_prev = ref (measure_reference reference) in
    let _ =
      timed_loop ~seconds ~min_calls:3 (fun k ->
          let r, dt = search k in
          let ref_s = measure_reference reference in
          evaluated := !evaluated + r.Search.evaluated;
          raw := dt :: !raw;
          refs := ref_s :: !refs;
          lat := normalise reference dt ((!r_prev +. ref_s) /. 2.) :: !lat;
          r_prev := ref_s)
    in
    log "explore-lenet: raw search p50 %.0f ms, reference p50 %.2f ms (nominal %.2f ms)"
      (1000. *. median !raw) (1000. *. median !refs) (1000. *. reference.nominal_s);
    (* Candidates evaluated per second of normalised search time. *)
    emit ~n:!evaluated "throughput_per_s" "1/s"
      (float_of_int !evaluated /. List.fold_left ( +. ) 0. !lat);
    emit_latencies ~n_label:"explore-lenet searches (normalised)" !lat
  end;
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

(* name, run, compute domains it uses *)
let workloads =
  [
    ("resnet20-batch", (resnet20_batch, 1));
    ("explore-lenet", (explore_lenet, explore_domains));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run, domains =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline
        ("unknown workload; have: " ^ String.concat ", " (List.map fst workloads));
      exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seconds > 0 and --trace 0|1";
    exit 2
  end;
  let trace = !trace = 1 in
  (* The host line: what a reader needs to compare two runs. *)
  Printf.printf "host: nproc=%d domains=%d ocaml=%s commit=%s seed=%d workload=%s trace=%b\n%!"
    (Domain.recommended_domain_count ())
    domains
    Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT"))
    !seed !workload trace;
  run ~seed:!seed ~seconds:!seconds ~trace;
  if not trace then emit_ok_frac ();
  exit (if finish ~trace then 0 else 1)
