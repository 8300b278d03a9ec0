(* Locks down the raw-LUT ApproxGEMM kernel against the rest of the
   registry and against the direct-loop baseline:

   - exhaustive 65,536-entry equivalence of the raw accessor
     ([unsafe_raw]/[table] + [decode_correction]) against [lookup_code],
     for every multiplier in the registry;
   - a 50-shape differential conv sweep asserting the raw-table GEMM
     kernel ([Axconv.conv]) is bit-identical to the nested-loop baseline
     ([Conv_direct.conv]) for every accumulator model, over exact,
     truncated, bit-flip and DRUM tables of both signednesses. *)

module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Rng = Ax_tensor.Rng
module Filter = Ax_nn.Filter
module Conv_spec = Ax_nn.Conv_spec
module Axconv = Ax_nn.Axconv
module Conv_direct = Ax_nn.Conv_direct
module Accumulator = Ax_nn.Accumulator
module Range = Ax_quant.Range
module Lut = Ax_arith.Lut
module Registry = Ax_arith.Registry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- every registry multiplier --- *)

let test_registry_exhaustive () =
  List.iter
    (fun entry ->
      let name = entry.Registry.name in
      let lut = Registry.lut entry in
      let corr = Lut.decode_correction lut in
      let table = Lut.table lut in
      let bad = ref 0 in
      for ca = 0 to 255 do
        for cb = 0 to 255 do
          let idx = (ca lsl 8) lor cb in
          let raw = Lut.unsafe_raw lut idx in
          let decoded = raw - ((raw lsr 15) * corr) in
          if decoded <> Lut.lookup_code lut ca cb then incr bad;
          if Bigarray.Array1.get table idx <> raw then incr bad
        done
      done;
      check_int (Printf.sprintf "%s: raw == lookup over 65536 entries" name)
        0 !bad)
    (Registry.all ())

(* --- differential conv sweep --- *)

let accumulators =
  [
    Accumulator.Wide;
    Accumulator.Saturating 16;
    Accumulator.Wrapping 16;
    Accumulator.Lower_or { width = 20; approx_low = 4 };
  ]

let sweep_multipliers =
  [|
    "mul8u_exact";
    "mul8u_trunc4";
    "mul8u_trunc8";
    "mul8u_trunc10";
    "mul8u_flip14_1e-3";
    "mul8u_drum4";
    "mul8s_drum4";
  |]

let test_conv_sweep () =
  let cases = ref 0 in
  for id = 0 to 49 do
    let rng = Rng.create (1000 + id) in
    let pick lo hi = lo + Rng.int rng (hi - lo + 1) in
    let n = pick 1 3 in
    let h = pick 4 10 and w = pick 4 10 in
    let c = pick 1 6 and out_c = pick 1 10 in
    let kh = pick 1 3 and kw = pick 1 3 in
    let stride = pick 1 2 in
    let padding =
      if Rng.int rng 2 = 0 then Conv_spec.Same else Conv_spec.Valid
    in
    let spec = Conv_spec.make ~stride ~padding () in
    let chunk_size = pick 1 n in
    let input = Tensor.create (Shape.make ~n ~h ~w ~c) in
    Tensor.fill_uniform ~lo:(-1.2) ~hi:1.2 rng input;
    let filter = Filter.create ~kh ~kw ~in_c:c ~out_c in
    Filter.fill_he_normal rng filter;
    let input_range = Range.of_tensor input in
    let fmin, fmax = Filter.min_max filter in
    let filter_range = Range.make ~min:fmin ~max:fmax in
    let mul_name = sweep_multipliers.(id mod Array.length sweep_multipliers) in
    let lut = Registry.lut (Registry.find_exn mul_name) in
    let bias =
      if id mod 2 = 0 then
        Some (Array.init out_c (fun k -> 0.01 *. float_of_int k))
      else None
    in
    List.iter
      (fun accumulator ->
        let config = Axconv.make_config ~chunk_size ~accumulator lut in
        let got =
          Axconv.conv ~config ~input ~input_range ~filter ~filter_range ?bias
            ~spec ()
        in
        let want =
          Conv_direct.conv ~config ~input ~input_range ~filter ~filter_range
            ?bias ~spec ()
        in
        incr cases;
        check_bool
          (Printf.sprintf "case %d (%s, %s): raw GEMM == direct loop" id
             mul_name
             (Accumulator.to_string accumulator))
          true
          (Tensor.max_abs_diff want got = 0.))
      accumulators
  done;
  check_bool "sweep ran 200 comparisons" true (!cases = 200)

let () =
  Alcotest.run "lut_raw"
    [
      ( "equivalence",
        [
          Alcotest.test_case
            "every registry multiplier, all 65536 entries" `Quick
            test_registry_exhaustive;
        ] );
      ( "differential",
        [
          Alcotest.test_case
            "conv sweep: raw GEMM == direct loop (50 shapes x 4 \
             accumulators)"
            `Quick test_conv_sweep;
        ] );
    ]
