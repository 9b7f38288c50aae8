//! Property-based tests for the neural-network stack.

use gsfl_nn::layer::{Layer, Mode};
use gsfl_nn::layers::{Conv2d, Dense, Relu};
use gsfl_nn::loss::SoftmaxCrossEntropy;
use gsfl_nn::params::{fed_avg, ParamVec};
use gsfl_nn::split::SplitNetwork;
use gsfl_nn::Sequential;
use gsfl_tensor::{reference, Tensor, Workspace};
use proptest::prelude::*;

fn mlp(input: usize, hidden: usize, classes: usize, seed: u64) -> Sequential {
    let mut net = Sequential::new();
    net.push(Dense::new(input, hidden, seed));
    net.push(Relu::new());
    net.push(Dense::new(hidden, classes, seed + 1));
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn split_preserves_function_at_any_cut(
        seed in 0u64..500,
        cut in 1usize..3,
        batch in 1usize..5,
    ) {
        let mut whole = mlp(6, 8, 3, seed);
        let x = Tensor::from_fn(&[batch, 6], |i| ((i * 31 + seed as usize) % 17) as f32 * 0.1 - 0.8);
        let expect = whole.forward(&x).unwrap();
        let mut split = SplitNetwork::split(mlp(6, 8, 3, seed), cut).unwrap();
        let smashed = split.client.forward(&x).unwrap();
        let got = split.server.forward(&smashed).unwrap();
        prop_assert!(got.approx_eq(&expect, 1e-5));
    }

    #[test]
    fn fed_avg_is_convex_combination(
        a_fill in -5.0f32..5.0,
        b_fill in -5.0f32..5.0,
        w1 in 0.01f64..10.0,
        w2 in 0.01f64..10.0,
    ) {
        let a = ParamVec::from_values(vec![a_fill; 20]);
        let b = ParamVec::from_values(vec![b_fill; 20]);
        let avg = fed_avg(&[a, b], &[w1, w2]).unwrap();
        let lo = a_fill.min(b_fill) - 1e-4;
        let hi = a_fill.max(b_fill) + 1e-4;
        prop_assert!(avg.values().iter().all(|&v| v >= lo && v <= hi));
    }

    #[test]
    fn fed_avg_idempotent_on_identical_models(seed in 0u64..500, k in 1usize..6) {
        let snap = ParamVec::from_network(&mlp(4, 6, 2, seed));
        let copies: Vec<ParamVec> = (0..k).map(|_| snap.clone()).collect();
        let weights: Vec<f64> = (1..=k).map(|w| w as f64).collect();
        let avg = fed_avg(&copies, &weights).unwrap();
        prop_assert!(avg.l2_distance(&snap).unwrap() < 1e-4);
    }

    #[test]
    fn fed_avg_permutation_invariant(sa in 0u64..100, sb in 0u64..100, sc in 0u64..100) {
        let a = ParamVec::from_network(&mlp(4, 5, 2, sa));
        let b = ParamVec::from_network(&mlp(4, 5, 2, sb + 1000));
        let c = ParamVec::from_network(&mlp(4, 5, 2, sc + 2000));
        let x = fed_avg(&[a.clone(), b.clone(), c.clone()], &[1.0, 2.0, 3.0]).unwrap();
        let y = fed_avg(&[c, a, b], &[3.0, 1.0, 2.0]).unwrap();
        prop_assert!(x.l2_distance(&y).unwrap() < 1e-4);
    }

    #[test]
    fn snapshot_load_round_trip(seed in 0u64..500) {
        let src = mlp(5, 7, 3, seed);
        let snap = ParamVec::from_network(&src);
        let mut dst = mlp(5, 7, 3, seed + 777);
        snap.load_into(&mut dst).unwrap();
        prop_assert_eq!(ParamVec::from_network(&dst), snap);
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero_per_row(
        seed in 0u64..500,
        rows in 1usize..6,
        cols in 2usize..8,
    ) {
        let logits = Tensor::from_fn(&[rows, cols], |i| (((i as u64 + seed) * 2654435761 % 1000) as f32) / 100.0 - 5.0);
        let labels: Vec<usize> = (0..rows).map(|r| (r + seed as usize) % cols).collect();
        let out = SoftmaxCrossEntropy::new().compute(&logits, &labels).unwrap();
        prop_assert!(out.loss.is_finite());
        for r in 0..rows {
            let s: f32 = out.grad_logits.data()[r * cols..(r + 1) * cols].iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn identity_codec_round_trip_is_bitwise_exact(seed in 0u64..300, n in 1usize..512) {
        use gsfl_nn::codec::{wire_roundtrip, Codec, Identity};
        use gsfl_tensor::Workspace;
        let mut ws = Workspace::new();
        let orig: Vec<f32> = (0..n).map(|i| ((i as u64 * 31 + seed) % 997) as f32 * 0.01 - 4.5).collect();
        let mut v = orig.clone();
        // The fast path reports the raw size without touching bytes…
        let fast = wire_roundtrip(&Identity, &mut v, seed, &mut ws).unwrap();
        prop_assert_eq!(&v, &orig, "identity must not move a bit");
        prop_assert_eq!(fast, 4 * n as u64);
        // …and the real encode produces exactly those bytes (headerless).
        let mut buf = ws.take_wire();
        Identity.encode(&v, seed, &mut ws, &mut buf);
        prop_assert_eq!(buf.len() as u64, Identity.encoded_len(n));
        prop_assert_eq!(buf.len(), 4 * n, "no container overhead on fp32");
        let mut back = vec![0.0f32; n];
        Identity.decode(&buf, &mut back).unwrap();
        prop_assert_eq!(&back, &orig);
        ws.give_wire(buf);
    }

    #[test]
    fn fp16_codec_round_trip_within_documented_epsilon(seed in 0u64..300, n in 1usize..512) {
        use gsfl_nn::codec::{wire_roundtrip, Codec, Fp16};
        use gsfl_tensor::Workspace;
        let mut ws = Workspace::new();
        // Normal-range values: relative error ≤ 2^-11 (half-precision ulp).
        let orig: Vec<f32> = (0..n).map(|i| ((i as u64 * 37 + seed) % 1999) as f32 * 0.013 - 13.0).collect();
        let mut v = orig.clone();
        let measured = wire_roundtrip(&Fp16, &mut v, seed, &mut ws).unwrap();
        for (a, b) in v.iter().zip(&orig) {
            prop_assert!((a - b).abs() <= b.abs() / 2048.0 + 1e-24, "{} -> {}", b, a);
        }
        prop_assert_eq!(measured, Fp16.encoded_len(n));
    }

    #[test]
    fn intq_codec_round_trip_within_one_step(
        seed in 0u64..300,
        n in 1usize..512,
        bits in 2u32..=16,
    ) {
        use gsfl_nn::codec::{wire_roundtrip, Codec, IntQ};
        use gsfl_tensor::Workspace;
        let mut ws = Workspace::new();
        let orig: Vec<f32> = (0..n).map(|i| ((i as u64 * 53 + seed) % 401) as f32 * 0.02 - 4.0).collect();
        let mut v = orig.clone();
        let codec = IntQ { bits };
        let measured = wire_roundtrip(&codec, &mut v, seed, &mut ws).unwrap();
        prop_assert_eq!(measured, codec.encoded_len(n), "measured bytes obey the law");
        // Stochastic rounding never moves a value by more than one
        // quantization step: scale / (2^(bits-1) - 1).
        let scale = orig.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let step = scale / ((1u32 << (bits - 1)) - 1) as f32;
        for (a, b) in v.iter().zip(&orig) {
            prop_assert!((a - b).abs() <= step + 1e-6, "{} -> {} (step {})", b, a, step);
        }
        // Deterministic per stream.
        let mut again = orig.clone();
        wire_roundtrip(&codec, &mut again, seed, &mut ws).unwrap();
        prop_assert_eq!(v, again);
    }

    #[test]
    fn topk_codec_preserves_the_top_k_set(
        seed in 0u64..300,
        n in 2usize..256,
        frac in 0.05f64..1.0,
    ) {
        use gsfl_nn::codec::{wire_roundtrip, Codec, TopK};
        use gsfl_tensor::Workspace;
        let mut ws = Workspace::new();
        let orig: Vec<f32> = (0..n).map(|i| ((i as u64 * 71 + seed) % 509) as f32 * 0.04 - 10.0).collect();
        let codec = TopK { frac };
        let k = codec.kept(n);
        let mut v = orig.clone();
        let measured = wire_roundtrip(&codec, &mut v, seed, &mut ws).unwrap();
        prop_assert_eq!(measured, codec.encoded_len(n), "measured bytes obey the law");
        // Exactly k survivors, each bit-identical to its original.
        let survivors: Vec<usize> = v
            .iter()
            .enumerate()
            .filter(|(_, &x)| x != 0.0)
            .map(|(i, _)| i)
            .collect();
        prop_assert!(survivors.len() <= k);
        for &i in &survivors {
            prop_assert_eq!(v[i], orig[i], "survivors keep exact values");
        }
        // No zeroed element may strictly dominate a survivor: the kth
        // magnitude is a floor under every kept value.
        let min_kept = survivors
            .iter()
            .map(|&i| orig[i].abs())
            .fold(f32::INFINITY, f32::min);
        for (i, &x) in orig.iter().enumerate() {
            if !survivors.contains(&i) {
                prop_assert!(x.abs() <= min_kept + 1e-12, "dropped {} beats kept {}", x, min_kept);
            }
        }
    }

    #[test]
    fn pruned_codec_zeroes_whole_blocks_and_obeys_the_law(
        seed in 0u64..300,
        n in 1usize..512,
        frac in 0.05f64..1.0,
        bits in 2u32..=16,
    ) {
        use gsfl_nn::codec::{wire_roundtrip, Codec, Pruned, PRUNE_BLOCK};
        use gsfl_tensor::Workspace;
        let mut ws = Workspace::new();
        let orig: Vec<f32> = (0..n).map(|i| ((i as u64 * 83 + seed) % 619) as f32 * 0.03 - 9.0).collect();
        let codec = Pruned { frac, bits };
        let mut v = orig.clone();
        let measured = wire_roundtrip(&codec, &mut v, seed, &mut ws).unwrap();
        prop_assert_eq!(measured, codec.encoded_len(n), "measured bytes obey the law");
        // Each block is either all-zero (dropped) or quantized within one
        // step of the original (kept).
        let scale = orig.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let step = scale / ((1u32 << (bits - 1)) - 1) as f32;
        let mut kept_blocks = 0usize;
        for (b, chunk) in v.chunks(PRUNE_BLOCK).enumerate() {
            let zeroed = chunk.iter().all(|&x| x == 0.0);
            let close = chunk.iter().zip(&orig[b * PRUNE_BLOCK..]).all(|(a, o)| (a - o).abs() <= step + 1e-6);
            prop_assert!(zeroed || close, "block {} is neither dropped nor quantized", b);
            if !zeroed { kept_blocks += 1; }
        }
        prop_assert!(kept_blocks <= codec.kept_blocks(n));
    }

    #[test]
    fn error_feedback_residual_equals_the_coding_error(
        seed in 0u64..200,
        n in 2usize..256,
        frac in 0.05f64..0.5,
    ) {
        use gsfl_nn::codec::{encode_delta, TopK};
        use gsfl_nn::params::ParamVec;
        use gsfl_tensor::Workspace;
        let mut ws = Workspace::new();
        let reference = ParamVec::from_values(vec![0.0f32; n]);
        let delta: Vec<f32> = (0..n).map(|i| ((i as u64 * 97 + seed) % 331) as f32 * 0.02 - 3.3).collect();
        let codec = TopK { frac };
        let mut residual = vec![0.0f32; n];
        let mut prev_residual = residual.clone();
        for round in 0..4u64 {
            let mut params = ParamVec::from_values(delta.clone());
            encode_delta(&codec, &mut params, &reference, Some(&mut residual), round, &mut ws).unwrap();
            // Invariant: residual + decoded == delta + previous residual
            // (nothing is created or destroyed by the bookkeeping).
            for i in 0..n {
                let target = delta[i] + prev_residual[i];
                let decoded = params.values()[i];
                prop_assert!(
                    (residual[i] + decoded - target).abs() <= 1e-5,
                    "round {}: residual {} + decoded {} != target {}",
                    round, residual[i], decoded, target
                );
            }
            prev_residual.copy_from_slice(&residual);
        }
    }

    #[test]
    fn one_sgd_step_on_correct_label_reduces_loss(seed in 0u64..300) {
        use gsfl_nn::optim::Sgd;
        let mut net = mlp(4, 6, 3, seed);
        let x = Tensor::from_fn(&[4, 4], |i| ((i * 13 + seed as usize) % 11) as f32 * 0.1);
        let labels = [0usize, 1, 2, 0];
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(0.05);
        let logits = net.forward(&x).unwrap();
        let before = loss_fn.compute(&logits, &labels).unwrap();
        net.zero_grad();
        net.forward(&x).unwrap();
        net.backward(&before.grad_logits).unwrap();
        opt.step(&mut net.params_mut()).unwrap();
        let logits = net.forward(&x).unwrap();
        let after = loss_fn.compute(&logits, &labels).unwrap();
        prop_assert!(after.loss <= before.loss + 1e-6,
            "loss rose: {} -> {}", before.loss, after.loss);
    }
}

// SIMD-vs-scalar and fused-vs-unfused equivalence for the softmax
// cross-entropy kernel ported onto the dispatch layer. Both pairs are
// pinned bit-identical: the fused kernel stores the same `exp(v − max)`
// values the unfused kernel recomputed, reduces the denominator in the
// same ascending order, and scales with the same expression.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_softmax_xent_is_bit_identical_across_isas(
        n in 1usize..12,
        c in 1usize..40,
        seed in 0u64..1_000,
    ) {
        use gsfl_tensor::simd::Isa;
        let logits = Tensor::from_fn(&[n, c], |i| {
            (((i as u64).wrapping_mul(seed + 17) % 2000) as f32 - 1000.0) * 0.01
        });
        let labels: Vec<usize> = (0..n).map(|r| (r * 7 + seed as usize) % c).collect();
        let loss_fn = SoftmaxCrossEntropy::new();
        let fast = loss_fn.compute_with_isa(Isa::Avx2, &logits, &labels).unwrap();
        let slow = loss_fn.compute_with_isa(Isa::Scalar, &logits, &labels).unwrap();
        prop_assert_eq!(fast.loss.to_bits(), slow.loss.to_bits());
        for (x, y) in fast.grad_logits.data().iter().zip(slow.grad_logits.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fused_softmax_xent_matches_unfused_bitwise(
        n in 1usize..12,
        c in 1usize..40,
        seed in 0u64..1_000,
    ) {
        use gsfl_tensor::simd::Isa;
        let logits = Tensor::from_fn(&[n, c], |i| {
            (((i as u64).wrapping_mul(seed + 41) % 2000) as f32 - 1000.0) * 0.01
        });
        let labels: Vec<usize> = (0..n).map(|r| (r * 11 + seed as usize) % c).collect();
        let loss_fn = SoftmaxCrossEntropy::new();
        let unfused = loss_fn.compute_unfused(&logits, &labels).unwrap();
        for isa in [Isa::Scalar, Isa::Avx2] {
            let fused = loss_fn.compute_with_isa(isa, &logits, &labels).unwrap();
            prop_assert_eq!(fused.loss.to_bits(), unfused.loss.to_bits());
            for (x, y) in fused.grad_logits.data().iter().zip(unfused.grad_logits.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: dims");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

// The training layers against the preserved pre-optimization kernels in
// `gsfl_tensor::reference`, the oracle no production path dispatches to.
// Dense keeps every element's ascending-k reduction, so its forward and
// all gradients are bit-identical. Conv2d trains through the cached batch
// lowering (`cols`): its output, input gradient and bias gradient keep the
// reference's per-sample order and are bit-identical; the batched
// weight-gradient GEMM sums the whole batch in one stream, which regroups
// the f32 additions, so that gradient is pinned within 1e-4 (relative to
// magnitudes above 1). Two steps per case exercise the cache refresh.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_training_path_is_bit_identical_to_reference_kernels(
        n in 1usize..9,
        fan_in in 1usize..24,
        fan_out in 1usize..20,
        seed in 0u64..1_000,
    ) {
        let mut ws = Workspace::new();
        let mut dense = Dense::new(fan_in, fan_out, seed);
        for step in 0..2usize {
            dense.zero_grad();
            let x = Tensor::from_fn(&[n, fan_in], |i| {
                ((i * 37 + step * 11 + seed as usize) % 29) as f32 * 0.07 - 1.0
            });
            let y = dense.forward(&x, Mode::Train, &mut ws).unwrap();
            let weight = dense.params()[0].value().clone();
            let bias = dense.params()[1].value().clone();
            let mut expect = reference::matmul_a_bt(&x, &weight).unwrap();
            for row in expect.data_mut().chunks_exact_mut(fan_out) {
                for (v, &b) in row.iter_mut().zip(bias.data()) {
                    *v += b;
                }
            }
            assert_bits_eq(&y, &expect, "dense forward");

            let g = Tensor::from_fn(y.dims(), |i| ((i * 13 + step) % 19) as f32 * 0.05 - 0.45);
            let gx = dense.backward(&g, &mut ws).unwrap();
            assert_bits_eq(&gx, &reference::matmul(&g, &weight).unwrap(), "dense grad input");
            let gw = reference::matmul_at_b(&g, &x).unwrap();
            assert_bits_eq(dense.params()[0].grad(), &gw, "dense grad weight");
            let mut gb = vec![0.0f32; fan_out];
            for row in g.data().chunks_exact(fan_out) {
                for (d, &v) in gb.iter_mut().zip(row) {
                    *d += v;
                }
            }
            assert_bits_eq(dense.params()[1].grad(), &Tensor::from_vec(gb, &[fan_out]).unwrap(), "dense grad bias");
        }
    }

    #[test]
    fn conv2d_training_path_matches_reference_kernels(
        n in 1usize..4,
        c_in in 1usize..4,
        c_out in 1usize..6,
        hw in 3usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let mut ws = Workspace::new();
        let mut conv = Conv2d::new(c_in, c_out, k, stride, pad, seed);
        let mut last = Conv2d::new(c_in, c_out, k, stride, pad, seed);
        for step in 0..2usize {
            conv.zero_grad();
            last.zero_grad();
            let x = Tensor::from_fn(&[n, c_in, hw, hw], |i| {
                ((i * 31 + step * 7 + seed as usize) % 23) as f32 * 0.09 - 1.0
            });
            let y = conv.forward(&x, Mode::Train, &mut ws).unwrap();
            let weight = conv.params()[0].value().clone();
            let bias = conv.params()[1].value().clone();
            let expect = reference::conv2d_forward(&x, &weight, &bias, stride, pad).unwrap();
            assert_bits_eq(&y, &expect, "conv forward");

            let g = Tensor::from_fn(y.dims(), |i| ((i * 17 + step) % 13) as f32 * 0.08 - 0.5);
            let gx = conv.backward(&g, &mut ws).unwrap();
            let (rx, rw, rb) = reference::conv2d_backward(&x, &weight, &g, stride, pad).unwrap();
            assert_bits_eq(&gx, &rx, "conv grad input");
            assert_bits_eq(conv.params()[1].grad(), &rb, "conv grad bias");
            let gw = conv.params()[0].grad();
            prop_assert_eq!(gw.dims(), rw.dims());
            for (a, b) in gw.data().iter().zip(rw.data()) {
                prop_assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "conv grad weight {} vs {}", a, b);
            }

            // The first-layer backward skips the input gradient but must
            // leave exactly the same parameter gradients.
            let y_last = last.forward(&x, Mode::Train, &mut ws).unwrap();
            assert_bits_eq(&y_last, &y, "conv forward (second layer copy)");
            last.backward_last(&g, &mut ws).unwrap();
            for (p_full, p_last) in conv.params().iter().zip(last.params()) {
                assert_bits_eq(p_last.grad(), p_full.grad(), "conv backward_last grads");
            }
        }
    }
}
