//! Micro-benchmarks of the tensor substrate: the kernels whose
//! throughput bounds the whole training harness. Ported from the dead
//! criterion sources in `benches/tensor_ops.rs`, now timing the fast
//! kernels against the preserved reference implementations
//! (`gsfl_tensor::reference`, which exists only as this baseline and as
//! the equivalence-test oracle).

use super::Suite;
use gsfl_tensor::conv::{conv2d_backward, conv2d_forward};
use gsfl_tensor::matmul::{matmul, matmul_a_bt, matmul_at_b};
use gsfl_tensor::pool::maxpool2d_forward;
use gsfl_tensor::{reference, Tensor};
use std::hint::black_box;

/// Registers the tensor-kernel benches on `suite`.
pub fn register(suite: &mut Suite) {
    for size in [32usize, 64, 128] {
        let a = Tensor::from_fn(&[size, size], |i| (i as f32).sin());
        let b = Tensor::from_fn(&[size, size], |i| (i as f32).cos());
        suite.compare(
            format!("matmul_square_{size}"),
            200,
            || {
                black_box(reference::matmul(black_box(&a), black_box(&b)).unwrap());
            },
            || {
                black_box(matmul(black_box(&a), black_box(&b)).unwrap());
            },
        );
    }

    // The dense-layer backward shape: dW = dYᵀ · X.
    let x = Tensor::from_fn(&[16, 256], |i| (i as f32).sin());
    let dy = Tensor::from_fn(&[16, 64], |i| (i as f32).cos());
    suite.compare(
        "matmul_at_b_dense_backward",
        400,
        || {
            black_box(reference::matmul_at_b(black_box(&dy), black_box(&x)).unwrap());
        },
        || {
            black_box(matmul_at_b(black_box(&dy), black_box(&x)).unwrap());
        },
    );

    // The dense-layer forward shape: Y = X · Wᵀ.
    let w = Tensor::from_fn(&[64, 256], |i| (i as f32 * 0.7).sin());
    suite.compare(
        "matmul_a_bt_dense_forward",
        400,
        || {
            black_box(reference::matmul_a_bt(black_box(&x), black_box(&w)).unwrap());
        },
        || {
            black_box(matmul_a_bt(black_box(&x), black_box(&w)).unwrap());
        },
    );

    for (label, ch_in, ch_out, hw) in [("3to8@16", 3usize, 8usize, 16usize), ("8to16@8", 8, 16, 8)]
    {
        let input = Tensor::from_fn(&[16, ch_in, hw, hw], |i| (i as f32 % 7.0) * 0.1);
        let weight = Tensor::from_fn(&[ch_out, ch_in, 3, 3], |i| (i as f32 % 5.0) * 0.01);
        let bias = Tensor::zeros(&[ch_out]);
        suite.compare(
            format!("conv2d_forward_{label}"),
            100,
            || {
                black_box(
                    reference::conv2d_forward(black_box(&input), black_box(&weight), &bias, 1, 1)
                        .unwrap(),
                );
            },
            || {
                black_box(
                    conv2d_forward(black_box(&input), black_box(&weight), &bias, 1, 1).unwrap(),
                );
            },
        );
    }

    let input = Tensor::from_fn(&[16, 3, 16, 16], |i| (i as f32 % 7.0) * 0.1);
    let weight = Tensor::from_fn(&[8, 3, 3, 3], |i| (i as f32 % 5.0) * 0.01);
    let bias = Tensor::zeros(&[8]);
    let out = conv2d_forward(&input, &weight, &bias, 1, 1).unwrap();
    let grad_out = Tensor::from_fn(out.dims(), |i| (i as f32 % 3.0) * 0.05);
    suite.compare(
        "conv2d_backward_3to8@16",
        60,
        || {
            black_box(
                reference::conv2d_backward(
                    black_box(&input),
                    black_box(&weight),
                    black_box(&grad_out),
                    1,
                    1,
                )
                .unwrap(),
            );
        },
        || {
            black_box(
                conv2d_backward(
                    black_box(&input),
                    black_box(&weight),
                    black_box(&grad_out),
                    1,
                    1,
                )
                .unwrap(),
            );
        },
    );

    let pool_input = Tensor::from_fn(&[16, 8, 16, 16], |i| (i as f32).sin());
    suite.run("maxpool2d_16x8x16x16", 200, || {
        black_box(maxpool2d_forward(black_box(&pool_input), 2, 2).unwrap());
    });
}
