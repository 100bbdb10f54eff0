//! The `kernel` scenario: every blocked/vectorized compute kernel run at
//! awkward shapes. The kernel layer's reduction contract (DESIGN.md, "Kernel
//! layer") promises results are a pure function of the inputs, independent
//! of host parallelism, build profile and SIMD path.
//!
//! Shapes are chosen to hit every code path: full MR×LANES tiles, row and
//! column remainders, single rows, empty CSR rows, and both the streaming
//! and materialized top-k paths.

use super::fnv_line;
use asgd_sparse::{ops as sops, CsrMatrix};
use asgd_stats::fnv::{fnv1a_f32 as fnv_f32, fnv1a_u16 as fnv_u16, fnv1a_u32 as fnv_u32};
use asgd_tensor::{ops, Matrix};
use std::fmt::Write as _;

/// Deterministic pseudo-random fill in [-0.5, 0.5).
fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, crate::lcg_fill(seed | 1, rows * cols))
}

/// One `<kernel> <shape> fnv 0x…` line over a result matrix.
fn matrix_line(report: &mut String, what: String, result: &Matrix) {
    fnv_line(report, &what, fnv_f32(result.as_slice()));
}

pub(super) fn report() -> String {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "kernel probe: lanes {}, mr {}, threads-invariant goldens",
        asgd_tensor::kernels::LANES,
        asgd_tensor::kernels::MR
    );

    // Shapes hitting full tiles plus every remainder combination.
    let shapes: [(usize, usize, usize); 5] =
        [(1, 1, 1), (3, 7, 5), (4, 8, 8), (13, 24, 19), (33, 40, 53)];
    for &(m, k, n) in &shapes {
        let a = filled(m, k, 0x5EED ^ ((m as u64) << 8) ^ k as u64);
        let b = filled(k, n, 0xBEEF ^ ((n as u64) << 4) ^ k as u64);
        let at = filled(k, m, 0xA5A5 ^ ((m as u64) << 2) ^ n as u64);
        let bt = filled(n, k, 0xC3C3 ^ ((k as u64) << 6) ^ m as u64);
        let mut c = filled(m, n, 0xD00D ^ (m * n) as u64);
        ops::gemm(1.0, &a, &b, 0.0, &mut c);
        matrix_line(&mut report, format!("gemm_nn {m}x{k}x{n}"), &c);
        ops::gemm(0.5, &a, &b, 0.25, &mut c);
        matrix_line(&mut report, format!("gemm_nn_ab {m}x{k}x{n}"), &c);
        ops::gemm_tn(1.0, &at, &b, 0.0, &mut c);
        matrix_line(&mut report, format!("gemm_tn {m}x{k}x{n}"), &c);
        ops::gemm_nt(1.0, &a, &bt, 0.0, &mut c);
        matrix_line(&mut report, format!("gemm_nt {m}x{k}x{n}"), &c);

        let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.37).sin()).collect();
        ops::gemm_bias_relu(&a, &b, &bias, &mut c);
        matrix_line(&mut report, format!("gemm_bias_relu {m}x{k}x{n}"), &c);
        let kk = 3.min(n);
        let mut topk = vec![0u32; m * kk];
        ops::gemm_bias_topk(&a, &b, &bias, kk, &mut topk);
        fnv_line(
            &mut report,
            &format!("gemm_bias_topk {m}x{k}x{n} k{kk}"),
            fnv_u32(&topk),
        );
    }

    // Gathered-row kernels of the sampled-softmax output path: candidate
    // index sets with duplicates-free ascending order at shapes hitting full
    // tiles and remainders, including a single candidate and a gather that
    // permutes far-apart rows.
    for &(m, k, big_n, c_n) in &[
        (1usize, 4usize, 9usize, 1usize),
        (5, 8, 40, 7),
        (13, 24, 101, 19),
        (33, 40, 257, 53),
    ] {
        let a = filled(m, k, 0x6A7E ^ ((m as u64) << 8) ^ k as u64);
        let bt = filled(big_n, k, 0x1DEA ^ ((big_n as u64) << 4) ^ k as u64);
        let bn = filled(big_n, c_n, 0x7EA1 ^ ((c_n as u64) << 6) ^ m as u64);
        let idx: Vec<u32> = (0..c_n).map(|i| (i * big_n / c_n) as u32).collect();
        let bias: Vec<f32> = (0..c_n).map(|j| (j as f32 * 0.29).sin()).collect();
        let mut out = filled(m, c_n, 0xF00D ^ (m * c_n) as u64);
        ops::gemm_nt_gather(1.0, &a, &bt, &idx, 0.0, &mut out);
        matrix_line(
            &mut report,
            format!("gemm_nt_gather {m}x{k}x{c_n}of{big_n}"),
            &out,
        );
        ops::gemm_nt_gather_bias(&a, &bt, &idx, &bias, &mut out);
        matrix_line(
            &mut report,
            format!("gemm_nt_gather_bias {m}x{k}x{c_n}of{big_n}"),
            &out,
        );
        let ac = filled(m, c_n, 0xBA11 ^ (m + c_n) as u64);
        let mut dh = Matrix::zeros(m, bn.cols());
        ops::gemm_nn_gather(1.0, &ac, &bn, &idx, 0.0, &mut dh);
        matrix_line(
            &mut report,
            format!("gemm_nn_gather {m}x{c_n}of{big_n}x{}", bn.cols()),
            &dh,
        );
    }

    // Sparse kernels on a CSR with empty, short and long rows.
    let rows: Vec<(Vec<u32>, Vec<f32>)> = (0..23)
        .map(|r| {
            let nnz = [0usize, 1, 3, 9, 17][r % 5];
            let idx: Vec<u32> = (0..nnz).map(|i| ((r * 7 + i * 11) % 40) as u32).collect();
            let mut idx = idx;
            idx.sort_unstable();
            idx.dedup();
            let val: Vec<f32> = idx
                .iter()
                .map(|&i| (i as f32 * 0.3 + r as f32).cos())
                .collect();
            (idx, val)
        })
        .collect();
    let x = CsrMatrix::from_rows(40, &rows).unwrap();
    for n in [1usize, 8, 19, 24] {
        let w = filled(40, n, 0xFACE ^ n as u64);
        let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.21).cos()).collect();
        let mut h = Matrix::zeros(23, n);
        sops::spmm(&x, &w, &mut h);
        matrix_line(&mut report, format!("spmm 23x40x{n}"), &h);
        sops::spmm_bias_relu(&x, &w, &bias, &mut h);
        matrix_line(&mut report, format!("spmm_bias_relu 23x40x{n}"), &h);
        let mut grad = Matrix::zeros(40, n);
        let g = filled(23, n, 0xCAFE ^ n as u64);
        sops::spmm_tn_acc(1.0, &x, &g, &mut grad);
        matrix_line(&mut report, format!("spmm_tn_acc 40x23x{n}"), &grad);
    }

    // bf16 conversion kernels — the storage tier's only rounding operation
    // (DESIGN.md, "Precision tiers & rounding contract"). Edge values force
    // every branch of the RNE formula (ties both ways, NaN quieting,
    // infinities, denormals, signed zeros); the bulk sweep at an odd length
    // exercises the AVX2 body plus the scalar tail.
    {
        use asgd_tensor::bf16;
        let edges: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::from_bits(0x3F80_8000), // tie, even mantissa: rounds down
            f32::from_bits(0x3F81_8000), // tie, odd mantissa: rounds up
            f32::from_bits(0x3F80_8001), // just above the tie
            f32::from_bits(0x7F7F_FFFF), // f32::MAX → rounds to +inf
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7F80_0001), // signalling NaN → quieted
            f32::from_bits(0x0000_0001), // smallest denormal
            f32::from_bits(0x0080_0000), // smallest normal
            f32::MIN_POSITIVE,
        ];
        let mut half = vec![0u16; edges.len()];
        bf16::narrow_slice(&edges, &mut half);
        fnv_line(&mut report, "bf16_narrow edges", fnv_u16(&half));
        let mut wide = vec![0.0f32; half.len()];
        bf16::widen_slice(&half, &mut wide);
        fnv_line(&mut report, "bf16_widen edges", fnv_f32(&wide));

        let bulk = filled(1, 1013, 0xB16);
        let mut half = vec![0u16; 1013];
        bf16::narrow_slice(bulk.as_slice(), &mut half);
        fnv_line(&mut report, "bf16_narrow 1x1013", fnv_u16(&half));
        let mut wide = vec![0.0f32; 1013];
        bf16::widen_slice(&half, &mut wide);
        fnv_line(&mut report, "bf16_widen 1x1013", fnv_f32(&wide));
    }
    report
}
