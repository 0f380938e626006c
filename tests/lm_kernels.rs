//! The kernels under a transformer step, as properties with fixed seeds (so
//! tier-1 runs them): the in-tree `exp` is the same function on every lane of
//! every tier and accurate; a row's sum depends on the row alone; the causal
//! softmax over a live prefix is the full-row softmax under a `−∞` mask; and
//! `gemm_batch` items on the register tile keep the reference walk's bits.

use amalgam::prelude::*;
use amalgam::tensor::gemm::{self, gemm_batch, BatchMat};
use amalgam::tensor::pack::MatRef;
use amalgam::tensor::simd::{self, Tier};
use amalgam::tensor::tensor::{
    exp_row_in_place, softmax_causal_rows_in_place, softmax_rows_in_place,
};
use std::sync::{Mutex, MutexGuard};

/// The kernel tier is process-wide; tests that set it take turns.
static GLOBALS: Mutex<()> = Mutex::new(());

fn globals() -> MutexGuard<'static, ()> {
    GLOBALS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tiers() -> Vec<Tier> {
    let mut tiers = vec![Tier::Portable];
    if simd::simd_available() {
        tiers.push(Tier::Simd);
    }
    tiers
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Distance from the true `e^x`, in units of the last place of its `f32`.
fn ulps_off(got: f32, x: f32) -> f64 {
    let exact = f64::from(x).exp();
    let nearest = exact as f32;
    if nearest.is_infinite() {
        return if got == nearest { 0.0 } else { f64::INFINITY };
    }
    let ulp = f64::from(f32::from_bits(nearest.to_bits() + 1)) - f64::from(nearest);
    (f64::from(got) - exact).abs() / ulp
}

#[test]
fn exp_is_one_function_on_every_lane_and_within_two_ulp() {
    let _turn = globals();
    const CUT: f32 = -87.3;
    let mut rng = Rng::seed_from(71);
    let mut inputs: Vec<f32> = (0..120_000).map(|_| rng.uniform(-100.0, 89.0)).collect();
    // Both ends of the range, densely: results near the smallest normal, the
    // cut-off, the last finite result and overflow.
    inputs.extend((0..4000).map(|i| CUT - 0.01 + i as f32 * 5e-6));
    inputs.extend((0..4000).map(|i| 88.71 + i as f32 * 5e-6));
    inputs.extend((0..2000).map(|i| (i as f32 - 1000.0) * 1e-3));
    inputs.extend([0.0, -0.0, 1e-30, -1e-30, -100.0, 89.0, CUT, -1e30, f32::MIN]);
    inputs.extend([f32::NEG_INFINITY, f32::INFINITY, f32::MAX, f32::NAN]);

    let scalar: Vec<f32> = inputs.iter().map(|&x| simd::exp(x)).collect();
    for (&x, &e) in inputs.iter().zip(&scalar) {
        if x.is_nan() {
            assert!(e.is_nan(), "exp(NaN) = {e}");
        } else if x < CUT {
            assert_eq!(
                e.to_bits(),
                0,
                "exp({x}) below the cut-off is {e}, not +0.0"
            );
        } else if x > 88.73 {
            assert_eq!(e, f32::INFINITY, "exp({x})");
        } else {
            let off = ulps_off(e, x);
            assert!(off <= 2.0, "exp({x}) = {e} is {off:.2} ulp off");
        }
    }
    assert_eq!(simd::exp(0.0), 1.0);
    assert_eq!(simd::exp(-0.0), 1.0);

    // The row kernels of every tier, over the whole set and over short rows
    // at every alignment (the masked tail), against the scalar function.
    let same = |got: &[f32], want: &[f32], case: &str| {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{case}: lane {i} gives {g}, scalar exp gives {w}"
            );
        }
    };
    let mut portable = inputs.clone();
    simd::portable_exp_row(&mut portable, 0.0);
    same(&portable, &scalar, "portable chunk");
    for tier in tiers() {
        simd::force_tier(Some(tier));
        let kernel = simd::exp_row_kernel();
        let mut row = inputs.clone();
        kernel(&mut row, 0.0);
        same(&row, &scalar, &format!("{tier:?} row"));
        for len in 1..=19 {
            for start in 0..9 {
                let mut short = inputs[start..start + len].to_vec();
                kernel(&mut short, 0.0);
                let case = format!("{tier:?} row of {len} from {start}");
                same(&short, &scalar[start..start + len], &case);
            }
        }
    }
    simd::force_tier(None);
}

#[test]
fn a_row_sum_depends_on_the_row_alone() {
    let _turn = globals();
    let mut rng = Rng::seed_from(72);
    for len in (1..=40).chain([199, 200, 201]) {
        let row: Vec<f32> = (0..len).map(|_| rng.uniform(-30.0, 10.0)).collect();
        // The definition: element i joins lane i % 8 in ascending i, lanes
        // are combined in one fixed tree.
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut lanes = [0.0f32; 8];
        let exps: Vec<f32> = row.iter().map(|&x| simd::exp(x - max)).collect();
        for (i, &e) in exps.iter().enumerate() {
            lanes[i % 8] += e;
        }
        let want_sum = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
        for tier in tiers() {
            simd::force_tier(Some(tier));
            // The same row at every alignment, after different neighbours.
            for offset in 0..9 {
                let mut buf: Vec<f32> = (0..offset).map(|_| rng.uniform(-1e3, 1e3)).collect();
                buf.extend_from_slice(&row);
                buf.push(f32::NAN);
                let (got_max, got_sum) = exp_row_in_place(&mut buf[offset..offset + len]);
                let case = format!("{tier:?}, row of {len} at offset {offset}");
                assert_eq!(got_max.to_bits(), max.to_bits(), "max, {case}");
                assert_eq!(got_sum.to_bits(), want_sum.to_bits(), "sum, {case}");
                assert_eq!(bits(&buf[offset..offset + len]), bits(&exps), "row, {case}");
                assert!(buf[offset + len].is_nan(), "wrote past the row, {case}");
            }
        }
    }
    simd::force_tier(None);
}

#[test]
fn causal_prefix_softmax_is_the_full_row_under_a_minus_infinity_mask() {
    let _turn = globals();
    let mut rng = Rng::seed_from(73);
    for t in 1..=24usize {
        let scores: Vec<f32> = (0..3 * t * t).map(|_| rng.uniform(-8.0, 8.0)).collect();
        for tier in tiers() {
            simd::force_tier(Some(tier));
            for mask in [f32::NEG_INFINITY, -1e30] {
                let mut want = scores.clone();
                for (r, row) in want.chunks_mut(t).enumerate() {
                    row[r % t + 1..].fill(mask);
                }
                softmax_rows_in_place(&mut want, t);
                let mut got = scores.clone();
                softmax_causal_rows_in_place(&mut got, t);
                assert_eq!(bits(&got), bits(&want), "T = {t}, {tier:?}, mask {mask}");
            }
        }
    }
    simd::force_tier(None);
}

#[test]
fn gemm_batch_items_keep_the_reference_bits() {
    let _turn = globals();
    let mut rng = Rng::seed_from(74);
    // Tile and lane edges on every axis (n below 8 stays on the direct
    // loop), then a fixed-seed draw from the rest of 1..=40.
    let mut shapes = Vec::new();
    for m in [1usize, 5, 6, 7, 13, 40] {
        for n in [1usize, 7, 8, 9, 15, 16, 17, 25, 40] {
            for k in [1usize, 2, 16, 40] {
                shapes.push((m, n, k));
            }
        }
    }
    for _ in 0..150 {
        let mut draw = || 1 + (rng.uniform(0.0, 40.0) as usize).min(39);
        shapes.push((draw(), draw(), draw()));
    }
    // One shape below the blocking threshold whose K exceeds a K block: the
    // tile must then keep the direct loop's single chain, i.e. `gemm`'s bits.
    shapes.push((3, 9, 300));

    let batch = 3usize;
    let alpha = 0.5f32;
    for (m, n, k) in shapes {
        let ad: Vec<f32> = (0..batch * m * k).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let bd: Vec<f32> = (0..batch * k * n).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let layouts = [
            (
                "nn",
                BatchMat::row_major(&ad, m, k),
                BatchMat::row_major(&bd, k, n),
            ),
            (
                "nt",
                BatchMat::row_major(&ad, m, k),
                BatchMat::transposed(&bd, n, k),
            ),
            (
                "tn",
                BatchMat::transposed(&ad, k, m),
                BatchMat::row_major(&bd, k, n),
            ),
        ];
        for (layout, a, per_item_b) in layouts {
            let shared_b = BatchMat::shared(MatRef {
                data: per_item_b.data,
                rs: per_item_b.rs,
                cs: per_item_b.cs,
            });
            for (sharing, b) in [("per-item B", per_item_b), ("shared B", shared_b)] {
                let mut want = vec![0.0f32; batch * m * n];
                for (i, item) in want.chunks_mut(m * n).enumerate() {
                    if k <= gemm::KC {
                        gemm::reference::gemm(m, n, k, a.item(i), b.item(i), item);
                    } else {
                        gemm::gemm(m, n, k, a.item(i), b.item(i), item);
                    }
                    item.iter_mut().for_each(|v| *v *= alpha);
                }
                for tier in tiers() {
                    simd::force_tier(Some(tier));
                    let mut got = vec![f32::NAN; batch * m * n];
                    gemm_batch(batch, m, n, k, a, b, alpha, &mut got);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "({m},{n},{k}) {layout}, {sharing}, {tier:?}"
                    );
                }
            }
        }
    }
    simd::force_tier(None);
}
