//! Sequential reductions advanced side by side.
//!
//! A per-channel sum is one chain of dependent additions, and a chain moves
//! at the *latency* of a floating-point add — a quarter or less of what the
//! adders could retire. The channels' chains do not depend on each other, so
//! running up to [`LANES`] of them through one loop fills those idle slots
//! without reordering a single addition: each chain still visits its
//! elements first to last, which is all the bitwise guarantees ask for.

/// Chains advanced together. Eight scalar accumulators (sixteen for the
/// paired `dγ`/`dβ` sums) still fit the vector register file, and eight
/// 4-cycle chains are enough to keep two adders busy.
const LANES: usize = 8;

/// Folds `acc.len()` equally long rows, each in element order, up to
/// [`LANES`] rows at a time.
///
/// Every array of `inputs` is a flat `[rows, len]` matrix. Row `r` starts
/// from `acc[r]` and, for `p = 0..len` ascending, becomes
/// `step(r, acc[r], [inputs[0][r*len + p], ..])`; what is left replaces
/// `acc[r]`.
///
/// # Panics
///
/// Panics if an input holds fewer than `acc.len() * len` elements.
pub(crate) fn fold_rows<S: Copy, const N: usize>(
    acc: &mut [S],
    inputs: [&[f32]; N],
    len: usize,
    step: impl Fn(usize, S, [f32; N]) -> S + Copy,
) {
    for (g, group) in acc.chunks_mut(LANES).enumerate() {
        let r0 = g * LANES;
        let rows = inputs.map(|data| &data[r0 * len..(r0 + group.len()) * len]);
        match group.len() {
            1 => fold_group::<S, N, 1>(group, r0, rows, len, step),
            2 => fold_group::<S, N, 2>(group, r0, rows, len, step),
            3 => fold_group::<S, N, 3>(group, r0, rows, len, step),
            4 => fold_group::<S, N, 4>(group, r0, rows, len, step),
            5 => fold_group::<S, N, 5>(group, r0, rows, len, step),
            6 => fold_group::<S, N, 6>(group, r0, rows, len, step),
            7 => fold_group::<S, N, 7>(group, r0, rows, len, step),
            _ => fold_group::<S, N, LANES>(group, r0, rows, len, step),
        }
    }
}

/// `L` rows in lock step; `L` is a constant so that the states live in
/// registers and the lane loop unrolls.
#[inline(always)]
fn fold_group<S: Copy, const N: usize, const L: usize>(
    group: &mut [S],
    r0: usize,
    rows: [&[f32]; N],
    len: usize,
    step: impl Fn(usize, S, [f32; N]) -> S,
) {
    let lanes: [[&[f32]; N]; L] =
        std::array::from_fn(|l| rows.map(|data| &data[l * len..(l + 1) * len]));
    let mut state: [S; L] = std::array::from_fn(|l| group[l]);
    for p in 0..len {
        for l in 0..L {
            state[l] = step(r0 + l, state[l], lanes[l].map(|row| row[p]));
        }
    }
    group.copy_from_slice(&state);
}

/// [`fold_rows`] for two sums per row whose addends lie side by side: `rows`
/// is a flat `[acc.len(), len]` matrix of pairs, and row `r`'s two chains
/// `acc[r][0] += rows[r][p][0]`, `acc[r][1] += rows[r][p][1]` (`p` ascending)
/// advance as one two-lane vector add — half the additions of two scalar
/// chains, the same sums. Written out rather than built on [`fold_rows`]: the
/// compiler pairs the lanes of this loop, not of the generic one.
///
/// # Panics
///
/// Panics if `rows` holds fewer than `acc.len() * len` pairs.
pub(crate) fn fold_pairs(acc: &mut [[f32; 2]], rows: &[[f32; 2]], len: usize) {
    for (g, group) in acc.chunks_mut(LANES).enumerate() {
        let rows = &rows[g * LANES * len..(g * LANES + group.len()) * len];
        match group.len() {
            1 => fold_pair_group::<1>(group, rows, len),
            2 => fold_pair_group::<2>(group, rows, len),
            3 => fold_pair_group::<3>(group, rows, len),
            4 => fold_pair_group::<4>(group, rows, len),
            5 => fold_pair_group::<5>(group, rows, len),
            6 => fold_pair_group::<6>(group, rows, len),
            7 => fold_pair_group::<7>(group, rows, len),
            _ => fold_pair_group::<LANES>(group, rows, len),
        }
    }
}

/// `L` rows of pairs in lock step.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // the lanes advance together at `p`
fn fold_pair_group<const L: usize>(group: &mut [[f32; 2]], rows: &[[f32; 2]], len: usize) {
    let lanes: [&[[f32; 2]]; L] = std::array::from_fn(|l| &rows[l * len..(l + 1) * len]);
    let mut state: [[f32; 2]; L] = std::array::from_fn(|l| group[l]);
    for p in 0..len {
        for l in 0..L {
            let pair = lanes[l][p];
            state[l] = [state[l][0] + pair[0], state[l][1] + pair[1]];
        }
    }
    group.copy_from_slice(&state);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_folded_like_two_scalar_chains() {
        for rows in 1..=19usize {
            let len = 41;
            let pairs: Vec<[f32; 2]> = (0..rows * len)
                .map(|i| {
                    [
                        ((i * 31 + 7) % 23) as f32 * 0.37 - 4.0,
                        (i % 17) as f32 * 0.11,
                    ]
                })
                .collect();
            let mut got = vec![[0.0f32, -0.0f32]; rows];
            fold_pairs(&mut got, &pairs, len);
            for (r, got) in got.iter().enumerate() {
                let mut want = [0.0f32, -0.0f32];
                for pair in &pairs[r * len..(r + 1) * len] {
                    want = [want[0] + pair[0], want[1] + pair[1]];
                }
                assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits));
            }
        }
    }

    #[test]
    fn every_row_is_folded_in_its_own_order() {
        // 1..=19 rows cross the lane groups (8 + 8 + 3) and every remainder.
        for rows in 1..=19usize {
            let len = 37;
            let x: Vec<f32> = (0..rows * len)
                .map(|i| ((i * 31 + 7) % 23) as f32 * 0.37 - 4.0)
                .collect();
            let y: Vec<f32> = x.iter().map(|v| v * 0.5 + 1.0).collect();
            let mut got = vec![(0.0f32, -0.0f32); rows];
            fold_rows(&mut got, [&x, &y], len, |r, (a, b), [xv, yv]| {
                (a + xv * yv, b + (xv - r as f32))
            });
            for (r, &(a, b)) in got.iter().enumerate() {
                let (mut wa, mut wb) = (0.0f32, -0.0f32);
                for p in 0..len {
                    wa += x[r * len + p] * y[r * len + p];
                    wb += x[r * len + p] - r as f32;
                }
                assert_eq!((a.to_bits(), b.to_bits()), (wa.to_bits(), wb.to_bits()));
            }
        }
    }
}
