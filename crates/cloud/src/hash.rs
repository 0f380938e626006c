//! Content addressing: a vendored, dependency-free SipHash-2-4 with
//! 128-bit output, and the bulk digest built from it that addresses a
//! job's canonical wire encoding.
//!
//! The dedup subsystem ([`crate::cache`]) needs one property above all:
//! **two submissions are duplicates exactly when their canonical encodings
//! are byte-identical**, whether they were serialized by an in-process
//! [`crate::CloudClient`] or arrived over the transport. Hashing the
//! payload bytes (the output of [`crate::CloudJob::to_bytes`]) with a
//! *fixed-key* SipHash construction gives a stable 128-bit address: the
//! same bytes hash identically in every process, on every run, on both
//! sides of the wire.
//!
//! SipHash was chosen over a simple FNV/xx-style mixer because cache keys
//! are attacker-influenced (any client can submit any payload): SipHash's
//! keyed ARX construction has no known shortcut for engineering
//! collisions, and at 128 bits accidental collisions are out of reach.
//! The keys are nevertheless *fixed constants* — the address must be a
//! pure function of the bytes, not of a per-service secret, or local and
//! remote submissions of the same job would stop hashing identically
//! (and a checkpoint written by one backend could not be found by the
//! next).
//!
//! `std::hash::DefaultHasher` is explicitly documented as unstable across
//! releases, and the repo vendors no hashing crate, so the primitive is
//! implemented here against the reference test vectors.
//!
//! # The bulk digest
//!
//! One SipHash chain is a serial dependency: every 8-byte word waits for
//! the two rounds of the word before it, which holds a 128 KB payload to
//! 2–3 GB/s however wide the machine is. [`digest128`] keeps the round
//! function, the round counts and the output width, and runs eight chains
//! side by side:
//!
//! 1. **Lanes.** Eight SipHash-2-4-128 states; lane `i` is keyed
//!    `(k0 ^ ((i + 1) << 56), k1)`, so no lane shares a key with another
//!    lane or with the root.
//! 2. **Stripes.** The input is dealt in 64-byte stripes: little-endian
//!    word `j` of a stripe is compressed into lane `j` (two SipRounds,
//!    exactly as `siphash128` compresses a word). A final partial stripe
//!    is zero-padded to 64 bytes.
//! 3. **Length stripe.** One more stripe carries the total byte length in
//!    every lane, so padding cannot alias a longer input and no lane's
//!    word sequence is a prefix of another input's.
//! 4. **Finalisation.** Each lane runs SipHash's standard 128-bit
//!    finalisation (`v2 ^= 0xee`, four rounds, `v1 ^= 0xdd`, four rounds).
//! 5. **Root.** The 8 × 16 lane-digest bytes followed by the length are
//!    hashed by [`siphash128`] under `(k0, k1)`.
//!
//! Two different inputs of the same length differ in some word, hence in
//! the word sequence of some lane; two inputs of different lengths differ
//! in every lane's last word. Either way the digests can only be equal if
//! that lane collides under its fixed, known key, or — the lane digests
//! differing — the root does. That is precisely the assumption a single
//! fixed-key `siphash128` over the payload makes, at the same 2 + 4
//! rounds and the same 128 bits; there is no reduced-round or non-SipHash
//! path.
//!
//! The whole-stripe loop is the only part with a second implementation:
//! an AVX2 kernel (two 256-bit registers per state word) chosen by
//! [`amalgam_tensor::simd::active_tier`], like every other kernel in the
//! tree. The portable loop is the fallback and the oracle the tests hold
//! the kernel to, bit for bit, on every length; tail, length stripe,
//! finalisation and root are shared scalar code.
//!
//! Measured on the reference box (2 vCPUs, Xeon @ 2.1 GHz with AVX-512;
//! `cloud-quick`'s `cloud_address` entry, a 131 293-byte job encoding,
//! best of nine batches, several runs): `siphash128` 2.1–2.8 GB/s, the
//! digest on the AVX2 kernel 8.1–9.5 GB/s. The portable loop reads
//! 3.6–3.8 GB/s compiled for baseline x86-64 and 7.8–9.0 GB/s under the
//! workspace's `target-cpu=native`, where the compiler vectorises the
//! eight-lane loop itself — the hand-written kernel is what keeps the
//! figure in a build that was not tuned to the machine it runs on. Below
//! ≈ 500 bytes the single chain is the faster of the two.
//!
//! [`siphash128`] remains the primitive — the lanes' round function, the
//! root, and the right tool for short inputs (`proxy::ring`'s routing keys
//! are a few dozen bytes, where eight initialisations, eight finalisations
//! and a 136-byte root make the striped digest five times *slower*: 0.22
//! against 1.14 GB/s at 40 bytes).
//! No bulk payload goes through it any more.

use amalgam_tensor::simd::{self, Tier};
use std::fmt;

/// First half of the fixed SipHash key (`b"amalgam.".LE`).
const KEY0: u64 = u64::from_le_bytes(*b"amalgam.");
/// Second half of the fixed SipHash key (`b"dedup.v1".LE`).
const KEY1: u64 = u64::from_le_bytes(*b"dedup.v1");

/// The canonical 128-bit content address of a job payload.
///
/// Derived by [`ContentAddress::of`] from the job's canonical wire
/// encoding; equal payload bytes yield equal addresses in every process.
/// Displayed as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentAddress(u128);

impl ContentAddress {
    /// Hashes a canonical payload encoding into its content address: the
    /// fixed-key [`digest128`] of the bytes, read in place.
    pub fn of(payload: &[u8]) -> ContentAddress {
        ContentAddress(digest128(KEY0, KEY1, payload))
    }

    /// The raw 128-bit value (little-endian halves of the digest).
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

impl fmt::Display for ContentAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[inline(always)]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// The initial SipHash state for `(k0, k1)`, 128-bit output variant.
#[inline(always)]
fn sip_init(k0: u64, k1: u64) -> [u64; 4] {
    [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d ^ 0xee, // 128-bit output variant
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ]
}

/// Compresses one message word: the "2" of SipHash-2-4.
#[inline(always)]
fn sip_compress(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sipround(v);
    sipround(v);
    v[0] ^= m;
}

/// The 128-bit finalisation: the "4" of SipHash-2-4, once per output half.
#[inline(always)]
fn sip_finish128(mut v: [u64; 4]) -> u128 {
    v[2] ^= 0xee;
    for _ in 0..4 {
        sipround(&mut v);
    }
    let h1 = v[0] ^ v[1] ^ v[2] ^ v[3];
    v[1] ^= 0xdd;
    for _ in 0..4 {
        sipround(&mut v);
    }
    let h2 = v[0] ^ v[1] ^ v[2] ^ v[3];
    (h1 as u128) | ((h2 as u128) << 64)
}

/// SipHash-2-4 with 128-bit output (the reference `siphash` with
/// `outlen = 16`), keyed by `(k0, k1)`.
///
/// The two 64-bit halves of the result are packed little-endian-first:
/// `out = h1 | (h2 << 64)`, so `out.to_le_bytes()` reproduces the byte
/// order of the reference implementation's test vectors.
///
/// One sequential chain: the right tool for short keys, and the root of
/// [`digest128`], which is what bulk payloads go through.
pub fn siphash128(k0: u64, k1: u64, data: &[u8]) -> u128 {
    let mut v = sip_init(k0, k1);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        sip_compress(&mut v, m);
    }
    // Last block: remaining bytes, with the low byte of the total length
    // in the top lane — length extension cannot alias a shorter input.
    let rest = chunks.remainder();
    let mut last = (data.len() as u64) << 56;
    for (i, &b) in rest.iter().enumerate() {
        last |= (b as u64) << (8 * i);
    }
    sip_compress(&mut v, last);
    sip_finish128(v)
}

/// Independent SipHash chains in [`digest128`].
const LANES: usize = 8;
/// Bytes one stripe deals out: one little-endian word to each lane.
const STRIPE: usize = 8 * LANES;

/// The lanes' SipHash states, word-major: `v[w][i]` is state word `w` of
/// lane `i`, so one state word of all lanes is 64 contiguous bytes.
type LaneState = [[u64; LANES]; 4];

/// Compresses whole stripes (`whole.len()` a multiple of [`STRIPE`]).
type StripesFn = fn(&mut LaneState, &[u8]);

/// Lane `i`'s four state words.
#[inline(always)]
fn lane(v: &LaneState, i: usize) -> [u64; 4] {
    [v[0][i], v[1][i], v[2][i], v[3][i]]
}

#[inline(always)]
fn set_lane(v: &mut LaneState, i: usize, lane: [u64; 4]) {
    for (words, word) in v.iter_mut().zip(lane) {
        words[i] = word;
    }
}

/// Compresses word `i` of `m` into lane `i`, for every lane.
#[inline(always)]
fn lanes_compress(v: &mut LaneState, m: &[u64; LANES]) {
    for (i, &word) in m.iter().enumerate() {
        let mut state = lane(v, i);
        sip_compress(&mut state, word);
        set_lane(v, i, state);
    }
}

/// The whole-stripe loop in plain Rust: the fallback on every target and
/// the oracle the AVX2 kernel is tested against.
fn portable_stripes(v: &mut LaneState, whole: &[u8]) {
    debug_assert_eq!(whole.len() % STRIPE, 0);
    for stripe in whole.chunks_exact(STRIPE) {
        let mut m = [0u64; LANES];
        for (word, bytes) in m.iter_mut().zip(stripe.chunks_exact(8)) {
            *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
        }
        lanes_compress(v, &m);
    }
}

/// AVX2 whole-stripe loop (plain `fn` so it fits [`StripesFn`]).
#[cfg(target_arch = "x86_64")]
fn avx2_stripes(v: &mut LaneState, whole: &[u8]) {
    debug_assert_eq!(whole.len() % STRIPE, 0);
    // SAFETY: AVX2 presence was verified by `simd::active_tier` before this
    // kernel was selected.
    unsafe { avx2::stripes(v, whole) }
}

/// The whole-stripe loop for [`simd::active_tier`].
fn stripe_kernel() -> StripesFn {
    #[cfg(target_arch = "x86_64")]
    if simd::active_tier() == Tier::Simd {
        return avx2_stripes;
    }
    portable_stripes
}

/// The bulk digest: eight SipHash-2-4-128 lanes over 64-byte stripes of
/// `bytes` under one SipHash-2-4-128 root, keyed by `(k0, k1)` — see the
/// [module docs](self) for the construction and what a collision would
/// take. Packed like [`siphash128`]'s output.
///
/// A pure function of `(k0, k1, bytes)`: the kernel tier changes how fast
/// the stripes are compressed, never the result.
pub fn digest128(k0: u64, k1: u64, bytes: &[u8]) -> u128 {
    digest128_with(stripe_kernel(), k0, k1, bytes)
}

fn digest128_with(stripes: StripesFn, k0: u64, k1: u64, bytes: &[u8]) -> u128 {
    let mut v: LaneState = [[0; LANES]; 4];
    for i in 0..LANES {
        set_lane(&mut v, i, sip_init(k0 ^ ((i as u64 + 1) << 56), k1));
    }
    let (whole, tail) = bytes.split_at(bytes.len() - bytes.len() % STRIPE);
    stripes(&mut v, whole);
    if !tail.is_empty() {
        let mut last = [0u8; STRIPE];
        last[..tail.len()].copy_from_slice(tail);
        portable_stripes(&mut v, &last);
    }
    let len = bytes.len() as u64;
    lanes_compress(&mut v, &[len; LANES]);

    let mut root = [0u8; 16 * LANES + 8];
    for (i, digest) in root[..16 * LANES].chunks_exact_mut(16).enumerate() {
        digest.copy_from_slice(&sip_finish128(lane(&v, i)).to_le_bytes());
    }
    root[16 * LANES..].copy_from_slice(&len.to_le_bytes());
    siphash128(k0, k1, &root)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{LaneState, LANES, STRIPE};
    use std::arch::x86_64::*;

    // Two registers of four 64-bit lanes hold one state word of all lanes.
    const _: () = assert!(LANES == 8);

    /// `rotate_left` of every 64-bit lane as shift-or.
    macro_rules! rotl {
        ($x:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi64::<$n>($x),
                _mm256_srli_epi64::<{ 64 - $n }>($x),
            )
        };
    }

    /// `rotate_left(32)` of every 64-bit lane: swap its two dwords.
    macro_rules! rotl32 {
        ($x:expr) => {
            _mm256_shuffle_epi32::<0b10_11_00_01>($x)
        };
    }

    /// [`super::sipround`] on four lanes: the same operations in the same
    /// order, one intrinsic each.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sipround(v: &mut [__m256i; 4]) {
        v[0] = _mm256_add_epi64(v[0], v[1]);
        v[1] = rotl!(v[1], 13);
        v[1] = _mm256_xor_si256(v[1], v[0]);
        v[0] = rotl32!(v[0]);
        v[2] = _mm256_add_epi64(v[2], v[3]);
        v[3] = rotl!(v[3], 16);
        v[3] = _mm256_xor_si256(v[3], v[2]);
        v[0] = _mm256_add_epi64(v[0], v[3]);
        v[3] = rotl!(v[3], 21);
        v[3] = _mm256_xor_si256(v[3], v[0]);
        v[2] = _mm256_add_epi64(v[2], v[1]);
        v[1] = rotl!(v[1], 17);
        v[1] = _mm256_xor_si256(v[1], v[2]);
        v[2] = rotl32!(v[2]);
    }

    /// [`super::portable_stripes`] with lanes 0–3 in one register per state
    /// word and lanes 4–7 in another: a stripe is two unaligned loads, and
    /// the two halves' rounds are independent chains the core overlaps.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available. Every load is of one whole
    /// 64-byte chunk of `whole` or of one state word of `v`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stripes(v: &mut LaneState, whole: &[u8]) {
        let mut lo = [_mm256_setzero_si256(); 4];
        let mut hi = [_mm256_setzero_si256(); 4];
        for w in 0..4 {
            lo[w] = _mm256_loadu_si256(v[w].as_ptr() as *const __m256i);
            hi[w] = _mm256_loadu_si256(v[w].as_ptr().add(4) as *const __m256i);
        }
        for stripe in whole.chunks_exact(STRIPE) {
            let p = stripe.as_ptr() as *const __m256i;
            let (m_lo, m_hi) = (_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1)));
            lo[3] = _mm256_xor_si256(lo[3], m_lo);
            hi[3] = _mm256_xor_si256(hi[3], m_hi);
            sipround(&mut lo);
            sipround(&mut hi);
            sipround(&mut lo);
            sipround(&mut hi);
            lo[0] = _mm256_xor_si256(lo[0], m_lo);
            hi[0] = _mm256_xor_si256(hi[0], m_hi);
        }
        for w in 0..4 {
            _mm256_storeu_si256(v[w].as_mut_ptr() as *mut __m256i, lo[w]);
            _mm256_storeu_si256(v[w].as_mut_ptr().add(4) as *mut __m256i, hi[w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference implementation's key: bytes `00 01 … 0f`.
    const RK0: u64 = 0x0706_0504_0302_0100;
    const RK1: u64 = 0x0f0e_0d0c_0b0a_0908;

    #[test]
    fn matches_reference_vectors() {
        // `vectors_128` from the SipHash reference implementation, with
        // input = first `len` bytes of `00 01 02 …`.
        let expect_len0: [u8; 16] = [
            0xa3, 0x81, 0x7f, 0x04, 0xba, 0x25, 0xa8, 0xe6, 0x6d, 0xf6, 0x72, 0x14, 0xc7, 0x55,
            0x02, 0x93,
        ];
        let expect_len1: [u8; 16] = [
            0xda, 0x87, 0xc1, 0xd8, 0x6b, 0x99, 0xaf, 0x44, 0x34, 0x76, 0x59, 0x11, 0x9b, 0x22,
            0xfc, 0x45,
        ];
        assert_eq!(siphash128(RK0, RK1, &[]).to_le_bytes(), expect_len0);
        assert_eq!(siphash128(RK0, RK1, &[0x00]).to_le_bytes(), expect_len1);
    }

    #[test]
    fn every_input_length_mod_8_hashes_distinctly() {
        // Exercise all remainder-block sizes; no two prefixes may collide
        // (they differ in content *and* length).
        let data: Vec<u8> = (0u8..32).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=data.len() {
            assert!(seen.insert(siphash128(RK0, RK1, &data[..len])));
        }
    }

    #[test]
    fn address_is_a_pure_function_of_bytes() {
        let a = ContentAddress::of(b"same bytes");
        let b = ContentAddress::of(b"same bytes");
        assert_eq!(a, b);
        assert_ne!(a, ContentAddress::of(b"same byteS"));
        assert_eq!(format!("{a}").len(), 32);
    }

    /// `len` bytes of a SplitMix64 stream from `seed`, little-endian word
    /// by word — self-contained, so the pinned digests below depend on
    /// nothing but this file.
    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    fn portable(bytes: &[u8]) -> u128 {
        digest128_with(portable_stripes, RK0, RK1, bytes)
    }

    /// The job payload of the `dispatch_*` workloads, to the byte.
    const PAYLOAD_LEN: usize = 127_828;

    #[test]
    fn dispatching_digest_is_the_portable_digest_on_every_length() {
        let data = seeded(200_000, 1);
        let mut seen = std::collections::HashSet::new();
        let lens = (0..=4096).chain([65_535, 65_536, PAYLOAD_LEN, 200_000]);
        for len in lens {
            let want = portable(&data[..len]);
            assert_eq!(digest128(RK0, RK1, &data[..len]), want, "length {len}");
            assert!(seen.insert(want), "length {len} collides with a prefix");
        }
    }

    #[test]
    fn structure_cannot_alias() {
        let base = seeded(5 * STRIPE + 37, 2);
        let digest = portable(&base);
        let differs = |what: &str, other: &[u8]| {
            assert_ne!(portable(other), digest, "{what}");
            assert_eq!(portable(other), digest128(RK0, RK1, other), "{what}");
        };

        let mut swapped = base.clone();
        let (a, b) = swapped.split_at_mut(2 * STRIPE);
        a[STRIPE..].swap_with_slice(&mut b[..STRIPE]);
        differs("two stripes swapped", &swapped);

        // One word handed to the neighbouring lane, everything else equal.
        let mut one = vec![0u8; 2 * STRIPE];
        one[STRIPE + 8 * 3] = 1;
        let mut neighbour = vec![0u8; 2 * STRIPE];
        neighbour[STRIPE + 8 * 4] = 1;
        assert_ne!(portable(&one), portable(&neighbour));

        // A zero tail is not padding: neither appending zeros nor cutting
        // them back to the stripe boundary is free.
        let mut zero_tail = base[..5 * STRIPE].to_vec();
        let whole = portable(&zero_tail);
        for extra in [1, 7, 8, STRIPE - 1, STRIPE] {
            zero_tail.resize(5 * STRIPE + extra, 0);
            assert_ne!(portable(&zero_tail), whole, "{extra} zero bytes appended");
        }
        differs("truncated to a stripe boundary", &base[..5 * STRIPE]);
        differs("one byte shorter", &base[..base.len() - 1]);

        for lane in 0..LANES {
            let mut flipped = base.clone();
            flipped[3 * STRIPE + 8 * lane + 5] ^= 0x10;
            differs(&format!("one bit flipped in lane {lane}"), &flipped);
        }
        let mut flipped = base.clone();
        *flipped.last_mut().expect("non-empty") ^= 0x01;
        differs("one bit flipped in the tail", &flipped);
    }

    #[test]
    fn known_answers_are_pinned() {
        // Re-pin only for a change that means to move every address: lane
        // keys, stripe order, padding, length stripe or root layout. Each
        // value was cross-checked against an independent implementation of
        // the module docs' five steps.
        let pinned: [(Vec<u8>, u128); 4] = [
            (vec![], 0xa613_73a4_bcd6_e4b4_b497_0ffc_2f53_cdb3),
            (vec![0x00], 0xe2ba_5cd1_cc4c_10e8_96fa_cddc_9d15_ddb0),
            (
                (0u8..64).collect(),
                0xdb08_449d_945a_5748_63aa_26e7_1d97_c9fa,
            ),
            (
                seeded(PAYLOAD_LEN, 0x00a3_a16a),
                0xcb9c_8f40_1b80_6439_9cc8_bc31_4b35_d376,
            ),
        ];
        for (input, want) in pinned {
            let got = digest128(RK0, RK1, &input);
            assert_eq!(got, want, "{} bytes: got {got:#034x}", input.len());
        }
    }
}
