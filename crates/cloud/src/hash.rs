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
//! There is one implementation, in plain Rust. The lanes' states are kept
//! word-major (one state word of all eight lanes is 64 contiguous bytes),
//! so the stripe loop is eight independent chains that the compiler may
//! run in vector registers; nothing about the result depends on whether it
//! does, only the speed.
//!
//! Measured on one machine, the reference box (2 vCPUs, Xeon @ 2.1 GHz
//! with AVX-512; `cloud-quick`'s `cloud_address` entry, a 131 293-byte job
//! encoding, best of nine batches, several runs), `siphash128` reading
//! 2.1–2.8 GB/s throughout:
//!
//! | build | digest | against the chain |
//! |---|---|---|
//! | the workspace's `target-cpu=native` (AVX-512 here) | 7.8–9.4 GB/s | 3.7–4.3x |
//! | `-C target-cpu=haswell` (AVX2, no AVX-512), same chip | 2.0–3.3 GB/s | 1.0–1.2x |
//! | baseline x86-64 | 3.6–3.8 GB/s | 1.3–1.8x |
//!
//! With AVX-512 the compiler turns the loop into 512-bit adds, xors and
//! native 64-bit rotates (`vprolq`). AVX2 has no vector rotate, and there
//! LLVM keeps all eight lanes scalar (`rorx`): still correct, about the
//! chain's speed. A hand-written AVX2 stripe loop (two 256-bit registers
//! per state word, rotates as shift-or) read 6–8.5 GB/s in a scratch
//! build; it is not in the tree because nothing here builds or runs for an
//! AVX2-only host yet — ROADMAP lists what would justify it. No real
//! AVX2-only machine was timed. Below ≈ 500 bytes the single chain is the
//! faster of the two in every build.
//!
//! [`siphash128`] remains the primitive — the lanes' round function, the
//! root, and the right tool for short inputs (`proxy::ring`'s routing keys
//! are a few dozen bytes, where eight initialisations, eight finalisations
//! and a 136-byte root make the striped digest five times *slower*: 0.22
//! against 1.14 GB/s at 40 bytes).
//! No bulk payload goes through it any more.

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

/// Compresses whole stripes (`whole.len()` a multiple of [`STRIPE`]).
fn compress_stripes(v: &mut LaneState, whole: &[u8]) {
    debug_assert_eq!(whole.len() % STRIPE, 0);
    for stripe in whole.chunks_exact(STRIPE) {
        let mut m = [0u64; LANES];
        for (word, bytes) in m.iter_mut().zip(stripe.chunks_exact(8)) {
            *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
        }
        lanes_compress(v, &m);
    }
}

/// The bulk digest: eight SipHash-2-4-128 lanes over 64-byte stripes of
/// `bytes` under one SipHash-2-4-128 root, keyed by `(k0, k1)` — see the
/// [module docs](self) for the construction and what a collision would
/// take. Packed like [`siphash128`]'s output.
pub fn digest128(k0: u64, k1: u64, bytes: &[u8]) -> u128 {
    let mut v: LaneState = [[0; LANES]; 4];
    for i in 0..LANES {
        set_lane(&mut v, i, sip_init(k0 ^ ((i as u64 + 1) << 56), k1));
    }
    let (whole, tail) = bytes.split_at(bytes.len() - bytes.len() % STRIPE);
    compress_stripes(&mut v, whole);
    if !tail.is_empty() {
        let mut last = [0u8; STRIPE];
        last[..tail.len()].copy_from_slice(tail);
        compress_stripes(&mut v, &last);
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

    fn digest(bytes: &[u8]) -> u128 {
        digest128(RK0, RK1, bytes)
    }

    /// The module docs' five steps taken literally, one lane at a time:
    /// pad, deal the words out, append the length, run each lane's chain
    /// from start to finish, hash the digests.
    fn lane_by_lane(bytes: &[u8]) -> u128 {
        let mut padded = bytes.to_vec();
        padded.resize(bytes.len().div_ceil(STRIPE) * STRIPE, 0);
        let len = bytes.len() as u64;
        let mut root = Vec::new();
        for i in 0..LANES {
            let mut v = sip_init(RK0 ^ ((i as u64 + 1) << 56), RK1);
            for stripe in padded.chunks_exact(STRIPE) {
                let word = stripe[8 * i..8 * i + 8].try_into().expect("8 bytes");
                sip_compress(&mut v, u64::from_le_bytes(word));
            }
            sip_compress(&mut v, len);
            root.extend_from_slice(&sip_finish128(v).to_le_bytes());
        }
        root.extend_from_slice(&len.to_le_bytes());
        siphash128(RK0, RK1, &root)
    }

    /// The job payload of the benchmark's `dispatch_*` workloads, to the
    /// byte (`cloud.protocol.upload_bytes` per submission).
    const PAYLOAD_LEN: usize = 127_828;

    #[test]
    fn digest_is_the_lane_by_lane_definition_on_every_length() {
        let data = seeded(200_000, 1);
        let mut seen = std::collections::HashSet::new();
        let lens = (0..=4096).chain([65_535, 65_536, PAYLOAD_LEN, 200_000]);
        for len in lens {
            let want = lane_by_lane(&data[..len]);
            assert_eq!(digest(&data[..len]), want, "length {len}");
            assert!(seen.insert(want), "length {len} collides with a prefix");
        }
    }

    #[test]
    fn structure_cannot_alias() {
        let base = seeded(5 * STRIPE + 37, 2);
        let whole_digest = digest(&base);
        let differs = |what: &str, other: &[u8]| assert_ne!(digest(other), whole_digest, "{what}");

        let mut swapped = base.clone();
        let (a, b) = swapped.split_at_mut(2 * STRIPE);
        a[STRIPE..].swap_with_slice(&mut b[..STRIPE]);
        differs("two stripes swapped", &swapped);

        // One word handed to the neighbouring lane, everything else equal.
        let mut one = vec![0u8; 2 * STRIPE];
        one[STRIPE + 8 * 3] = 1;
        let mut neighbour = vec![0u8; 2 * STRIPE];
        neighbour[STRIPE + 8 * 4] = 1;
        assert_ne!(digest(&one), digest(&neighbour));

        // A zero tail is not padding: neither appending zeros nor cutting
        // them back to the stripe boundary is free.
        let mut zero_tail = base[..5 * STRIPE].to_vec();
        let whole = digest(&zero_tail);
        for extra in [1, 7, 8, STRIPE - 1, STRIPE] {
            zero_tail.resize(5 * STRIPE + extra, 0);
            assert_ne!(digest(&zero_tail), whole, "{extra} zero bytes appended");
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
            let got = digest(&input);
            assert_eq!(got, want, "{} bytes: got {got:#034x}", input.len());
        }
    }
}
