//! BFV-style homomorphic encryption (the PyCrCNN mechanism).
//!
//! A working, deliberately simple scheme over the negacyclic ring
//! `R_q = Z_q[X]/(X^N + 1)` with plaintext modulus `t`:
//!
//! * symmetric RLWE encryption with a small ternary secret;
//! * homomorphic addition, plaintext multiplication, and ciphertext
//!   multiplication with relinearization via a base-decomposed evaluation
//!   key;
//! * naive `O(N²)` polynomial multiplication (no NTT) — deliberately, since
//!   PyCrCNN's measured slowness is what Figure 14 reports, and a textbook
//!   implementation reproduces that character.
//!
//! The comparison harness measures encrypted multiply-accumulate throughput
//! and extrapolates one LeNet training epoch (the paper itself reports the
//! PyCrCNN bar as "over 3 days" — an extrapolation-scale number).

use amalgam_tensor::Rng;

/// Scheme parameters.
#[derive(Debug, Clone, Copy)]
pub struct BfvParams {
    /// Ring dimension (power of two).
    pub n: usize,
    /// Ciphertext modulus.
    pub q: u64,
    /// Plaintext modulus.
    pub t: u64,
    /// Error std-dev for fresh encryptions.
    pub sigma: f64,
    /// Relinearization decomposition base (power of two).
    pub base_bits: u32,
}

impl BfvParams {
    /// Test-friendly parameters: `N = 256`, 40-bit modulus.
    pub fn small() -> Self {
        BfvParams {
            n: 256,
            q: (1u64 << 56) - 5,
            t: 65_537,
            sigma: 3.2,
            base_bits: 6,
        }
    }

    /// Δ = ⌊q/t⌋, the plaintext scaling factor.
    pub fn delta(&self) -> u64 {
        self.q / self.t
    }
}

/// A polynomial in `R_q`, coefficient representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    coeffs: Vec<u64>,
}

impl Poly {
    fn zero(n: usize) -> Self {
        Poly { coeffs: vec![0; n] }
    }

    fn uniform(n: usize, q: u64, rng: &mut Rng) -> Self {
        Poly {
            coeffs: (0..n).map(|_| rng.next_u64() % q).collect(),
        }
    }

    fn ternary(n: usize, q: u64, rng: &mut Rng) -> Self {
        Poly {
            coeffs: (0..n)
                .map(|_| match rng.below(3) {
                    0 => 0,
                    1 => 1,
                    _ => q - 1, // −1 mod q
                })
                .collect(),
        }
    }

    fn gaussian(n: usize, q: u64, sigma: f64, rng: &mut Rng) -> Self {
        Poly {
            coeffs: (0..n)
                .map(|_| {
                    let e = rng.normal(0.0, sigma as f32).round() as i64;
                    e.rem_euclid(q as i64) as u64
                })
                .collect(),
        }
    }

    fn add(&self, other: &Poly, q: u64) -> Poly {
        Poly {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(&a, &b)| addmod(a, b, q))
                .collect(),
        }
    }

    fn neg(&self, q: u64) -> Poly {
        Poly {
            coeffs: self
                .coeffs
                .iter()
                .map(|&a| if a == 0 { 0 } else { q - a })
                .collect(),
        }
    }

    /// Negacyclic multiplication: `X^N = −1`.
    fn mul(&self, other: &Poly, q: u64) -> Poly {
        let n = self.coeffs.len();
        let mut out = vec![0u64; n];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                let prod = mulmod(a, b, q);
                let k = i + j;
                if k < n {
                    out[k] = addmod(out[k], prod, q);
                } else {
                    out[k - n] = addmod(out[k - n], q - prod, q);
                }
            }
        }
        Poly { coeffs: out }
    }

    fn scale(&self, k: u64, q: u64) -> Poly {
        Poly {
            coeffs: self.coeffs.iter().map(|&a| mulmod(a, k % q, q)).collect(),
        }
    }
}

fn addmod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 + b as u128) % q as u128) as u64
}

fn mulmod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Centered representative of `x mod q` in `[−q/2, q/2)`.
fn centered(x: u64, q: u64) -> i128 {
    let x = x as i128;
    let q = q as i128;
    if x >= q / 2 {
        x - q
    } else {
        x
    }
}

/// The secret key (a small ternary polynomial).
#[derive(Debug, Clone)]
pub struct SecretKey {
    s: Poly,
}

/// An evaluation key for relinearization: encryptions of `s²·Bᵗ`.
#[derive(Debug, Clone)]
pub struct EvalKey {
    parts: Vec<(Poly, Poly)>,
}

/// A degree-1 BFV ciphertext `(c0, c1)` with `c0 + c1·s ≈ Δ·m`.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    c0: Poly,
    c1: Poly,
}

/// The BFV-lite scheme.
#[derive(Debug, Clone)]
pub struct Bfv {
    /// The public parameters.
    pub params: BfvParams,
}

impl Bfv {
    /// A scheme instance over the given parameters.
    pub fn new(params: BfvParams) -> Self {
        Bfv { params }
    }

    /// Samples a fresh secret key.
    pub fn keygen(&self, rng: &mut Rng) -> SecretKey {
        SecretKey {
            s: Poly::ternary(self.params.n, self.params.q, rng),
        }
    }

    /// Generates the relinearization key for `sk`.
    pub fn eval_keygen(&self, sk: &SecretKey, rng: &mut Rng) -> EvalKey {
        let p = self.params;
        let s2 = sk.s.mul(&sk.s, p.q);
        let levels = (64 - p.q.leading_zeros()).div_ceil(p.base_bits) as usize;
        let mut parts = Vec::with_capacity(levels);
        let mut factor = 1u64;
        for _ in 0..levels {
            let a = Poly::uniform(p.n, p.q, rng);
            let e = Poly::gaussian(p.n, p.q, p.sigma, rng);
            // b = −a·s + e + factor·s²
            let b = a
                .mul(&sk.s, p.q)
                .neg(p.q)
                .add(&e, p.q)
                .add(&s2.scale(factor, p.q), p.q);
            parts.push((b, a));
            factor = factor.wrapping_shl(p.base_bits) % p.q;
        }
        EvalKey { parts }
    }

    /// Encrypts a plaintext vector of length ≤ N with entries `< t`.
    ///
    /// # Panics
    ///
    /// Panics if the message is too long or any entry ≥ t.
    pub fn encrypt(&self, msg: &[u64], sk: &SecretKey, rng: &mut Rng) -> Ciphertext {
        let p = self.params;
        assert!(msg.len() <= p.n, "message too long for ring dimension");
        assert!(
            msg.iter().all(|&m| m < p.t),
            "message entry exceeds plaintext modulus"
        );
        let mut m = Poly::zero(p.n);
        for (i, &v) in msg.iter().enumerate() {
            m.coeffs[i] = mulmod(v, p.delta(), p.q);
        }
        let a = Poly::uniform(p.n, p.q, rng);
        let e = Poly::gaussian(p.n, p.q, p.sigma, rng);
        // c0 = −a·s + e + Δm ; c1 = a
        let c0 = a.mul(&sk.s, p.q).neg(p.q).add(&e, p.q).add(&m, p.q);
        Ciphertext { c0, c1: a }
    }

    /// Decrypts to a plaintext vector of length `len`.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey, len: usize) -> Vec<u64> {
        let p = self.params;
        let phase = ct.c0.add(&ct.c1.mul(&sk.s, p.q), p.q);
        (0..len)
            .map(|i| {
                let v = centered(phase.coeffs[i], p.q);
                // Round v / Δ to the nearest integer mod t.
                let t = p.t as i128;
                let q = p.q as i128;
                let scaled = (v * t + q / 2).div_euclid(q);
                scaled.rem_euclid(t) as u64
            })
            .collect()
    }

    /// Homomorphic addition.
    pub fn add(&self, x: &Ciphertext, y: &Ciphertext) -> Ciphertext {
        Ciphertext {
            c0: x.c0.add(&y.c0, self.params.q),
            c1: x.c1.add(&y.c1, self.params.q),
        }
    }

    /// Multiplication by a plaintext scalar (`k < t`).
    pub fn mul_plain_scalar(&self, x: &Ciphertext, k: u64) -> Ciphertext {
        Ciphertext {
            c0: x.c0.scale(k, self.params.q),
            c1: x.c1.scale(k, self.params.q),
        }
    }

    /// Multiplication by a plaintext polynomial (entries `< t`).
    pub fn mul_plain(&self, x: &Ciphertext, plain: &[u64]) -> Ciphertext {
        let p = self.params;
        let mut m = Poly::zero(p.n);
        for (i, &v) in plain.iter().enumerate() {
            m.coeffs[i] = v % p.q;
        }
        Ciphertext {
            c0: x.c0.mul(&m, p.q),
            c1: x.c1.mul(&m, p.q),
        }
    }

    /// Ciphertext-ciphertext multiplication with relinearization.
    ///
    /// BFV tensor product with `t/q` rescaling, then the degree-2 term is
    /// folded back with the evaluation key.
    pub fn mul(&self, x: &Ciphertext, y: &Ciphertext, evk: &EvalKey) -> Ciphertext {
        let p = self.params;
        // Tensor product in Z (exact), then scale by t/q and round.
        let d0 = self.scaled_mul(&x.c0, &y.c0);
        let d1 = self
            .scaled_mul(&x.c0, &y.c1)
            .add(&self.scaled_mul(&x.c1, &y.c0), p.q);
        let d2 = self.scaled_mul(&x.c1, &y.c1);
        // Relinearize d2 via base decomposition.
        let mask = (1u64 << p.base_bits) - 1;
        let mut c0 = d0;
        let mut c1 = d1;
        let mut rem = d2;
        for (b, a) in &evk.parts {
            let digit = Poly {
                coeffs: rem.coeffs.iter().map(|&c| c & mask).collect(),
            };
            rem = Poly {
                coeffs: rem.coeffs.iter().map(|&c| c >> p.base_bits).collect(),
            };
            c0 = c0.add(&digit.mul(b, p.q), p.q);
            c1 = c1.add(&digit.mul(a, p.q), p.q);
        }
        Ciphertext { c0, c1 }
    }

    /// Negacyclic product over the integers followed by `·t/q` rounding —
    /// the BFV multiplication core.
    fn scaled_mul(&self, a: &Poly, b: &Poly) -> Poly {
        let p = self.params;
        let n = p.n;
        let mut wide = vec![0i128; n];
        for (i, &av) in a.coeffs.iter().enumerate() {
            let ac = centered(av, p.q);
            if ac == 0 {
                continue;
            }
            for (j, &bv) in b.coeffs.iter().enumerate() {
                let prod = ac * centered(bv, p.q);
                let k = i + j;
                if k < n {
                    wide[k] += prod;
                } else {
                    wide[k - n] -= prod;
                }
            }
        }
        let q = p.q as i128;
        let t = p.t as i128;
        Poly {
            coeffs: wide
                .into_iter()
                .map(|v| {
                    // round(v·t/q) without overflowing i128: split v = d·q + r.
                    let d = v.div_euclid(q);
                    let r = v.rem_euclid(q);
                    let scaled = d * t + (r * t + q / 2).div_euclid(q);
                    scaled.rem_euclid(q) as u64
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Bfv, SecretKey, Rng) {
        let mut rng = Rng::seed_from(42);
        let bfv = Bfv::new(BfvParams::small());
        let sk = bfv.keygen(&mut rng);
        (bfv, sk, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (bfv, sk, mut rng) = setup();
        let msg = vec![0u64, 1, 2, 42, 65_000, 123];
        let ct = bfv.encrypt(&msg, &sk, &mut rng);
        assert_eq!(bfv.decrypt(&ct, &sk, msg.len()), msg);
    }

    #[test]
    fn homomorphic_addition() {
        let (bfv, sk, mut rng) = setup();
        let a = vec![3u64, 10, 100];
        let b = vec![4u64, 20, 200];
        let ct = bfv.add(
            &bfv.encrypt(&a, &sk, &mut rng),
            &bfv.encrypt(&b, &sk, &mut rng),
        );
        assert_eq!(bfv.decrypt(&ct, &sk, 3), vec![7, 30, 300]);
    }

    #[test]
    fn plaintext_scalar_multiplication() {
        let (bfv, sk, mut rng) = setup();
        let ct = bfv.encrypt(&[5, 7], &sk, &mut rng);
        let ct2 = bfv.mul_plain_scalar(&ct, 9);
        assert_eq!(bfv.decrypt(&ct2, &sk, 2), vec![45, 63]);
    }

    #[test]
    fn plaintext_poly_multiplication() {
        let (bfv, sk, mut rng) = setup();
        // (m0 + m1·X) · (2) = constant-times; and ·X shifts.
        let ct = bfv.encrypt(&[3, 4], &sk, &mut rng);
        let shifted = bfv.mul_plain(&ct, &[0, 1]); // multiply by X
        let dec = bfv.decrypt(&shifted, &sk, 3);
        assert_eq!(&dec[..3], &[0, 3, 4]);
    }

    #[test]
    fn ciphertext_multiplication_with_relinearization() {
        let (bfv, sk, mut rng) = setup();
        let evk = bfv.eval_keygen(&sk, &mut rng);
        // Constant polynomials: (6)·(7) = 42.
        let x = bfv.encrypt(&[6], &sk, &mut rng);
        let y = bfv.encrypt(&[7], &sk, &mut rng);
        let z = bfv.mul(&x, &y, &evk);
        assert_eq!(bfv.decrypt(&z, &sk, 1)[0], 42);
    }

    #[test]
    fn ciphertext_squaring() {
        // PyCrCNN replaces the activation with x² — exercise that exact op.
        let (bfv, sk, mut rng) = setup();
        let evk = bfv.eval_keygen(&sk, &mut rng);
        let x = bfv.encrypt(&[12], &sk, &mut rng);
        let z = bfv.mul(&x, &x, &evk);
        assert_eq!(bfv.decrypt(&z, &sk, 1)[0], 144);
    }

    #[test]
    fn noise_does_not_corrupt_small_circuits() {
        let (bfv, sk, mut rng) = setup();
        // A dot product of length 8 via plain-mul + additions.
        let xs = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let ws = [2u64, 7, 1, 8, 2, 8, 1, 8];
        let mut acc: Option<Ciphertext> = None;
        for (&x, &w) in xs.iter().zip(&ws) {
            let ct = bfv.mul_plain_scalar(&bfv.encrypt(&[x], &sk, &mut rng), w);
            acc = Some(match acc {
                Some(a) => bfv.add(&a, &ct),
                None => ct,
            });
        }
        let want: u64 = xs.iter().zip(&ws).map(|(&x, &w)| x * w).sum();
        assert_eq!(bfv.decrypt(&acc.unwrap(), &sk, 1)[0], want);
    }
}
