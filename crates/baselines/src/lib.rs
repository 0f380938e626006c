//! Privacy-preserving training baselines (paper §5.5, Figure 14).
//!
//! The paper compares Amalgam against vanilla PyTorch, CrypTen (MPC),
//! PyCrCNN (FHE), DISCO (channel obfuscation) and a CPU-only TEE stand-in on
//! LeNet/MNIST, 10 epochs, lr 0.001, batch 128. This crate builds working
//! equivalents of each *mechanism* so the comparison's shape — who is slower
//! and by roughly what factor — reproduces:
//!
//! * [`mpc`] — genuine 3-party additive secret sharing over a fixed-point
//!   ring with Beaver-triple multiplication and byte-counted simulated
//!   communication (the CrypTen mechanism);
//! * [`he`] — a working BFV-style homomorphic scheme (negacyclic polynomial
//!   ring, RLWE encryption, homomorphic add / plain-mul / ct-mul with
//!   relinearization) used to *measure* per-operation cost and extrapolate a
//!   full training epoch (the PyCrCNN mechanism; the paper itself reports
//!   "over 3 days" — also an extrapolation-scale number);
//! * [`disco`] — dynamic channel obfuscation inserted into the model;
//! * [`comparison`] — the Figure 14 harness, whose CPU-only row (the
//!   paper's own best-case TEE stand-in) is the vanilla trainer.

pub mod comparison;
pub mod disco;
pub mod he;
pub mod mpc;

/// The frameworks compared in Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Framework {
    /// No privacy preservation (vanilla training).
    Baseline,
    /// Amalgam at 100 % model + dataset augmentation.
    Amalgam,
    /// DISCO-style dynamic channel obfuscation.
    Disco,
    /// CrypTen-style 3-party MPC.
    Mpc,
    /// CPU-only training (best-case TEE).
    Tee,
    /// PyCrCNN-style fully homomorphic encryption.
    He,
}

impl Framework {
    /// Display name matching the paper's Figure 14 labels.
    pub fn name(&self) -> &'static str {
        match self {
            Framework::Baseline => "PyTorch (baseline)",
            Framework::Amalgam => "Amalgam",
            Framework::Disco => "DISCO",
            Framework::Mpc => "CrypTen (MPC)",
            Framework::Tee => "CPU/TEE",
            Framework::He => "PyCrCNN (FHE)",
        }
    }
}

impl std::fmt::Display for Framework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
