//! # Amalgam
//!
//! A framework for **obfuscated neural network training on untrusted clouds**,
//! reproducing Taki & Mastorakis, *"Amalgam: A Framework for Obfuscated Neural
//! Network Training on the Cloud"*, MIDDLEWARE 2024.
//!
//! Training a proprietary model on a proprietary dataset in a public cloud
//! exposes both to the provider. Amalgam hides them by *augmentation*: noise
//! values are inserted at secret indices of every sample, and the model is
//! wrapped in a maze of synthetic sub-networks whose first layers are custom
//! masked convolutions/embeddings, each reading a different (secret) subset of
//! the augmented input. The sub-network holding the original layers reads
//! exactly the original values and never receives input from synthetic layers,
//! so the original parameters train exactly as they would have locally. After
//! cloud training, the original model is extracted and used with the original
//! data.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense `f32` tensors and compute kernels,
//! * [`nn`] — layers, the graph IR, losses and optimizers,
//! * [`data`] — synthetic stand-ins for the paper's six datasets,
//! * [`models`] — LeNet-5, ResNet-18, VGG-16, DenseNet-121, MobileNetV2,
//!   a text classifier and a transformer language model,
//! * [`core`] — the Amalgam contribution: dataset/model augmenters, masked
//!   layers, the extractor, Algorithm-1 trainer and privacy math,
//! * [`cloud`] — the untrusted training service: one fixed job pipeline
//!   (panic/admission/dedup/ratelimit/auth/decode/validate/observer/train
//!   stages) over a multi-worker scheduler with per-session
//!   rate limiting and weighted deficit-round-robin fairness, plus a
//!   framed TCP transport (`cloud::transport`) so jobs can cross a real
//!   wire — `CloudServer` in front of the pool, `RemoteCloudClient` on
//!   the other end,
//! * [`attacks`] — DLG/iDLG, KernelSHAP, denoising and brute-force analyses,
//! * [`baselines`] — vanilla, MPC, HE, DISCO-like and TEE/CPU comparators.
//!
//! # Quickstart
//!
//! ```
//! use amalgam::prelude::*;
//!
//! // A tiny model and a tiny synthetic dataset.
//! let mut rng = Rng::seed_from(7);
//! let model = amalgam::models::lenet5(1, 8, 10, &mut rng);
//! let data = amalgam::data::SyntheticImageSpec::mnist_like()
//!     .with_counts(64, 16)
//!     .with_hw(8)
//!     .generate(&mut rng);
//!
//! // Obfuscate both, exactly as they would be shipped to the cloud.
//! let cfg = ObfuscationConfig::new(0.5).with_seed(42);
//! let bundle = Amalgam::obfuscate(&model, &data, &cfg)?;
//! assert!(bundle.augmented_model.param_count() > model.param_count());
//! # Ok::<(), amalgam::core::AmalgamError>(())
//! ```

pub use amalgam_attacks as attacks;
pub use amalgam_baselines as baselines;
pub use amalgam_cloud as cloud;
pub use amalgam_core as core;
pub use amalgam_data as data;
pub use amalgam_models as models;
pub use amalgam_nn as nn;
pub use amalgam_proxy as proxy;
pub use amalgam_tensor as tensor;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use amalgam_cloud::{
        ClientStats, CloudClient, CloudError, CloudJob, CloudServer, CloudService, JobHandle,
        JobResult, ReconnectPolicy, RemoteCloudClient, ServiceStats, TaskPayload, TransportConfig,
    };
    pub use amalgam_core::{
        Amalgam, AugmentationAmount, NoiseKind, ObfuscationConfig, TrainConfig,
    };
    pub use amalgam_nn::graph::GraphModel;
    pub use amalgam_nn::Mode;
    pub use amalgam_tensor::{Rng, Tensor};
}
