//! The Dataset Augmenter (paper §4.1, Figure 2 and Figure 3).
//!
//! Images: each channel plane is vectorized, synthetic values are inserted
//! at the plan's noise positions, and the result is reshaped to the grown
//! square — exactly the paper's Figure 2 pipeline. Text: each batchified
//! window receives synthetic tokens at the plan's noise positions (Figure 3).
//!
//! One plan (insertion layout) is drawn per dataset; the layout is the
//! secret, the noise values themselves are not.

use crate::noise::NoiseKind;
use crate::plan::{ImagePlan, TextPlan};
use amalgam_data::{DataStats, ImageDataset, LmBatches, TextClassDataset};
use amalgam_tensor::{Rng, Tensor};

/// An augmented image dataset together with timing metadata.
#[derive(Debug, Clone)]
pub struct AugmentedImages {
    /// The augmented dataset (bigger planes, same labels).
    pub dataset: ImageDataset,
    /// Wall-clock seconds the augmentation took (Table 2's "Average time").
    pub seconds: f64,
}

/// Augments every image of `data` according to `plan`, inserting noise drawn
/// from `kind`.
///
/// All channels share the plan's layout, so the augmented image stays
/// spatially coherent (the paper's Figure 2 example).
///
/// # Panics
///
/// Panics if the dataset geometry disagrees with the plan.
pub fn augment_images(
    data: &ImageDataset,
    plan: &ImagePlan,
    kind: &NoiseKind,
    rng: &mut Rng,
) -> AugmentedImages {
    let start = std::time::Instant::now();
    let (c, h, w) = data.sample_dims();
    assert_eq!((h, w), plan.orig_hw(), "plan geometry mismatch");
    let (ah, aw) = plan.aug_hw();
    let n = data.len();
    let stats = DataStats::of(data.images());
    let noise_pos = plan.noise_positions();

    let mut out = Tensor::zeros(&[n, c, ah, aw]);
    let planes = out.data_mut().chunks_exact_mut((ah * aw).max(1));
    for (src, dst) in data
        .images()
        .data()
        .chunks_exact((h * w).max(1))
        .zip(planes)
    {
        // Scatter original pixels to their kept positions…
        for (&pos, &v) in plan.keep().iter().zip(src) {
            dst[pos] = v;
        }
        // …and fill the noise positions.
        for &pos in &noise_pos {
            dst[pos] = kind.sample(&stats, rng);
        }
    }
    let dataset = ImageDataset::new(out, data.labels().to_vec(), data.num_classes());
    AugmentedImages {
        dataset,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// An augmented language-model dataset: fixed windows with inserted tokens.
#[derive(Debug, Clone)]
pub struct AugmentedLmDataset {
    /// Augmented input windows, each `[B, T']` of token ids.
    pub windows: Vec<Tensor>,
    /// Vocabulary size (unchanged by augmentation).
    pub vocab: usize,
    /// Wall-clock seconds the augmentation took.
    pub seconds: f64,
}

impl AugmentedLmDataset {
    /// Total payload bytes as f32 tensors (Table 2's size metric).
    pub fn nbytes(&self) -> usize {
        self.windows.iter().map(|w| w.numel() * 4).sum()
    }
}

/// Augments every batchified window of an LM corpus according to `plan`.
///
/// # Panics
///
/// Panics if the window length disagrees with the plan.
pub fn augment_lm(
    batches: &LmBatches,
    plan: &TextPlan,
    kind: &NoiseKind,
    rng: &mut Rng,
) -> AugmentedLmDataset {
    let start = std::time::Instant::now();
    assert_eq!(
        batches.seq_len(),
        plan.orig_len(),
        "plan window length mismatch"
    );
    let vocab = batches.vocab();
    let noise_pos = plan.noise_positions();
    let (b, t, ta) = (batches.batch_size(), plan.orig_len(), plan.aug_len());

    let mut windows = Vec::with_capacity(batches.num_batches());
    for i in 0..batches.num_batches() {
        let (input, _) = batches.window(i);
        let mut aug = Tensor::zeros(&[b, ta]);
        let rows = aug.data_mut().chunks_exact_mut(ta.max(1));
        for (src, dst) in input.data().chunks_exact(t.max(1)).zip(rows) {
            for (&pos, &token) in plan.keep().iter().zip(src) {
                dst[pos] = token;
            }
            for &pos in &noise_pos {
                dst[pos] = kind.sample_token(vocab, rng) as f32;
            }
        }
        windows.push(aug);
    }
    AugmentedLmDataset {
        windows,
        vocab,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// An augmented text-classification dataset.
#[derive(Debug, Clone)]
pub struct AugmentedTextClass {
    /// The augmented dataset (longer documents, same labels).
    pub dataset: TextClassDataset,
    /// Wall-clock seconds the augmentation took.
    pub seconds: f64,
}

/// Augments every document of a classification corpus according to `plan`.
///
/// # Panics
///
/// Panics if the document length disagrees with the plan.
pub fn augment_text_class(
    data: &TextClassDataset,
    plan: &TextPlan,
    kind: &NoiseKind,
    rng: &mut Rng,
) -> AugmentedTextClass {
    let start = std::time::Instant::now();
    assert_eq!(
        data.doc_len(),
        plan.orig_len(),
        "plan document length mismatch"
    );
    let vocab = data.vocab();
    let noise_pos = plan.noise_positions();
    let ta = plan.aug_len();

    let mut docs = Vec::with_capacity(data.len());
    for doc in data.docs() {
        let mut aug = vec![0usize; ta];
        for (k, &pos) in plan.keep().iter().enumerate() {
            aug[pos] = doc[k];
        }
        for &pos in &noise_pos {
            aug[pos] = kind.sample_token(vocab, rng);
        }
        docs.push(aug);
    }
    let dataset = TextClassDataset::new(docs, data.labels().to_vec(), vocab, data.num_classes());
    AugmentedTextClass {
        dataset,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Recovers the original images from an augmented dataset using the secret
/// plan (sanity check / inverse of [`augment_images`]).
///
/// # Panics
///
/// Panics if geometry disagrees with the plan.
pub fn deaugment_images(aug: &ImageDataset, plan: &ImagePlan) -> ImageDataset {
    let (c, ah, aw) = aug.sample_dims();
    assert_eq!((ah, aw), plan.aug_hw(), "plan geometry mismatch");
    let (h, w) = plan.orig_hw();
    let n = aug.len();
    let mut out = Vec::with_capacity(n * c * h * w);
    for src in aug.images().data().chunks_exact((ah * aw).max(1)) {
        out.extend(plan.keep().iter().map(|&pos| src[pos]));
    }
    let out = Tensor::from_vec(out, &[n, c, h, w]);
    ImageDataset::new(out, aug.labels().to_vec(), aug.num_classes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalgam_data::{LmCorpus, SyntheticImageSpec, TextClassSpec};

    fn small_images(rng: &mut Rng) -> ImageDataset {
        SyntheticImageSpec::cifar10_like()
            .with_counts(6, 2)
            .with_hw(8)
            .generate(rng)
            .train
    }

    #[test]
    fn image_roundtrip_recovers_originals_exactly() {
        let mut rng = Rng::seed_from(0);
        let data = small_images(&mut rng);
        let plan = ImagePlan::random(8, 8, 0.5, &mut rng);
        let aug = augment_images(&data, &plan, &NoiseKind::UniformRandom, &mut rng);
        assert_eq!(aug.dataset.sample_dims(), (3, 12, 12));
        let back = deaugment_images(&aug.dataset, &plan);
        assert_eq!(back.images().data(), data.images().data());
        assert_eq!(back.labels(), data.labels());
    }

    #[test]
    fn augmented_size_matches_table2_formula() {
        // Table 2: size scales with the augmented resolution.
        let mut rng = Rng::seed_from(1);
        let data = small_images(&mut rng);
        let plan = ImagePlan::random(8, 8, 1.0, &mut rng);
        let aug = augment_images(&data, &plan, &NoiseKind::UniformRandom, &mut rng);
        assert_eq!(aug.dataset.nbytes(), 6 * 3 * 16 * 16 * 4);
    }

    #[test]
    fn labels_are_preserved() {
        let mut rng = Rng::seed_from(2);
        let data = small_images(&mut rng);
        let plan = ImagePlan::random(8, 8, 0.25, &mut rng);
        let aug = augment_images(&data, &plan, &NoiseKind::Gaussian { sigma: 0.2 }, &mut rng);
        assert_eq!(aug.dataset.labels(), data.labels());
    }

    #[test]
    fn noise_values_stay_in_data_range() {
        let mut rng = Rng::seed_from(3);
        let data = small_images(&mut rng);
        let plan = ImagePlan::random(8, 8, 0.5, &mut rng);
        let aug = augment_images(&data, &plan, &NoiseKind::UniformRandom, &mut rng);
        assert!(aug.dataset.images().min() >= data.images().min());
        assert!(aug.dataset.images().max() <= data.images().max());
    }

    #[test]
    fn lm_augmentation_grows_windows_and_keeps_originals() {
        let mut rng = Rng::seed_from(4);
        let corpus = LmCorpus::new((0..400).map(|i| i % 13).collect(), 13);
        let batches = corpus.batchify(4, 10);
        let plan = TextPlan::random(10, 0.5, &mut rng);
        let aug = augment_lm(&batches, &plan, &NoiseKind::UniformRandom, &mut rng);
        assert_eq!(aug.windows.len(), batches.num_batches());
        assert_eq!(aug.windows[0].dims(), &[4, 15]);
        // Original tokens recoverable at kept positions.
        let (orig, _) = batches.window(0);
        for bi in 0..4 {
            for (k, &pos) in plan.keep().iter().enumerate() {
                assert_eq!(
                    aug.windows[0].data()[bi * 15 + pos],
                    orig.data()[bi * 10 + k]
                );
            }
        }
    }

    #[test]
    fn text_class_augmentation_preserves_docs() {
        let mut rng = Rng::seed_from(5);
        let (train, _) = TextClassSpec::agnews_like()
            .with_vocab(100)
            .with_counts(8, 2)
            .with_doc_len(6)
            .generate(&mut rng);
        let plan = TextPlan::random(6, 1.0, &mut rng);
        let aug = augment_text_class(&train, &plan, &NoiseKind::UniformRandom, &mut rng);
        assert_eq!(aug.dataset.doc_len(), 12);
        for (orig, augd) in train.docs().iter().zip(aug.dataset.docs()) {
            for (k, &pos) in plan.keep().iter().enumerate() {
                assert_eq!(augd[pos], orig[k]);
            }
        }
    }

    #[test]
    fn zero_augmentation_is_identity() {
        let mut rng = Rng::seed_from(6);
        let data = small_images(&mut rng);
        let plan = ImagePlan::random(8, 8, 0.0, &mut rng);
        let aug = augment_images(&data, &plan, &NoiseKind::UniformRandom, &mut rng);
        assert_eq!(aug.dataset.images().data(), data.images().data());
    }
}
