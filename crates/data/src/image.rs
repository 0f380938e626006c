//! Class-conditional synthetic image datasets.

use amalgam_tensor::{Rng, Tensor};

/// A labelled image dataset held as one `[N, C, H, W]` tensor.
#[derive(Debug, Clone)]
pub struct ImageDataset {
    images: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl ImageDataset {
    /// Wraps raw storage.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not 4-D, the label count differs from `N`, or a
    /// label is out of range.
    pub fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(images.shape().rank(), 4, "images must be [N,C,H,W]");
        assert_eq!(images.dims()[0], labels.len(), "label count mismatch");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        ImageDataset {
            images,
            labels,
            num_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The image tensor `[N, C, H, W]`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// The labels, aligned with the first image axis.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// (channels, height, width) of each sample.
    pub fn sample_dims(&self) -> (usize, usize, usize) {
        let d = self.images.dims();
        (d[1], d[2], d[3])
    }

    /// Size of the raw tensor payload in bytes (`4·N·C·H·W`) — the quantity
    /// Table 2 reports as "Dataset Size".
    pub fn nbytes(&self) -> usize {
        self.images.numel() * std::mem::size_of::<f32>()
    }

    /// Copies a batch of rows `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn batch(&self, start: usize, end: usize) -> (Tensor, &[usize]) {
        (
            self.images.slice_axis0(start, end),
            &self.labels[start..end],
        )
    }

    /// Gathers a batch at the given indices.
    pub fn batch_at(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let imgs = self.images.index_select_axis0(indices);
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        (imgs, labels)
    }
}

/// A train/test split of one synthetic dataset.
#[derive(Debug, Clone)]
pub struct ImagePair {
    /// Training split.
    pub train: ImageDataset,
    /// Held-out test split.
    pub test: ImageDataset,
}

/// Generator specification for a synthetic image dataset.
///
/// # Example
///
/// ```
/// use amalgam_data::SyntheticImageSpec;
/// use amalgam_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let data = SyntheticImageSpec::cifar10_like().with_counts(128, 32).generate(&mut rng);
/// assert_eq!(data.train.sample_dims(), (3, 32, 32));
/// assert_eq!(data.train.num_classes(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticImageSpec {
    name: &'static str,
    channels: usize,
    hw: usize,
    num_classes: usize,
    train_count: usize,
    test_count: usize,
    noise_level: f32,
}

impl SyntheticImageSpec {
    /// MNIST geometry: 1×28×28, 10 classes, 60k/10k (paper stores 70k total).
    pub fn mnist_like() -> Self {
        SyntheticImageSpec {
            name: "mnist",
            channels: 1,
            hw: 28,
            num_classes: 10,
            train_count: 60_000,
            test_count: 10_000,
            noise_level: 0.08,
        }
    }

    /// CIFAR10 geometry: 3×32×32, 10 classes, 50k/10k.
    pub fn cifar10_like() -> Self {
        SyntheticImageSpec {
            name: "cifar10",
            channels: 3,
            hw: 32,
            num_classes: 10,
            train_count: 50_000,
            test_count: 10_000,
            noise_level: 0.1,
        }
    }

    /// CIFAR100 geometry: 3×32×32, 100 classes, 50k/10k.
    pub fn cifar100_like() -> Self {
        SyntheticImageSpec {
            num_classes: 100,
            name: "cifar100",
            ..Self::cifar10_like()
        }
    }

    /// Imagenette geometry: 3×224×224, 10 classes, ~9.5k/3.9k.
    pub fn imagenette_like() -> Self {
        SyntheticImageSpec {
            name: "imagenette",
            channels: 3,
            hw: 224,
            num_classes: 10,
            train_count: 9_469,
            test_count: 3_925,
            noise_level: 0.1,
        }
    }

    /// Overrides the train/test sample counts (scaled experiments).
    pub fn with_counts(mut self, train: usize, test: usize) -> Self {
        self.train_count = train;
        self.test_count = test;
        self
    }

    /// Overrides the square image size.
    pub fn with_hw(mut self, hw: usize) -> Self {
        self.hw = hw;
        self
    }

    /// Overrides the class count.
    pub fn with_classes(mut self, classes: usize) -> Self {
        self.num_classes = classes;
        self
    }

    /// Overrides the per-pixel noise level.
    pub fn with_noise(mut self, noise: f32) -> Self {
        self.noise_level = noise;
        self
    }

    /// The dataset's short name (e.g. `"cifar10"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// (train, test) sample counts.
    pub fn counts(&self) -> (usize, usize) {
        (self.train_count, self.test_count)
    }

    /// The square image size.
    pub fn hw(&self) -> usize {
        self.hw
    }

    /// The channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Generates the train/test pair.
    pub fn generate(&self, rng: &mut Rng) -> ImagePair {
        let mut class_params = Vec::with_capacity(self.num_classes);
        for _ in 0..self.num_classes {
            class_params.push(ClassPattern::sample(self.channels, rng));
        }
        let train = self.generate_split(self.train_count, &class_params, rng);
        let test = self.generate_split(self.test_count, &class_params, rng);
        ImagePair { train, test }
    }

    fn generate_split(
        &self,
        count: usize,
        patterns: &[ClassPattern],
        rng: &mut Rng,
    ) -> ImageDataset {
        let (c, hw) = (self.channels, self.hw);
        let mut images = Tensor::zeros(&[count, c, hw, hw]);
        let pixels = images.data_mut();
        let mut labels = Vec::with_capacity(count);
        for n in 0..count {
            let label = rng.below(self.num_classes);
            labels.push(label);
            let p = &patterns[label];
            // Per-sample jitter so samples of one class are not identical.
            let (jx, jy) = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5));
            let blob_x = p.blob_x + rng.uniform(-0.05, 0.05);
            let blob_y = p.blob_y + rng.uniform(-0.05, 0.05);
            for ci in 0..c {
                let base = n * c * hw * hw + ci * hw * hw;
                for y in 0..hw {
                    for x in 0..hw {
                        let fx = x as f32 / hw as f32;
                        let fy = y as f32 / hw as f32;
                        let wave = (p.freq_x * (fx + jx * 0.02) * std::f32::consts::TAU
                            + p.phase[ci])
                            .sin()
                            * (p.freq_y * (fy + jy * 0.02) * std::f32::consts::TAU).cos();
                        let dx = fx - blob_x;
                        let dy = fy - blob_y;
                        let blob = (-(dx * dx + dy * dy) / 0.02).exp();
                        let v = 0.5
                            + 0.25 * wave * p.channel_gain[ci]
                            + 0.35 * blob
                            + self.noise_level * rng.normal(0.0, 1.0);
                        pixels[base + y * hw + x] = v.clamp(0.0, 1.0);
                    }
                }
            }
        }
        ImageDataset::new(images, labels, self.num_classes)
    }
}

/// Per-class generative parameters.
#[derive(Debug, Clone)]
struct ClassPattern {
    freq_x: f32,
    freq_y: f32,
    phase: Vec<f32>,
    channel_gain: Vec<f32>,
    blob_x: f32,
    blob_y: f32,
}

impl ClassPattern {
    fn sample(channels: usize, rng: &mut Rng) -> Self {
        ClassPattern {
            freq_x: rng.uniform(1.0, 5.0),
            freq_y: rng.uniform(1.0, 5.0),
            phase: (0..channels)
                .map(|_| rng.uniform(0.0, std::f32::consts::TAU))
                .collect(),
            channel_gain: (0..channels).map(|_| rng.uniform(0.4, 1.0)).collect(),
            blob_x: rng.uniform(0.2, 0.8),
            blob_y: rng.uniform(0.2, 0.8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_geometry() {
        let m = SyntheticImageSpec::mnist_like();
        assert_eq!((m.channels(), m.hw()), (1, 28));
        let c = SyntheticImageSpec::cifar10_like();
        assert_eq!((c.channels(), c.hw()), (3, 32));
        let i = SyntheticImageSpec::imagenette_like();
        assert_eq!((i.channels(), i.hw()), (3, 224));
        assert_eq!(SyntheticImageSpec::cifar100_like().num_classes, 100);
    }

    #[test]
    fn generated_shapes_and_ranges() {
        let mut rng = Rng::seed_from(0);
        let pair = SyntheticImageSpec::mnist_like()
            .with_counts(32, 8)
            .with_hw(12)
            .generate(&mut rng);
        assert_eq!(pair.train.len(), 32);
        assert_eq!(pair.test.len(), 8);
        assert_eq!(pair.train.images().dims(), &[32, 1, 12, 12]);
        assert!(pair.train.images().min() >= 0.0);
        assert!(pair.train.images().max() <= 1.0);
    }

    #[test]
    fn nbytes_matches_paper_formula() {
        // Paper Table 2: MNIST original = 70_000 × 1 × 28 × 28 × 4 B ≈ 219.6 MB.
        let mut rng = Rng::seed_from(1);
        let pair = SyntheticImageSpec::mnist_like()
            .with_counts(64, 8)
            .generate(&mut rng);
        assert_eq!(pair.train.nbytes(), 64 * 28 * 28 * 4);
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean images of two classes should differ much more than two mean
        // images of the same class (i.e. the data is learnable).
        let mut rng = Rng::seed_from(2);
        let pair = SyntheticImageSpec::mnist_like()
            .with_counts(200, 10)
            .with_hw(10)
            .with_classes(2)
            .generate(&mut rng);
        let (c, h, w) = pair.train.sample_dims();
        let chw = c * h * w;
        let mut means = vec![vec![0.0f32; chw]; 2];
        let mut counts = [0usize; 2];
        for (i, &l) in pair.train.labels().iter().enumerate() {
            counts[l] += 1;
            for (j, m) in means[l].iter_mut().enumerate() {
                *m += pair.train.images().data()[i * chw + j];
            }
        }
        for l in 0..2 {
            for v in &mut means[l] {
                *v /= counts[l] as f32;
            }
        }
        let dist: f32 = means[0]
            .iter()
            .zip(&means[1])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 0.5, "class means too close: {dist}");
    }

    #[test]
    fn batch_and_batch_at() {
        let mut rng = Rng::seed_from(3);
        let pair = SyntheticImageSpec::mnist_like()
            .with_counts(10, 2)
            .with_hw(6)
            .generate(&mut rng);
        let (imgs, labels) = pair.train.batch(2, 5);
        assert_eq!(imgs.dims(), &[3, 1, 6, 6]);
        assert_eq!(labels.len(), 3);
        let (imgs, labels) = pair.train.batch_at(&[9, 0]);
        assert_eq!(imgs.dims(), &[2, 1, 6, 6]);
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticImageSpec::cifar10_like()
            .with_counts(4, 2)
            .with_hw(8)
            .generate(&mut Rng::seed_from(9));
        let b = SyntheticImageSpec::cifar10_like()
            .with_counts(4, 2)
            .with_hw(8)
            .generate(&mut Rng::seed_from(9));
        assert_eq!(a.train.images().data(), b.train.images().data());
        assert_eq!(a.train.labels(), b.train.labels());
    }
}
