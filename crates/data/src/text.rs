//! Synthetic text corpora: a Markov language-model stream (WikiText2 stand-in)
//! and a topic-vocabulary classification corpus (AGNews stand-in).

use amalgam_tensor::{Rng, Tensor};

/// A tokenized language-model corpus: one long stream of token ids.
#[derive(Debug, Clone)]
pub struct LmCorpus {
    tokens: Vec<usize>,
    vocab: usize,
}

impl LmCorpus {
    /// Wraps an explicit token stream.
    ///
    /// # Panics
    ///
    /// Panics if any token is out of the vocabulary range.
    pub fn new(tokens: Vec<usize>, vocab: usize) -> Self {
        assert!(tokens.iter().all(|&t| t < vocab), "token out of vocabulary");
        LmCorpus { tokens, vocab }
    }

    /// The raw token stream.
    pub fn tokens(&self) -> &[usize] {
        &self.tokens
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Size of the stream as a 1-D f32 tensor in bytes (Table 2's size metric).
    pub fn nbytes(&self) -> usize {
        self.tokens.len() * std::mem::size_of::<f32>()
    }

    /// Splits the stream column-wise into `batch_size` parallel streams and
    /// windows of `seq_len` — PyTorch's classic `batchify`/`get_batch` (and
    /// what the paper's Figure 3 depicts before augmentation).
    ///
    /// # Panics
    ///
    /// Panics if the corpus is too short for even one window.
    pub fn batchify(&self, batch_size: usize, seq_len: usize) -> LmBatches {
        let per_stream = self.tokens.len() / batch_size;
        assert!(
            per_stream > seq_len,
            "corpus too short for requested batch geometry"
        );
        let mut streams = vec![Vec::with_capacity(per_stream); batch_size];
        for (b, stream) in streams.iter_mut().enumerate() {
            stream.extend_from_slice(&self.tokens[b * per_stream..(b + 1) * per_stream]);
        }
        LmBatches {
            streams,
            seq_len,
            vocab: self.vocab,
        }
    }
}

/// Windowed LM batches: inputs `[B, T]` and next-token targets.
#[derive(Debug, Clone)]
pub struct LmBatches {
    streams: Vec<Vec<usize>>,
    seq_len: usize,
    vocab: usize,
}

impl LmBatches {
    /// Number of `[B, T]` windows available.
    pub fn num_batches(&self) -> usize {
        (self.streams[0].len() - 1) / self.seq_len
    }

    /// Batch size `B`.
    pub fn batch_size(&self) -> usize {
        self.streams.len()
    }

    /// Window length `T`.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The `i`-th window: token-id inputs `[B, T]` (as f32 ids) and flattened
    /// next-token targets of length `B·T` (row-major), ready for
    /// `cross_entropy_seq`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_batches()`.
    pub fn window(&self, i: usize) -> (Tensor, Vec<usize>) {
        assert!(i < self.num_batches(), "window {i} out of range");
        let (b, t) = (self.streams.len(), self.seq_len);
        let mut input = Vec::with_capacity(b * t);
        let mut targets = Vec::with_capacity(b * t);
        for stream in &self.streams {
            input.extend(stream[i * t..(i + 1) * t].iter().map(|&tok| tok as f32));
            targets.extend_from_slice(&stream[i * t + 1..(i + 1) * t + 1]);
        }
        (Tensor::from_vec(input, &[b, t]), targets)
    }
}

/// Generator for a WikiText2-like Markov token stream.
///
/// Each token has a small set of likely successors (drawn once from the
/// seed), so a language model can reduce perplexity well below uniform —
/// enough structure for the paper's Figure 11 convergence curves.
#[derive(Debug, Clone)]
pub struct LmCorpusSpec {
    vocab: usize,
    tokens: usize,
    branching: usize,
    coherence: f64,
}

impl LmCorpusSpec {
    /// WikiText2-ish defaults: 33k vocabulary, ~2M tokens.
    pub fn wikitext2_like() -> Self {
        LmCorpusSpec {
            vocab: 33_278,
            tokens: 2_088_628,
            branching: 4,
            coherence: 0.85,
        }
    }

    /// Overrides the vocabulary size.
    pub fn with_vocab(mut self, vocab: usize) -> Self {
        self.vocab = vocab;
        self
    }

    /// Overrides the stream length.
    pub fn with_tokens(mut self, tokens: usize) -> Self {
        self.tokens = tokens;
        self
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Stream length.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Generates the corpus.
    pub fn generate(&self, rng: &mut Rng) -> LmCorpus {
        // Successor table derived from a cheap hash so we need no O(V·k) RAM
        // initialisation randomness beyond one salt.
        let salt = rng.next_u64();
        let succ = |tok: usize, slot: usize| -> usize {
            let mut h = salt ^ (tok as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= (slot as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 31;
            h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
            (h >> 17) as usize % self.vocab
        };
        let mut tokens = Vec::with_capacity(self.tokens);
        let mut cur = rng.below(self.vocab);
        for _ in 0..self.tokens {
            tokens.push(cur);
            cur = if rng.chance(self.coherence) {
                succ(cur, rng.below(self.branching))
            } else {
                rng.below(self.vocab)
            };
        }
        LmCorpus::new(tokens, self.vocab)
    }
}

/// A tokenized text-classification dataset (AGNews stand-in).
#[derive(Debug, Clone)]
pub struct TextClassDataset {
    docs: Vec<Vec<usize>>,
    labels: Vec<usize>,
    vocab: usize,
    num_classes: usize,
    doc_len: usize,
}

impl TextClassDataset {
    /// Wraps explicit documents.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree or tokens/labels are out of range.
    pub fn new(
        docs: Vec<Vec<usize>>,
        labels: Vec<usize>,
        vocab: usize,
        num_classes: usize,
    ) -> Self {
        assert_eq!(docs.len(), labels.len(), "doc/label count mismatch");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        assert!(
            docs.iter().flatten().all(|&t| t < vocab),
            "token out of vocabulary"
        );
        let doc_len = docs.first().map_or(0, Vec::len);
        assert!(
            docs.iter().all(|d| d.len() == doc_len),
            "documents must share one length"
        );
        TextClassDataset {
            docs,
            labels,
            vocab,
            num_classes,
            doc_len,
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// `true` if there are no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Tokens per document.
    pub fn doc_len(&self) -> usize {
        self.doc_len
    }

    /// The documents.
    pub fn docs(&self) -> &[Vec<usize>] {
        &self.docs
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Size as f32 tensors in bytes (Table 2's size metric).
    pub fn nbytes(&self) -> usize {
        self.docs.len() * self.doc_len * std::mem::size_of::<f32>()
    }

    /// Gathers documents `indices` into an id tensor `[B, T]` plus labels.
    pub fn batch_at(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let b = indices.len();
        let t = self.doc_len;
        let mut input = Vec::with_capacity(b * t);
        let mut labels = Vec::with_capacity(b);
        for &i in indices {
            input.extend(self.docs[i].iter().map(|&tok| tok as f32));
            labels.push(self.labels[i]);
        }
        (Tensor::from_vec(input, &[b, t]), labels)
    }
}

/// Generator for an AGNews-like 4-class topic corpus.
///
/// Each class owns a slice of the vocabulary; documents mix class-specific
/// tokens (probability `topicality`) with common tokens, so a linear
/// bag-of-embeddings classifier (the paper's text classification model)
/// separates the classes.
#[derive(Debug, Clone)]
pub struct TextClassSpec {
    vocab: usize,
    num_classes: usize,
    doc_len: usize,
    train_count: usize,
    test_count: usize,
    topicality: f64,
}

impl TextClassSpec {
    /// AGNews-ish defaults: 4 classes, 95k vocab, 120k/7.6k docs of ~40 tokens.
    pub fn agnews_like() -> Self {
        TextClassSpec {
            vocab: 95_812,
            num_classes: 4,
            doc_len: 40,
            train_count: 120_000,
            test_count: 7_600,
            topicality: 0.6,
        }
    }

    /// Overrides the vocabulary size.
    pub fn with_vocab(mut self, vocab: usize) -> Self {
        self.vocab = vocab;
        self
    }

    /// Overrides the train/test document counts.
    pub fn with_counts(mut self, train: usize, test: usize) -> Self {
        self.train_count = train;
        self.test_count = test;
        self
    }

    /// Overrides the per-document token count.
    pub fn with_doc_len(mut self, doc_len: usize) -> Self {
        self.doc_len = doc_len;
        self
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// (train, test) document counts.
    pub fn counts(&self) -> (usize, usize) {
        (self.train_count, self.test_count)
    }

    /// Tokens per document.
    pub fn doc_len(&self) -> usize {
        self.doc_len
    }

    /// Generates the train/test pair.
    pub fn generate(&self, rng: &mut Rng) -> (TextClassDataset, TextClassDataset) {
        let train = self.generate_split(self.train_count, rng);
        let test = self.generate_split(self.test_count, rng);
        (train, test)
    }

    fn generate_split(&self, count: usize, rng: &mut Rng) -> TextClassDataset {
        // Class c owns vocabulary slice [c·V/2k, (c+1)·V/2k); the upper half
        // of the vocabulary is shared filler.
        let class_band = self.vocab / (2 * self.num_classes);
        let common_start = self.vocab / 2;
        let mut docs = Vec::with_capacity(count);
        let mut labels = Vec::with_capacity(count);
        for _ in 0..count {
            let label = rng.below(self.num_classes);
            let mut doc = Vec::with_capacity(self.doc_len);
            for _ in 0..self.doc_len {
                let tok = if rng.chance(self.topicality) {
                    label * class_band + rng.below(class_band.max(1))
                } else {
                    common_start + rng.below(self.vocab - common_start)
                };
                doc.push(tok);
            }
            docs.push(doc);
            labels.push(label);
        }
        TextClassDataset::new(docs, labels, self.vocab, self.num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lm_corpus_generation_and_batchify() {
        let mut rng = Rng::seed_from(0);
        let corpus = LmCorpusSpec::wikitext2_like()
            .with_vocab(50)
            .with_tokens(1000)
            .generate(&mut rng);
        assert_eq!(corpus.len(), 1000);
        assert!(corpus.tokens().iter().all(|&t| t < 50));
        let batches = corpus.batchify(4, 10);
        assert_eq!(batches.batch_size(), 4);
        assert!(batches.num_batches() >= 20);
        let (input, targets) = batches.window(0);
        assert_eq!(input.dims(), &[4, 10]);
        assert_eq!(targets.len(), 40);
    }

    #[test]
    fn lm_targets_are_next_tokens() {
        let corpus = LmCorpus::new((0..100).map(|i| i % 7).collect(), 7);
        let batches = corpus.batchify(2, 5);
        let (input, targets) = batches.window(0);
        // Stream 0 is tokens 0..50: the target of position k is token k+1.
        for (k, &t) in targets.iter().take(5).enumerate() {
            assert_eq!(t, (input.data()[k] as usize + 1) % 7);
        }
    }

    #[test]
    fn lm_markov_structure_is_learnable() {
        // The same (token → successor) pairs must repeat far more often than
        // chance, otherwise an LM could learn nothing.
        let mut rng = Rng::seed_from(1);
        let corpus = LmCorpusSpec::wikitext2_like()
            .with_vocab(100)
            .with_tokens(20_000)
            .generate(&mut rng);
        let mut pair_counts = std::collections::HashMap::new();
        for w in corpus.tokens().windows(2) {
            *pair_counts.entry((w[0], w[1])).or_insert(0usize) += 1;
        }
        let distinct = pair_counts.len();
        // Uniform-random streams would show ~min(20k, 100·100) ≈ 8.6k+ distinct
        // pairs; Markov structure keeps it far smaller.
        assert!(distinct < 6_000, "too many distinct bigrams: {distinct}");
    }

    #[test]
    fn text_class_generation() {
        let mut rng = Rng::seed_from(2);
        let (train, test) = TextClassSpec::agnews_like()
            .with_vocab(400)
            .with_counts(50, 10)
            .with_doc_len(12)
            .generate(&mut rng);
        assert_eq!(train.len(), 50);
        assert_eq!(test.len(), 10);
        assert_eq!(train.doc_len(), 12);
        let (input, labels) = train.batch_at(&[0, 3, 7]);
        assert_eq!(input.dims(), &[3, 12]);
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn class_vocabulary_bands_separate() {
        let mut rng = Rng::seed_from(3);
        let (train, _) = TextClassSpec::agnews_like()
            .with_vocab(800)
            .with_counts(200, 10)
            .with_doc_len(30)
            .generate(&mut rng);
        // Documents of class 0 should contain many tokens from band 0.
        let band = 800 / 8;
        for (doc, &label) in train.docs().iter().zip(train.labels()).take(20) {
            let in_band = doc
                .iter()
                .filter(|&&t| t >= label * band && t < (label + 1) * band)
                .count();
            // topicality = 0.6 → expect ~60% in-band; a uniform stream would
            // give 12.5%, so one third is a robust lower bound under noise.
            assert!(
                in_band * 3 >= doc.len(),
                "class band underrepresented: {in_band}/{}",
                doc.len()
            );
        }
    }

    #[test]
    fn nbytes_formulas() {
        let corpus = LmCorpus::new(vec![0; 1000], 10);
        assert_eq!(corpus.nbytes(), 4000);
        let ds = TextClassDataset::new(vec![vec![0; 10]; 5], vec![0; 5], 10, 2);
        assert_eq!(ds.nbytes(), 200);
    }
}
