//! Synthetic text corpora for LDA topic modeling.
//!
//! Stand-ins for the NYTimes (~300K docs) and ClueWeb (~25M docs)
//! corpora of §6.1: documents are drawn from an actual LDA generative
//! model (Dirichlet-ish topic mixtures over a Zipf-shaped vocabulary),
//! so collapsed Gibbs sampling has real structure to recover and the
//! doc × word token matrix has the skew that stresses 2-D partitioning.

use orion_dsm::DistArray;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// Configuration of a synthetic corpus.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of documents.
    pub n_docs: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Number of generative topics.
    pub true_topics: usize,
    /// Mean tokens per document.
    pub mean_doc_len: usize,
    /// Zipf exponent of within-topic word distributions.
    pub word_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CorpusConfig {
    /// Tiny config for unit tests.
    pub fn tiny() -> Self {
        CorpusConfig {
            n_docs: 40,
            vocab: 120,
            true_topics: 4,
            mean_doc_len: 30,
            word_skew: 1.0,
            seed: 42,
        }
    }

    /// "NYTimes-like" benchmark scale (small corpus, larger vocabulary).
    pub fn nytimes_like() -> Self {
        CorpusConfig {
            n_docs: 300,
            vocab: 1_500,
            true_topics: 10,
            mean_doc_len: 80,
            word_skew: 1.05,
            seed: 20190326,
        }
    }

    /// "ClueWeb-like" benchmark scale (larger corpus; big enough that
    /// per-block Gibbs compute dominates network latency on 32 workers,
    /// as it does at the paper's 25M-document scale).
    pub fn clueweb_like() -> Self {
        CorpusConfig {
            n_docs: 3_000,
            vocab: 4_000,
            true_topics: 16,
            mean_doc_len: 120,
            word_skew: 1.1,
            seed: 20190327,
        }
    }
}

/// A generated corpus: a sparse doc × word count matrix.
#[derive(Debug, Clone)]
pub struct CorpusData {
    /// Token counts, indexed `(doc, word)`.
    pub tokens: DistArray<u32>,
    /// Total token count.
    pub n_tokens: u64,
    /// Configuration used.
    pub config: CorpusConfig,
}

impl CorpusData {
    /// Generates the corpus, in frozen sparse storage (sorted flat keys
    /// and their counts, no write staging).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate config.
    pub fn generate(config: CorpusConfig) -> Self {
        assert!(
            config.n_docs > 0 && config.vocab > 0 && config.true_topics > 0,
            "degenerate corpus config"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Per-topic word distributions: a Zipf over a topic-specific
        // permutation of the vocabulary (cheap Dirichlet surrogate with
        // realistic head-heavy shape).
        let zipf = Zipf::new(config.vocab, config.word_skew);
        let perms: Vec<Vec<usize>> = (0..config.true_topics)
            .map(|_| {
                let mut p: Vec<usize> = (0..config.vocab).collect();
                // Fisher–Yates with the shared RNG.
                for i in (1..p.len()).rev() {
                    let j = rng.random_range(0..=i);
                    p.swap(i, j);
                }
                p
            })
            .collect();

        // Each document's sorted, run-length counted words: flat keys ascend.
        let (mut counts, mut words) = (Vec::new(), Vec::new());
        for d in 0..config.n_docs {
            // Sparse topic mixture: 1–3 active topics per document.
            let k1 = rng.random_range(0..config.true_topics);
            let k2 = rng.random_range(0..config.true_topics);
            let len = (config.mean_doc_len / 2) + rng.random_range(0..config.mean_doc_len.max(1));
            words.clear();
            for _ in 0..len {
                let topic = if rng.random::<f64>() < 0.7 { k1 } else { k2 };
                words.push(perms[topic][zipf.sample(&mut rng)]);
            }
            words.sort_unstable();
            for run in words.chunk_by(|a, b| a == b) {
                counts.push(((d * config.vocab + run[0]) as u64, run.len() as u32));
            }
        }
        let dims = vec![config.n_docs as u64, config.vocab as u64];
        CorpusData {
            n_tokens: counts.iter().map(|&(_, c)| u64::from(c)).sum(),
            tokens: DistArray::sparse_from_flat("tokens", dims, counts),
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_tokens() {
        let c = CorpusData::generate(CorpusConfig::tiny());
        assert!(c.n_tokens > 40 * 20);
        assert_eq!(c.tokens.shape().dims(), &[40, 120],);
        let sum: u64 = c.tokens.iter().map(|(_, &v)| v as u64).sum();
        assert_eq!(sum, c.n_tokens);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CorpusData::generate(CorpusConfig::tiny());
        let b = CorpusData::generate(CorpusConfig::tiny());
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn topical_structure_exists() {
        // Documents generated from the same dominant topic share more
        // vocabulary than documents from different topics on average —
        // check weakly by verifying word marginals are non-uniform.
        let c = CorpusData::generate(CorpusConfig::tiny());
        let h = c.tokens.histogram_along(1);
        let max = *h.iter().max().unwrap();
        let nonzero = h.iter().filter(|&&x| x > 0).count();
        assert!(max >= 3, "some word should repeat");
        assert!(nonzero > 20, "vocabulary coverage too small");
    }

    #[test]
    fn every_doc_has_tokens() {
        let c = CorpusData::generate(CorpusConfig::tiny());
        let per_doc = c.tokens.histogram_along(0);
        assert!(per_doc.iter().all(|&n| n > 0));
    }
}
