//! Datasets: the file populations the paper transfers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Binary units.
pub const KIB: u64 = 1024;
/// Binary units.
pub const MIB: u64 = 1024 * KIB;
/// Binary units.
pub const GIB: u64 = 1024 * MIB;
/// Binary units.
pub const TIB: u64 = 1024 * GIB;

/// A run of `count` files of `size_bytes` each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSpec {
    /// Size of each file in bytes.
    pub size_bytes: u64,
    /// How many consecutive files have this size.
    pub count: u64,
}

/// A named collection of files.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Workload name for logs ("1000x1GB", "small", "large", "mixed").
    pub name: &'static str,
    /// The files, in transfer order, run-length encoded.
    pub files: Vec<FileSpec>,
}

impl Dataset {
    /// The paper's main evaluation workload: `count` files of 1 GB each
    /// (§4 uses 1000×1 GB ≈ 1 TB), held as one run.
    pub fn uniform_1gb(count: u64) -> Self {
        Dataset {
            name: "1000x1GB",
            files: vec![FileSpec {
                size_bytes: GIB,
                count,
            }],
        }
    }

    /// §4.4 *small*: files of 1 KiB–10 MiB, 120 GiB total. Log-uniform
    /// sizes, deterministic for a given seed.
    pub fn small(seed: u64) -> Self {
        Self::log_uniform("small", seed, KIB, 10 * MIB, 120 * GIB)
    }

    /// §4.4 *large*: files of 100 MiB–10 GiB, 1 TiB total.
    pub fn large(seed: u64) -> Self {
        Self::log_uniform("large", seed, 100 * MIB, 10 * GIB, TIB)
    }

    /// §4.4 *mixed*: everything in *small* plus everything in *large*
    /// (≈1.2 TiB), interleaved the way a directory walk would emit them.
    pub fn mixed(seed: u64) -> Self {
        let small = Self::small(seed);
        let large = Self::large(seed.wrapping_add(1));
        let mut files = Vec::with_capacity(small.files.len() + large.files.len());
        // Interleave: one large file per chunk of small files, preserving
        // both sub-dataset orders. The generators emit one file per entry.
        let chunk = (small.files.len() / large.files.len().max(1)).max(1);
        let mut small_iter = small.files.into_iter();
        for lf in large.files {
            for _ in 0..chunk {
                if let Some(sf) = small_iter.next() {
                    files.push(sf);
                }
            }
            files.push(lf);
        }
        files.extend(small_iter);
        Dataset {
            name: "mixed",
            files,
        }
    }

    fn log_uniform(
        name: &'static str,
        seed: u64,
        min_bytes: u64,
        max_bytes: u64,
        total_bytes: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut files = Vec::new();
        let mut sum: u64 = 0;
        let (ln_min, ln_max) = ((min_bytes as f64).ln(), (max_bytes as f64).ln());
        while sum < total_bytes {
            let ln_size = rng.gen_range(ln_min..ln_max);
            let size = (ln_size.exp() as u64).clamp(min_bytes, max_bytes);
            files.push(FileSpec {
                size_bytes: size,
                count: 1,
            });
            sum += size;
        }
        Dataset { name, files }
    }

    /// Total bytes across all files, saturating at `u64::MAX`.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().fold(0u64, |sum, f| {
            sum.saturating_add(f.size_bytes.saturating_mul(f.count))
        })
    }

    /// Number of files, saturating at `u64::MAX`.
    pub fn len(&self) -> u64 {
        self.files
            .iter()
            .fold(0u64, |n, f| n.saturating_add(f.count))
    }

    /// Whether the dataset has no files.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mean file size in bytes (0 for an empty dataset).
    pub fn mean_file_bytes(&self) -> u64 {
        self.total_bytes().checked_div(self.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_1gb_shape() {
        let d = Dataset::uniform_1gb(1000);
        assert_eq!(d.len(), 1000);
        assert_eq!(d.total_bytes(), 1000 * GIB);
        assert_eq!(d.mean_file_bytes(), GIB);
        // One run, however many files: literally the paper's "n×1 GB".
        for n in [0, 1, 1000, 1 << 33] {
            assert_eq!(Dataset::uniform_1gb(n).files.len(), 1);
        }
    }

    #[test]
    fn totals_saturate_instead_of_wrapping() {
        let d = Dataset::uniform_1gb(u64::MAX);
        assert_eq!(d.total_bytes(), u64::MAX);
        assert_eq!(d.len(), u64::MAX);
        let two = Dataset {
            name: "two-runs",
            files: vec![d.files[0], d.files[0]],
        };
        assert_eq!(two.total_bytes(), u64::MAX);
        assert_eq!(two.len(), u64::MAX);
        assert_eq!(two.mean_file_bytes(), 1);
    }

    #[test]
    fn small_dataset_matches_paper_spec() {
        let d = Dataset::small(1);
        let total = d.total_bytes();
        assert!(
            (120 * GIB..121 * GIB).contains(&total),
            "total {} GiB",
            total / GIB
        );
        assert!(d
            .files
            .iter()
            .all(|f| (KIB..=10 * MIB).contains(&f.size_bytes)));
        // Lots of small files: tens of thousands at least.
        assert!(d.len() > 20_000, "only {} files", d.len());
    }

    #[test]
    fn large_dataset_matches_paper_spec() {
        let d = Dataset::large(1);
        let total = d.total_bytes();
        assert!((TIB..TIB + 10 * GIB).contains(&total));
        assert!(d
            .files
            .iter()
            .all(|f| (100 * MIB..=10 * GIB).contains(&f.size_bytes)));
        assert!(d.len() < 2000, "{} files is too many", d.len());
    }

    #[test]
    fn mixed_contains_both_populations() {
        let d = Dataset::mixed(1);
        let total = d.total_bytes();
        // ≈ 1.12 TiB (120 GiB + 1 TiB).
        assert!(total > TIB + 100 * GIB, "total {} GiB", total / GIB);
        assert!(d.files.iter().any(|f| f.size_bytes <= 10 * MIB));
        assert!(d.files.iter().any(|f| f.size_bytes >= 100 * MIB));
        // Interleaved, not sorted: a large file appears before the last
        // small file.
        let first_large = d
            .files
            .iter()
            .position(|f| f.size_bytes >= 100 * MIB)
            .unwrap();
        let last_small = d
            .files
            .iter()
            .rposition(|f| f.size_bytes <= 10 * MIB)
            .unwrap();
        assert!(first_large < last_small);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(Dataset::small(7).files, Dataset::small(7).files);
        assert_ne!(Dataset::small(7).files, Dataset::small(8).files);
    }

    #[test]
    fn empty_dataset_mean_is_zero() {
        let d = Dataset {
            name: "empty",
            files: vec![],
        };
        assert_eq!(d.mean_file_bytes(), 0);
        assert!(d.is_empty());
    }
}
