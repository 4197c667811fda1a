//! Byte accounting for a transfer task.
//!
//! A [`TransferJob`] knows how many bytes its [`Dataset`] holds; the
//! harness feeds it delivered megabits and the job reports completion.

use crate::dataset::Dataset;

/// Byte progress of one transfer task.
#[derive(Debug, Clone)]
pub struct TransferJob {
    total_bytes: u64,
    delivered_bytes: f64,
}

impl TransferJob {
    /// New job over a dataset.
    pub fn new(dataset: &Dataset) -> Self {
        TransferJob {
            total_bytes: dataset.total_bytes(),
            delivered_bytes: 0.0,
        }
    }

    /// Record `mbits` delivered since the last call.
    pub fn deliver_mbits(&mut self, mbits: f64) {
        debug_assert!(mbits >= 0.0);
        self.delivered_bytes =
            (self.delivered_bytes + mbits * 1e6 / 8.0).min(self.total_bytes as f64);
    }

    /// Bytes delivered so far, never more than [`TransferJob::total_bytes`].
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes as u64
    }

    /// Total bytes of the dataset.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Whether every byte has been delivered.
    pub fn is_complete(&self) -> bool {
        self.total_bytes == 0 || self.delivered_bytes >= self.total_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, FileSpec, MIB};

    fn four_mib() -> Dataset {
        Dataset {
            name: "three",
            files: vec![
                FileSpec {
                    size_bytes: MIB,
                    count: 1,
                },
                FileSpec {
                    size_bytes: 2 * MIB,
                    count: 1,
                },
                FileSpec {
                    size_bytes: MIB,
                    count: 1,
                },
            ],
        }
    }

    #[test]
    fn delivery_accumulates_and_completes() {
        let mut j = TransferJob::new(&four_mib());
        assert!(!j.is_complete());
        assert_eq!(j.delivered_bytes(), 0);
        let total_mbits = 4.0 * MIB as f64 * 8.0 / 1e6;
        j.deliver_mbits(total_mbits / 2.0);
        assert_eq!(j.delivered_bytes(), 2 * MIB);
        assert!(!j.is_complete());
        j.deliver_mbits(total_mbits);
        assert!(j.is_complete());
    }

    #[test]
    fn delivery_clamped_at_total() {
        let mut j = TransferJob::new(&four_mib());
        j.deliver_mbits(1e9);
        assert_eq!(j.delivered_bytes(), j.total_bytes());
    }

    #[test]
    fn empty_dataset_is_trivially_complete() {
        let j = TransferJob::new(&Dataset {
            name: "empty",
            files: vec![],
        });
        assert!(j.is_complete());
    }
}
