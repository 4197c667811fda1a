//! The startup-gap / pipelining model (§4.4).
//!
//! Between consecutive files, a GridFTP-style channel pays control-channel
//! round trips (STOR/RETR command, acknowledgement) plus file-open cost.
//! With command *pipelining* of depth `pp`, the next command is already
//! queued at the server when a file completes, amortizing the gap across
//! `pp` files. For large files the gap is negligible; for 1 KiB–10 MiB files
//! it dominates — the paper's reason pipelining helps *small* and *mixed*
//! datasets (Figure 15) while being "merely command caching" in cost.

use falcon_core::TransferSettings;

/// Fixed per-file cost that does not depend on the network: file open,
/// metadata, process bookkeeping (seconds).
pub const PER_FILE_SETUP_S: f64 = 0.01;

/// Control-channel round trips paid per unpipelined file.
pub const CONTROL_RTTS_PER_FILE: f64 = 2.0;

/// Wall-clock gap a file thread pays per file at pipelining depth `pp`.
pub fn per_file_gap_s(rtt_s: f64, pipelining: u32) -> f64 {
    let raw = CONTROL_RTTS_PER_FILE * rtt_s + PER_FILE_SETUP_S;
    raw / f64::from(pipelining.max(1))
}

/// Fraction of wall time a file thread spends actually moving bytes, given
/// the dataset's mean file size
/// ([`Dataset::mean_file_bytes`](crate::dataset::Dataset::mean_file_bytes)),
/// the thread's nominal rate, and the gap model. This is the `efficiency`
/// the simulator applies to each thread's demand.
pub fn thread_efficiency(
    mean_bytes: u64,
    settings: TransferSettings,
    rtt_s: f64,
    nominal_thread_mbps: f64,
) -> f64 {
    if mean_bytes == 0 || nominal_thread_mbps <= 0.0 {
        return 1.0;
    }
    let transfer_s = mean_bytes as f64 * 8.0 / (nominal_thread_mbps * 1e6);
    let gap_s = per_file_gap_s(rtt_s, settings.pipelining);
    (transfer_s / (transfer_s + gap_s)).clamp(0.01, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{GIB, KIB, MIB};

    fn settings(pp: u32) -> TransferSettings {
        TransferSettings {
            concurrency: 4,
            parallelism: 1,
            pipelining: pp,
        }
    }

    #[test]
    fn pipelining_divides_the_gap() {
        let g1 = per_file_gap_s(0.060, 1);
        let g8 = per_file_gap_s(0.060, 8);
        assert!((g1 / g8 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn zero_pipelining_treated_as_one() {
        assert_eq!(per_file_gap_s(0.060, 0), per_file_gap_s(0.060, 1));
    }

    #[test]
    fn large_files_are_gap_insensitive() {
        let e1 = thread_efficiency(GIB, settings(1), 0.060, 1000.0);
        let e8 = thread_efficiency(GIB, settings(8), 0.060, 1000.0);
        // A 1 GB file takes ~8 s at 1 Gbps; a 0.13 s gap is ~1.6%.
        assert!(e1 > 0.97, "e1 = {e1}");
        assert!(e8 >= e1);
    }

    #[test]
    fn small_files_suffer_badly_without_pipelining() {
        // Mean ~ hundreds of KiB at WAN RTT: gap dominates.
        let e1 = thread_efficiency(100 * KIB, settings(1), 0.060, 1000.0);
        assert!(e1 < 0.05, "e1 = {e1}");
        let e16 = thread_efficiency(100 * KIB, settings(16), 0.060, 1000.0);
        assert!(
            e16 > 4.0 * e1,
            "pipelining should multiply efficiency: {e1} -> {e16}"
        );
    }

    #[test]
    fn lan_gaps_smaller_than_wan_gaps() {
        let lan = thread_efficiency(MIB, settings(1), 0.0001, 1000.0);
        let wan = thread_efficiency(MIB, settings(1), 0.060, 1000.0);
        assert!(lan > wan);
    }

    #[test]
    fn empty_dataset_fully_efficient() {
        assert_eq!(thread_efficiency(0, settings(1), 0.06, 1000.0), 1.0);
    }

    #[test]
    fn efficiency_clamped_to_valid_range() {
        let e = thread_efficiency(1, settings(1), 0.060, 100_000.0);
        assert!((0.01..=1.0).contains(&e));
        let e2 = thread_efficiency(GIB, settings(1), 0.060, 0.001);
        assert!(e2 <= 1.0);
    }
}
