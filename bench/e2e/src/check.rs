//! Output checks: parse what a `falcon` child printed and decide whether it
//! is a correct run of its workload. A miss counts as a failed attempt.

use crate::gen::Expect;

/// What a correct child's stdout yields beyond pass/fail.
#[derive(Debug, Default, PartialEq)]
pub struct Checked {
    /// Megabytes moved over the loopback interface (`loopback` only).
    pub mb_moved: Option<f64>,
}

fn num(tok: &str, what: &str) -> Result<f64, String> {
    tok.parse::<f64>()
        .map_err(|_| format!("{what}: {tok:?} is not a number"))
}

/// `# scenario env=… agents=N`, a column header, N agent rows with
/// `avg_gbps > 0`, then `jain_index (final third): J` with J in (0, 1].
fn agent_table(out: &str, agents: usize) -> Result<(), String> {
    let mut lines = out.lines();
    let header = lines.next().unwrap_or("");
    if !header.starts_with("# scenario ") || !header.ends_with(&format!("agents={agents}")) {
        return Err(format!("unexpected header {header:?}"));
    }
    lines.next(); // column names
    for i in 0..agents {
        let row = lines.next().ok_or(format!("agent row {i} missing"))?;
        let cols: Vec<&str> = row.split_whitespace().collect();
        if cols.len() != 5 || cols[0] != i.to_string() {
            return Err(format!("malformed agent row {row:?}"));
        }
        if num(cols[2], "avg_gbps")? <= 0.0 {
            return Err(format!("agent {i} ({}) moved nothing", cols[1]));
        }
    }
    let jain = lines
        .find_map(|l| l.strip_prefix("jain_index (final third): "))
        .ok_or("no jain_index line")?;
    let j = num(jain.trim(), "jain_index")?;
    if !(j > 0.0 && j <= 1.0) {
        return Err(format!("jain_index {j} outside (0, 1]"));
    }
    Ok(())
}

/// `  aggregate … Mbps; N/M completed; …` with N > 0.
fn fleet_report(out: &str) -> Result<(), String> {
    let line = out
        .lines()
        .find(|l| l.contains(" completed;"))
        .ok_or("no `N/M completed` line")?;
    let frac = line
        .split(';')
        .find_map(|part| part.trim().strip_suffix(" completed"))
        .ok_or("no `N/M completed` field")?;
    let (n, m) = frac
        .split_once('/')
        .ok_or(format!("bad fraction {frac:?}"))?;
    let (n, m) = (num(n, "completed")?, num(m, "transfers")?);
    if n <= 0.0 || n > m {
        return Err(format!("{n}/{m} completed"));
    }
    Ok(())
}

/// `  transfers T  completed C  stranded S` with C == T, S == 0 and T the
/// arrival count the spec asked for (the horizon may cut a fraction short).
fn campaign(out: &str, transfers: u64) -> Result<(), String> {
    let line = out
        .lines()
        .find(|l| l.trim_start().starts_with("transfers "))
        .ok_or("no `transfers … completed … stranded` line")?;
    let t: Vec<&str> = line.split_whitespace().collect();
    if t.len() != 6 || t[2] != "completed" || t[4] != "stranded" {
        return Err(format!("malformed summary line {line:?}"));
    }
    let (admitted, completed, stranded) = (
        num(t[1], "transfers")?,
        num(t[3], "completed")?,
        num(t[5], "stranded")?,
    );
    let want = transfers as f64;
    if admitted > want || admitted < 0.9 * want {
        return Err(format!("admitted {admitted} of {want} transfers"));
    }
    if completed != admitted || stranded != 0.0 {
        return Err(format!(
            "{completed}/{admitted} completed, {stranded} stranded"
        ));
    }
    Ok(())
}

/// A header, a column line, `probes` rows of `probe cc mbps utility` with
/// `mbps > 0`, then `final settings: … (N MB moved)`.
fn loopback(out: &str, probes: usize) -> Result<Checked, String> {
    let mut lines = out.lines();
    let header = lines.next().unwrap_or("");
    if !header.starts_with("# loopback ") {
        return Err(format!("unexpected header {header:?}"));
    }
    lines.next(); // column names
    for i in 0..probes {
        let row = lines.next().ok_or(format!("probe row {i} missing"))?;
        let cols: Vec<&str> = row.split_whitespace().collect();
        if cols.len() != 4 || cols[0] != i.to_string() {
            return Err(format!("malformed probe row {row:?}"));
        }
        if num(cols[2], "mbps")? <= 0.0 {
            return Err(format!("probe {i} measured no goodput"));
        }
    }
    let last = lines.next().unwrap_or("");
    let moved = last
        .strip_prefix("final settings: ")
        .and_then(|l| l.rsplit_once('('))
        .and_then(|(_, tail)| tail.strip_suffix(" MB moved)"))
        .ok_or(format!("no `final settings` line, got {last:?}"))?;
    let mb = num(moved, "MB moved")?;
    if mb <= 0.0 {
        return Err("0 MB moved".into());
    }
    Ok(Checked { mb_moved: Some(mb) })
}

/// Check one child's stdout against its workload's expectation.
pub fn check(expect: Expect, stdout: &[u8]) -> Result<Checked, String> {
    let out = std::str::from_utf8(stdout).map_err(|_| "stdout is not UTF-8".to_string())?;
    match expect {
        Expect::AgentTable { agents } => agent_table(out, agents).map(|()| Checked::default()),
        Expect::FleetReport => fleet_report(out).map(|()| Checked::default()),
        Expect::Campaign { transfers } => campaign(out, transfers).map(|()| Checked::default()),
        Expect::Loopback { probes } => loopback(out, probes),
    }
}

/// FNV-1a (64-bit) of a child's stdout: the `model_digest`. Simulated
/// statistics are not gated metrics, but a speed-only change must leave
/// this digest untouched for the same commit-independent seed.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from the release CLI at the commit that added the benchmark.
    const SCENARIO: &[u8] = include_bytes!("../tests/fixtures/scenario-long.txt");
    const FLEET: &[u8] = include_bytes!("../tests/fixtures/fleet-bo.txt");
    const C100K: &[u8] = include_bytes!("../tests/fixtures/campaign-100k.txt");
    const CRL: &[u8] = include_bytes!("../tests/fixtures/campaign-rl.txt");
    const LOOPBACK: &[u8] = include_bytes!("../tests/fixtures/loopback.txt");
    const STARVED: &[u8] = include_bytes!("../tests/fixtures/scenario-starved.txt");

    #[test]
    fn captured_outputs_pass_their_own_check() {
        assert!(check(Expect::AgentTable { agents: 5 }, SCENARIO).is_ok());
        assert!(check(Expect::FleetReport, FLEET).is_ok());
        assert!(check(Expect::Campaign { transfers: 100_000 }, C100K).is_ok());
        assert!(check(Expect::Campaign { transfers: 200_000 }, CRL).is_ok());
        let lb = check(Expect::Loopback { probes: 16 }, LOOPBACK).unwrap();
        assert_eq!(lb.mb_moved, Some(32440.0));
    }

    #[test]
    fn failing_outputs_are_rejected() {
        // A late joiner that never started: avg_gbps 0.00.
        let err = check(Expect::AgentTable { agents: 5 }, STARVED).unwrap_err();
        assert!(err.contains("moved nothing"), "{err}");
        // Wrong workload's output, truncated output, empty output.
        assert!(check(Expect::AgentTable { agents: 5 }, FLEET).is_err());
        assert!(check(Expect::AgentTable { agents: 6 }, SCENARIO).is_err());
        assert!(check(Expect::FleetReport, C100K).is_err());
        assert!(check(Expect::Campaign { transfers: 100_000 }, CRL).is_err());
        assert!(check(Expect::Loopback { probes: 17 }, LOOPBACK).is_err());
        let cut = &LOOPBACK[..LOOPBACK.len() / 2];
        assert!(check(Expect::Loopback { probes: 16 }, cut).is_err());
        for e in [
            Expect::AgentTable { agents: 5 },
            Expect::FleetReport,
            Expect::Campaign { transfers: 1 },
            Expect::Loopback { probes: 1 },
        ] {
            assert!(check(e, b"").is_err());
            assert!(check(e, b"error: something broke\n").is_err());
        }
    }

    #[test]
    fn stranded_or_short_campaigns_fail() {
        let ok = "  transfers 1000  completed 1000  stranded 0\n";
        assert!(campaign(ok, 1000).is_ok());
        assert!(campaign("  transfers 1000  completed 990  stranded 10\n", 1000).is_err());
        assert!(campaign("  transfers 500  completed 500  stranded 0\n", 1000).is_err());
        assert!(campaign("  transfers 950  completed 950  stranded 0\n", 1000).is_ok());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
