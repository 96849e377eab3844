//! The default seed's deterministic outputs, recorded in `expected.txt`.
//!
//! A line is `<workload> <committed> <hops> <sojourn_p50> <sojourn_p99>
//! <peak_live>`; `#` starts a comment. Regenerate the file with
//! `dtm-perfbench --print-expected` after a change that is meant to alter
//! scheduling decisions, and say so in the change.

use crate::pass::Fingerprint;
use crate::workload::Workload;

const EXPECTED: &str = include_str!("../expected.txt");

/// Parse one line into its workload name and fingerprint.
fn parse(line: &str) -> Option<(&str, Fingerprint)> {
    let mut fields = line.split_whitespace();
    let name = fields.next()?;
    let mut num = || fields.next()?.parse::<u64>().ok();
    let fp = Fingerprint {
        committed: num()?,
        hops: num()?,
        sojourn_p50: num()?,
        sojourn_p99: num()?,
        peak_live: num()?,
    };
    Some((name, fp))
}

/// The recorded fingerprint of `workload`, if the file has a well-formed
/// line for it.
pub fn lookup(workload: Workload) -> Option<Fingerprint> {
    EXPECTED
        .lines()
        .map(|l| l.split('#').next().unwrap_or(""))
        .filter_map(parse)
        .find(|(name, _)| *name == workload.name())
        .map(|(_, fp)| fp)
}

/// Format one `expected.txt` line.
pub fn line(workload: Workload, fp: &Fingerprint) -> String {
    format!(
        "{} {} {} {} {} {}",
        workload.name(),
        fp.committed,
        fp.hops,
        fp.sojourn_p50,
        fp.sojourn_p99,
        fp.peak_live
    )
}
