//! The output check: every bank's `SimReport::digest` after a fixed prefix
//! of ticks must equal the digest of the same config run under
//! `full_rebuild` (the from-scratch lockstep oracle). The candidate runs
//! with the invariant auditor on for the workload's `audit_ticks`; where
//! that is shorter than the prefix (one audited tick at n = 65536 takes
//! about 12 s), a second, unaudited candidate is compared with the oracle
//! over the whole prefix, so the maintainers' incremental paths past the
//! first Verlet fallback are still checked. The oracle is the reference
//! and runs unaudited. A digest mismatch, an audit violation or a panic
//! counts every checked tick as failed.

use crate::Workload;
use chlm_sim::{MultiplexSim, SimConfig, VariantSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One bank's result in one comparison.
pub struct BankCheck {
    pub label: String,
    /// Ticks the candidate and the oracle ran.
    pub ticks: usize,
    /// Whether the candidate ran with the auditor on.
    pub audited: bool,
    /// Digest of the candidate run's report (the full run of the prefix).
    pub digest: u64,
    pub oracle_digest: u64,
    /// Audit violations in the candidate run.
    pub violations: usize,
}

/// What one output check found.
pub struct Checked {
    /// Ticks checked, summed over the comparisons.
    pub ticks: usize,
    /// Ticks counted as failed: all of them, or none.
    pub failed: usize,
    pub banks: Vec<BankCheck>,
    pub problems: Vec<String>,
}

/// The oracle for `base`: the same world rebuilt from scratch every tick.
pub fn oracle_of(base: &SimConfig) -> SimConfig {
    let mut cfg = base.clone();
    cfg.full_rebuild = true;
    cfg
}

/// Check the workload's banks against the full-rebuild oracle: audited
/// over `audit_ticks`, then unaudited over `check_ticks` if that is longer.
pub fn run(w: &Workload) -> Checked {
    let oracle = oracle_of(&w.base);
    let mut checked = compare(&w.base, &oracle, &w.variants, w.audit_ticks, true);
    if w.check_ticks > w.audit_ticks {
        let long = compare(&w.base, &oracle, &w.variants, w.check_ticks, false);
        checked.ticks += long.ticks;
        checked.banks.extend(long.banks);
        checked.problems.extend(long.problems);
        checked.failed = if checked.problems.is_empty() {
            0
        } else {
            checked.ticks
        };
    }
    checked
}

/// Run `candidate` (audited if `audit`) and `oracle` for `ticks` ticks
/// each and compare every bank's report digest.
pub fn compare(
    candidate: &SimConfig,
    oracle: &SimConfig,
    variants: &[VariantSpec],
    ticks: usize,
    audit: bool,
) -> Checked {
    let mut problems = Vec::new();
    let mut banks = Vec::new();
    match (
        digests(candidate, audit, variants, ticks),
        digests(oracle, false, variants, ticks),
    ) {
        (Ok(cand), Ok(orc)) => {
            for ((v, (d, violations)), (od, _)) in variants.iter().zip(cand).zip(orc) {
                if d != od {
                    problems.push(format!(
                        "bank {} after {ticks} ticks: digest {d:#018x} != oracle {od:#018x}",
                        v.label
                    ));
                }
                if violations > 0 {
                    problems.push(format!("bank {}: {violations} audit violations", v.label));
                }
                banks.push(BankCheck {
                    label: v.label.clone(),
                    ticks,
                    audited: audit,
                    digest: d,
                    oracle_digest: od,
                    violations,
                });
            }
        }
        (c, o) => {
            for e in [c.err(), o.err()].into_iter().flatten() {
                problems.push(format!("panic: {e}"));
            }
        }
    }
    Checked {
        ticks,
        failed: if problems.is_empty() { 0 } else { ticks },
        banks,
        problems,
    }
}

/// Per bank: the report digest after `ticks` ticks and the number of audit
/// violations. A panic comes back as its message.
fn digests(
    cfg: &SimConfig,
    audit: bool,
    variants: &[VariantSpec],
    ticks: usize,
) -> Result<Vec<(u64, usize)>, String> {
    let mut cfg = cfg.clone();
    cfg.audit = audit;
    catch_unwind(AssertUnwindSafe(|| {
        let mut mx = MultiplexSim::new(&cfg, variants);
        for _ in 0..ticks {
            mx.step();
        }
        let violations: Vec<usize> = (0..variants.len())
            .map(|i| mx.audit_violations(i).len())
            .collect();
        mx.finish()
            .iter()
            .zip(violations)
            .map(|(r, v)| (r.digest(), v))
            .collect()
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}
