//! Golden snapshot for the E25 re-sweep under hierarchical routing.
//!
//! Runs the pinned [`CompareSpec::golden`] grid (n = 256, 2 seeds,
//! walk + waypoint, all three schemes) priced with
//! [`HopMetric::HierRouting`] — the configuration `exp_hier_resweep` runs —
//! and compares the canonical JSON against
//! `tests/golden/hier_resweep_n256.json`, byte for byte. Every hop here is
//! a walk over the per-tick `NextHopTable`, so any change to how the
//! routing tables are built or walked shows up here, not only in E24's
//! Euclidean-priced golden.
//!
//! Regenerate (only for an *intentional* model change):
//!
//! ```text
//! CHLM_REGEN_GOLDEN=1 cargo test -p chlm-bench --test golden_hier_resweep --release
//! ```
//!
//! The numbers are thread-count invariant (see `chlm-sim`'s
//! `tests/thread_invariance.rs`), so regeneration at any `CHLM_THREADS`
//! produces the same file.

use chlm_bench::lm_compare::{rows_json, run_compare, CompareSpec};
use chlm_sim::HopMetric;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/hier_resweep_n256.json"
);

#[test]
fn hier_resweep_matches_golden_snapshot() {
    let spec = CompareSpec {
        hop_metric: HopMetric::HierRouting,
        ..CompareSpec::golden()
    };
    let rows = run_compare(&spec);
    // 2 mobilities × 3 schemes × 1 size.
    assert_eq!(rows.len(), 6);
    let json = rows_json(&spec, &rows);
    if std::env::var("CHLM_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden");
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden file {GOLDEN_PATH} ({e}); regenerate with \
             `CHLM_REGEN_GOLDEN=1 cargo test -p chlm-bench --test golden_hier_resweep --release`"
        )
    });
    assert_eq!(
        json, want,
        "E25 hierarchical-routing output drifted from the golden snapshot; if \
         the model change is intentional, regenerate with `CHLM_REGEN_GOLDEN=1 \
         cargo test -p chlm-bench --test golden_hier_resweep --release`"
    );
}
