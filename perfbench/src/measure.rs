//! The untraced run: end-to-end metrics exactly as a user of the
//! simulator sees them — `MultiplexSim::new`, then `step` in a loop.

use crate::{peak_rss_mb, quantile, steal_between, steal_per_cpu, Metrics, Workload};
use chlm_sim::{MultiplexSim, SimReport};
use std::hint::black_box;
use std::time::Instant;

/// Fewest ticks any run measures, however short `seconds` is.
pub const MIN_TICKS: usize = 3;

/// Shortest span over which host steal is read. `/proc/stat` counts steal
/// in 10 ms steps, too coarse for one tick; over a block of ticks at least
/// this long the step is at most 1% of the block.
const STEAL_BLOCK_SECS: f64 = 1.0;

/// What one untraced run measured.
pub struct Measured {
    pub metrics: Metrics,
    /// Measured ticks.
    pub ticks: usize,
    /// Ticks counted as failed by the report sanity check.
    pub failed: usize,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// A block of consecutive ticks whose host steal is read as one.
struct StealBlock {
    /// Index of the block's first tick.
    from: usize,
    start: Instant,
    steal: Vec<f64>,
}

impl StealBlock {
    fn open(from: usize) -> StealBlock {
        StealBlock {
            from,
            start: Instant::now(),
            steal: steal_per_cpu(),
        }
    }

    /// Close the block: spread its steal over its ticks in proportion to
    /// their wall time, push their net times onto `net_ms`, and return the
    /// block's steal in seconds.
    fn close(self, raw_secs: &[f64], net_ms: &mut Vec<f64>) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        let stolen = steal_between(&self.steal, &steal_per_cpu()).min(wall);
        let net_share = 1.0 - stolen / wall;
        net_ms.extend(raw_secs[self.from..].iter().map(|s| s * net_share * 1e3));
        stolen
    }
}

/// For each of the workload's worlds in turn: set it up `setup_reps`
/// times, then step the last set-up copy for an equal share of `seconds`.
/// Tick times pool across worlds and are wall time net of the host steal
/// during them (see README.md); `setup_s` is the median set-up wall time.
pub fn run(w: &Workload, seconds: f64) -> Measured {
    let worlds = w.worlds.max(1);
    let mut setups = Vec::new();
    // Per-tick wall time as measured, and net of hypervisor steal.
    let mut raw_secs = Vec::new();
    let mut tick_ms = Vec::new();
    let (mut wall, mut steal) = (0.0, 0.0);
    let mut problems = Vec::new();
    for i in 0..worlds {
        let cfg = w.world(i);
        let mut sim: Option<MultiplexSim> = None;
        for _ in 0..w.setup_reps.max(1) {
            // Drop the previous copy first, so at most one is resident.
            drop(sim.take());
            let t0 = Instant::now();
            let mx = MultiplexSim::new(black_box(&cfg), &w.variants);
            setups.push(t0.elapsed().as_secs_f64());
            sim = Some(mx);
        }
        // audit: infallible because the loop above runs at least once.
        let mut mx = sim.expect("at least one set-up");
        let share = seconds / worlds as f64;
        let first = raw_secs.len();
        let start = Instant::now();
        let mut block = StealBlock::open(first);
        while raw_secs.len() - first < MIN_TICKS || start.elapsed().as_secs_f64() < share {
            let t0 = Instant::now();
            mx.step();
            raw_secs.push(t0.elapsed().as_secs_f64());
            if block.start.elapsed().as_secs_f64() >= STEAL_BLOCK_SECS {
                steal += block.close(&raw_secs, &mut tick_ms);
                block = StealBlock::open(raw_secs.len());
            }
        }
        steal += block.close(&raw_secs, &mut tick_ms);
        wall += start.elapsed().as_secs_f64();
        let reports = mx.finish();
        problems.extend(
            sanity(w, &reports)
                .into_iter()
                .map(|p| format!("world {i}: {p}")),
        );
    }
    let ticks = tick_ms.len();
    let raw_ms: Vec<f64> = raw_secs.iter().map(|s| s * 1e3).collect();

    let mut metrics = Metrics::default();
    metrics.push(
        "ticks_per_s",
        ticks as f64 / (wall - steal).max(f64::MIN_POSITIVE),
        "1/s",
    );
    metrics.push("tick_ms_p50", quantile(&tick_ms, 0.5), "ms");
    metrics.push("tick_ms_p90", quantile(&tick_ms, 0.9), "ms");
    metrics.push("setup_s", quantile(&setups, 0.5), "s");
    metrics.push("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");

    let mut notes = vec![
        format!(
            "measured {ticks} ticks over {worlds} worlds in {wall:.3} s \
             (p90 has {} ticks beyond it); {} set-ups",
            ticks - (ticks as f64 * 0.9).ceil() as usize,
            setups.len()
        ),
        format!(
            "host steal {:.3} s ({:.1}% of the stepping wall time); as measured, \
             without subtracting it: {:.4} ticks/s, tick p50 {:.3} ms, p90 {:.3} ms",
            steal,
            100.0 * steal / wall,
            ticks as f64 / wall,
            quantile(&raw_ms, 0.5),
            quantile(&raw_ms, 0.9)
        ),
    ];
    notes.extend(problems.iter().map(|p| format!("FAILED: {p}")));
    Measured {
        metrics,
        ticks,
        failed: if problems.is_empty() { 0 } else { ticks },
        notes,
    }
}

/// Plausibility of the measured run's reports: its length depends on the
/// host's speed, so it cannot be compared with the oracle digest by digest
/// (the output check does that on a fixed prefix), but every counter it
/// produced must still be well-formed.
pub fn sanity(w: &Workload, reports: &[SimReport]) -> Vec<String> {
    let mut problems = Vec::new();
    if reports.len() != w.variants.len() {
        problems.push(format!(
            "{} reports for {} banks",
            reports.len(),
            w.variants.len()
        ));
    }
    for (r, v) in reports.iter().zip(&w.variants) {
        let packets: f64 = r.ledger.per_level.iter().map(|l| l.total_packets()).sum();
        if r.n != w.base.n || !(packets.is_finite() && packets >= 0.0) {
            problems.push(format!("bank {}: malformed report", v.label));
        }
        let wants_query = w.base.query_rate > 0.0;
        match &r.query {
            Some(q) if wants_query => {
                if q.arrivals != q.resolved + q.unresolved || q.arrivals == 0 {
                    problems.push(format!("bank {}: inconsistent query stats", v.label));
                }
            }
            None if !wants_query => {}
            _ => problems.push(format!("bank {}: query plane mismatch", v.label)),
        }
    }
    problems
}
