//! The repository benchmark: three experiment-shaped workloads over the
//! CHLM simulator, measured end to end ([`measure`]), split into layers by
//! an outside-in traced replay ([`trace`]), and checked against the
//! full-rebuild oracle ([`check`]). `README.md` in this directory explains
//! the workloads and the metric → layer → workload map.

pub mod alloc;
pub mod check;
pub mod measure;
pub mod trace;

use chlm_sim::{Backend, HopMetric, LmScheme, MobilityKind, SimConfig, VariantSpec};

/// Worker threads every workload runs with (the benchmark host has two
/// cores; the engine's output is identical at every thread count).
pub const THREADS: usize = 2;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["world_64k", "lookups_e27", "updates_e25"];

/// Length of the output check's prefix, in ticks (see
/// [`Workload::check_ticks`]).
pub const CHECK_TICKS: usize = 10;

/// Bank labels of the widest bank set: scheme, then `a`nalytic or lossless
/// `p`acket backend.
pub const BANK_LABELS: [&str; 6] = ["chlm-a", "chlm-p", "gls-a", "gls-p", "home-a", "home-p"];

/// One benchmark workload: a shared world and the observer banks priced
/// against it.
pub struct Workload {
    /// World config, seeded from the benchmark's `--seed`.
    pub base: SimConfig,
    /// One bank per variant; labels come from [`BANK_LABELS`].
    pub variants: Vec<VariantSpec>,
    /// Ticks over which the output check compares every bank with the
    /// full-rebuild oracle. The Verlet topology falls back to a rebuild
    /// (and the hierarchy resyncs) every 5 or 6 ticks, so the prefix
    /// covers at least one fallback.
    pub check_ticks: usize,
    /// Ticks of that prefix the candidate runs audited for; where shorter
    /// than `check_ticks`, an unaudited candidate also runs the whole
    /// prefix.
    pub audit_ticks: usize,
    /// Worlds the untraced run measures one after another, each for an
    /// equal share of the run, pooling their ticks: one world's tick-time
    /// tail depends on its random trace, several worlds' pooled tail much
    /// less. World 0 is `base`; the check and the traced run use it.
    pub worlds: usize,
    /// Set-ups timed per world; `setup_s` is the median of all of them.
    pub setup_reps: usize,
    /// Whether the traced run also replays the world stages at
    /// threads = 1 (only where they dominate the tick).
    pub thread_scaling: bool,
}

fn bank(label: &str, scheme: LmScheme, metric: HopMetric, packet: bool) -> VariantSpec {
    let backend = if packet {
        Backend::packet()
    } else {
        Backend::Analytic
    };
    VariantSpec::new(label, scheme, metric, backend)
}

fn schemes() -> [(&'static str, LmScheme); 3] {
    [
        ("chlm", LmScheme::Chlm),
        ("gls", LmScheme::Gls),
        ("home", LmScheme::HomeAgent),
    ]
}

impl Workload {
    /// The config of world `i`: `base` with a seed derived from the run's.
    pub fn world(&self, i: usize) -> SimConfig {
        let mut cfg = self.base.clone();
        cfg.seed ^= (i as u64) << 32;
        cfg
    }

    /// The named workload for `seed`. `nodes` overrides the stated size
    /// (the smoke test runs every workload small).
    pub fn named(name: &str, seed: u64, nodes: Option<usize>) -> Result<Workload, String> {
        let w = match name {
            // ROADMAP's LM-assignment target size: world stages dominate,
            // pricing is a Euclidean estimate and nearly free.
            "world_64k" => {
                let metric = HopMetric::EuclideanCalibrated;
                Workload {
                    base: SimConfig::builder(nodes.unwrap_or(65536))
                        .seed(seed)
                        .mobility(MobilityKind::Waypoint)
                        .hop_metric(metric)
                        .threads(THREADS)
                        .build(),
                    variants: vec![bank("chlm-a", LmScheme::Chlm, metric, false)],
                    // One audited tick at this size takes about 12 s.
                    check_ticks: CHECK_TICKS,
                    audit_ticks: 1,
                    worlds: 1,
                    setup_reps: 3,
                    thread_scaling: true,
                }
            }
            // E27's bank set: lookups meet updates in the query plane and
            // the packet backend; world stages are a few % of the tick.
            // n = 512 (E27's grid runs 128..1024) so a run holds 100 ticks.
            "lookups_e27" => {
                let metric = HopMetric::Bfs;
                let mut variants = Vec::new();
                for (s, scheme) in schemes() {
                    variants.push(bank(&format!("{s}-a"), scheme, metric, false));
                    variants.push(bank(&format!("{s}-p"), scheme, metric, true));
                }
                Workload {
                    base: SimConfig::builder(nodes.unwrap_or(512))
                        .seed(seed)
                        .mobility(MobilityKind::Walk)
                        .target_degree(12.0)
                        .hop_metric(metric)
                        .query_samples(0)
                        .query_rate(16.0)
                        .threads(THREADS)
                        .build(),
                    variants,
                    check_ticks: CHECK_TICKS,
                    audit_ticks: CHECK_TICKS,
                    worlds: 4,
                    setup_reps: 5,
                    thread_scaling: false,
                }
            }
            // E25's bank set: the update path alone, priced by strict
            // hierarchical routing (the next-hop table build). n = 1024
            // (E25's grid starts at 128) so a run holds 100 ticks.
            "updates_e25" => {
                let metric = HopMetric::HierRouting;
                Workload {
                    base: SimConfig::builder(nodes.unwrap_or(1024))
                        .seed(seed)
                        .mobility(MobilityKind::Waypoint)
                        .hop_metric(metric)
                        .query_samples(0)
                        .threads(THREADS)
                        .build(),
                    variants: schemes()
                        .into_iter()
                        .map(|(s, scheme)| bank(&format!("{s}-a"), scheme, metric, false))
                        .collect(),
                    check_ticks: CHECK_TICKS,
                    audit_ticks: CHECK_TICKS,
                    worlds: 4,
                    setup_reps: 5,
                    thread_scaling: false,
                }
            }
            other => return Err(format!("unknown workload {other:?}")),
        };
        Ok(w)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (which JSON cannot carry) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Layers the traced replay times, named after the modules they call into.
pub const LAYERS: [&str; 10] = [
    "mobility",
    "arrivals",
    "topology",
    "hierarchy",
    "address",
    "assignment",
    "diff",
    "world_obs",
    "pricer",
    "banks",
];

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics. `samples` must be non-empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds of CPU time the hypervisor has stolen from each of this
/// machine's virtual CPUs since boot (the `steal` column of the `cpuN`
/// lines of `/proc/stat`, in units of 1/100 s); empty where the kernel
/// does not report it.
pub fn steal_per_cpu() -> Vec<f64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .filter_map(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map(|jiffies| jiffies / 100.0)
        .collect()
}

/// The host steal charged to the interval between two [`steal_per_cpu`]
/// readings: the largest increase on any one virtual CPU. An idle vCPU
/// accrues no steal, so serial code is charged its own vCPU's steal; in a
/// fork-join tick a preempted vCPU delays the join by about as long as it
/// was preempted, and two vCPUs preempted at once delay it by the longer
/// of the two, not their sum.
pub fn steal_between(before: &[f64], after: &[f64]) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| a - b)
        .fold(0.0, f64::max)
}
