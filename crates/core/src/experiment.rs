//! Sweep-and-summarize helpers shared by examples and experiment binaries.

use chlm_analysis::stats::Summary;
use chlm_sim::{run_sweep, runner::seed_range, SimConfig, SimReport, SweepJob, VariantSpec};

/// All replications at one network size.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub n: usize,
    pub reports: Vec<SimReport>,
}

impl SweepPoint {
    /// Summary of `metric` across this point's replications.
    pub fn summary<F: Fn(&SimReport) -> f64>(&self, metric: F) -> Summary {
        let xs: Vec<f64> = self.reports.iter().map(metric).collect();
        // audit: infallible because sweep always yields >= 1 report per point
        Summary::of(&xs).expect("sweep point with no replications")
    }
}

/// A named series extracted from a sweep: one (mean, ci95) per size.
#[derive(Debug, Clone)]
pub struct MetricSeries {
    pub name: String,
    pub sizes: Vec<f64>,
    pub means: Vec<f64>,
    pub ci95: Vec<f64>,
}

impl MetricSeries {
    /// `(sizes, means)` view for the regression fitter.
    pub fn xy(&self) -> (&[f64], &[f64]) {
        (&self.sizes, &self.means)
    }
}

/// Run a scaling sweep: for each size, build a config with `make_config`
/// and run `replications` seeded replications (`base_seed + i`) across
/// `threads` threads. The whole (size, seed) grid is flattened into one
/// [`SweepJob`] graph, so workers claim whole world-runs off
/// [`run_sweep`]'s ticket counter with no barrier between sizes. Reports
/// are byte-identical at any thread count.
pub fn sweep<F: Fn(usize) -> SimConfig>(
    sizes: &[usize],
    replications: usize,
    base_seed: u64,
    threads: usize,
    make_config: F,
) -> Vec<SweepPoint> {
    assert!(replications >= 1);
    let seeds = seed_range(base_seed, replications);
    let jobs: Vec<SweepJob> = sizes
        .iter()
        .flat_map(|&n| {
            let cfg = make_config(n);
            assert_eq!(cfg.n, n, "make_config must honor the requested size");
            let variants = vec![VariantSpec::from_config("base", &cfg)];
            seeds.iter().map(move |&seed| SweepJob {
                cfg: cfg.clone(),
                seed,
                variants: variants.clone(),
            })
        })
        .collect();
    let mut grid = run_sweep(&jobs, threads).into_iter();
    sizes
        .iter()
        .map(|&n| {
            let reports = (0..replications)
                .map(|_| {
                    // audit: infallible because jobs holds sizes × replications entries
                    let mut reports = grid.next().expect("job grid covers the sweep");
                    // audit: infallible because every job carries exactly one variant
                    reports.pop().expect("one report per single-variant job")
                })
                .collect();
            SweepPoint { n, reports }
        })
        .collect()
}

/// Extract a named metric series from sweep points.
pub fn summarize_metric<F: Fn(&SimReport) -> f64>(
    points: &[SweepPoint],
    name: &str,
    metric: F,
) -> MetricSeries {
    let mut sizes = Vec::with_capacity(points.len());
    let mut means = Vec::with_capacity(points.len());
    let mut ci95 = Vec::with_capacity(points.len());
    for p in points {
        let s = p.summary(&metric);
        sizes.push(p.n as f64);
        means.push(s.mean);
        ci95.push(s.ci95());
    }
    MetricSeries {
        name: name.to_string(),
        sizes,
        means,
        ci95,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_sim::run_replications;

    #[test]
    fn sweep_runs_and_summarizes() {
        let points = sweep(&[40, 80], 2, 100, 2, |n| {
            SimConfig::builder(n).duration(1.0).warmup(0.2).build()
        });
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].reports.len(), 2);
        let series = summarize_metric(&points, "f0", |r| r.f0);
        assert_eq!(series.sizes, vec![40.0, 80.0]);
        assert!(series.means.iter().all(|&m| m > 0.0));
        let (xs, ys) = series.xy();
        assert_eq!(xs.len(), ys.len());
    }

    #[test]
    fn sweep_matches_per_seed_runs_exactly() {
        let make = |n: usize| SimConfig::builder(n).duration(1.0).warmup(0.2).build();
        let points = sweep(&[40, 80], 2, 100, 2, make);
        let seeds = seed_range(100, 2);
        for p in &points {
            let solo = run_replications(&make(p.n), &seeds, 1);
            assert_eq!(p.reports, solo, "n={} grid order broken", p.n);
        }
    }

    #[test]
    #[should_panic]
    fn make_config_must_honor_size() {
        sweep(&[10], 1, 0, 1, |_| {
            SimConfig::builder(5).duration(1.0).build()
        });
    }
}
