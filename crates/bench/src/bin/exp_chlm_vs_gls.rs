//! E13 (§3.1 vs §3.2): CHLM against the GLS baseline it adapts.
//!
//! Same mobility (identical seeds and deployments), two LM systems:
//! CHLM's handoff overhead (φ + γ) versus GLS's maintenance overhead
//! (distance-triggered updates + server-churn transfers), plus CHLM query
//! cost and server-load balance.

use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, env_usize, replications, standard_config, threads};
use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_core::experiment::{summarize_metric, sweep};
use chlm_geom::{Disk, Region, SimRng};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_lm::gls::{gls_resolve, GlsAssignment, GridHierarchy};
use chlm_lm::query::resolve;
use chlm_lm::server::{LmAssignment, SelectionRule};

fn main() {
    banner("E13 / §3", "CHLM vs GLS LM maintenance overhead");
    let max = env_usize("CHLM_MAX_N", 1024).min(1024);
    let sizes: Vec<usize> = chlm_core::scenario::scaling_sizes(max);
    // One report yields both the CHLM and the GLS series (track_gls).
    let points = sweep(&sizes, replications(), 13_000, threads(), |n| {
        let mut cfg = standard_config(n);
        cfg.track_gls = true;
        cfg.query_samples = 60;
        cfg
    });

    let chlm = summarize_metric(&points, "chlm", |r| r.total_overhead());
    let gls = summarize_metric(&points, "gls", |r| r.gls_overhead.unwrap_or(0.0));
    let query = summarize_metric(&points, "query", |r| r.mean_query_packets.unwrap_or(0.0));

    let mut t = TextTable::new(vec![
        "n",
        "chlm (pkt/node/s)",
        "gls (pkt/node/s)",
        "gls/chlm",
        "chlm query (pkts)",
    ]);
    for i in 0..sizes.len() {
        t.row(vec![
            format!("{}", sizes[i]),
            fnum(chlm.means[i]),
            fnum(gls.means[i]),
            fnum(gls.means[i] / chlm.means[i].max(1e-12)),
            fnum(query.means[i]),
        ]);
    }
    println!("{}", t.render());

    // Query-cost comparison on identical static snapshots and pairs.
    let mut qt = TextTable::new(vec!["n", "chlm query (pkts)", "gls query (pkts)"]);
    let density = 1.25;
    let rtx = chlm_geom::rtx_for_degree(9.0, density);
    for &n in &sizes {
        let mut rng = SimRng::seed_from(13_500 + n as u64);
        let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
        let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
        let g = build_unit_disk(&pts, rtx);
        let ids = rng.permutation(n);
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let chlm_asn = LmAssignment::compute(&h, SelectionRule::Hrw);
        let (lo, hi) = region.bounding_box();
        let grid = GridHierarchy::covering(chlm_geom::Rect::new(lo, hi), rtx * 2.0);
        let gls_asn = GlsAssignment::compute(&grid, &pts, &ids);
        let hop = |a: u32, b: u32| (pts[a as usize].dist(pts[b as usize]) / rtx * 1.3).max(1.0);
        let mut chlm_sum = 0.0;
        let mut chlm_n = 0usize;
        let mut gls_sum = 0.0;
        let mut gls_n = 0usize;
        for _ in 0..80 {
            let s = rng.index(n) as u32;
            let d = rng.index(n) as u32;
            if let Some(q) = resolve(&h, &chlm_asn, s, d, hop) {
                chlm_sum += q.packets;
                chlm_n += 1;
            }
            if let Some(c) = gls_resolve(&grid, &gls_asn, &pts, s, d, hop) {
                gls_sum += c;
                gls_n += 1;
            }
        }
        qt.row(vec![
            format!("{n}"),
            fnum(if chlm_n > 0 {
                chlm_sum / chlm_n as f64
            } else {
                f64::NAN
            }),
            fnum(if gls_n > 0 {
                gls_sum / gls_n as f64
            } else {
                f64::NAN
            }),
        ]);
    }
    println!("query cost on identical static snapshots (same pairs, same oracle):");
    println!("{}", qt.render());
    println!("notes:");
    println!("- both systems priced in packet transmissions (entries x hops);");
    println!("- GLS charges distance-triggered updates (feature (c)) plus server");
    println!("  churn transfers; CHLM charges handoff (phi + gamma);");
    println!("- comparable magnitudes at matched mobility support §3.2's argument");
    println!("  that CHLM achieves GLS-like LM economics on a clustered hierarchy.");
}
