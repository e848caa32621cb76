//! The traced run: the per-layer split of a tick.
//!
//! [`Replay`] rebuilds `MultiplexSim`'s tick from the simulator's public
//! API and times every call into a layer from outside: mobility, the
//! Verlet topology maintainer, the hierarchy maintainer, address capture,
//! the memoized HRW walk, the diffs, the world observers, the cost model's
//! `with_pricer`, and each bank's handoff and query observers. Two
//! crate-private helpers are mirrored here ([`fill_query_arrivals`],
//! [`collect_chlm_bfs_sources`]); [`run`] replays the same ticks as an
//! untraced `MultiplexSim` and checks the replay against it — hierarchy
//! digest at every tick, each bank's final ledger and query statistics —
//! which is what catches drift between the copies and the originals.

use crate::alloc;
use crate::measure::MIN_TICKS;
use crate::{Metrics, Workload, BANK_LABELS, LAYERS};
use chlm_cluster::address::{AddrChange, AddressBook};
use chlm_cluster::{hierarchy_digest, Hierarchy, HierarchyMaintainer, HierarchyOptions};
use chlm_geom::{Disk, SimRng};
use chlm_graph::{NodeIdx, UnitDiskMaintainer};
use chlm_lm::handoff::HandoffLedger;
use chlm_lm::server::{HostChange, LmAssignment, LmCache};
use chlm_mobility::{MobilityModel, RandomWalk, RandomWaypoint};
use chlm_par::WorkerPool;
use chlm_sim::cost::cost_model_for;
use chlm_sim::oracle::calibrate;
use chlm_sim::{
    make_accounting, make_query_accounting, CostInputs, CostModel, HandoffAccounting, HopMetric,
    HopPricer, LmScheme, MobilityKind, MultiplexSim, Observer, QueryAccounting, QueryStats,
    SimConfig, TickCtx, VariantSpec,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const MOBILITY: usize = 0;
const ARRIVALS: usize = 1;
const TOPOLOGY: usize = 2;
const HIERARCHY: usize = 3;
const ADDRESS: usize = 4;
const ASSIGNMENT: usize = 5;
const DIFF: usize = 6;
const WORLD_OBS: usize = 7;
const PRICER: usize = 8;
const BANKS: usize = 9;

/// Lap timer over the layers of one tick. Time between laps that no layer
/// claims (building the tick context, rotating snapshots) stays in the
/// tick total only, so `trace.coverage` shows how much of the tick the
/// layers account for.
#[derive(Default, Clone)]
pub struct Clock {
    mark: Option<Instant>,
    alloc_mark: (u64, u64),
    tick_start: Option<Instant>,
    tick_alloc_start: (u64, u64),
    /// Self seconds per layer, indexed like [`LAYERS`].
    pub secs: [f64; LAYERS.len()],
    /// Allocations per layer.
    pub allocs: [u64; LAYERS.len()],
    /// Whole-tick seconds, allocations and allocated bytes.
    pub tick_secs: f64,
    pub tick_allocs: u64,
    pub tick_bytes: u64,
}

impl Clock {
    fn begin(&mut self) {
        let now = Instant::now();
        let a = alloc::snapshot();
        self.mark = Some(now);
        self.tick_start = Some(now);
        self.alloc_mark = a;
        self.tick_alloc_start = a;
    }

    /// Charge the time and allocations since the last mark to `layer`.
    fn lap(&mut self, layer: usize) {
        let now = Instant::now();
        let a = alloc::snapshot();
        if let Some(mark) = self.mark {
            self.secs[layer] += (now - mark).as_secs_f64();
        }
        self.allocs[layer] += a.0 - self.alloc_mark.0;
        self.mark = Some(now);
        self.alloc_mark = a;
    }

    /// Move the mark without charging any layer.
    fn skip(&mut self) {
        self.mark = Some(Instant::now());
        self.alloc_mark = alloc::snapshot();
    }

    fn end(&mut self) {
        let now = Instant::now();
        let a = alloc::snapshot();
        if let Some(start) = self.tick_start {
            self.tick_secs += (now - start).as_secs_f64();
        }
        self.tick_allocs += a.0 - self.tick_alloc_start.0;
        self.tick_bytes += a.1 - self.tick_alloc_start.1;
    }
}

/// Stream salt of the query-arrival draws — mirrors the simulator's
/// crate-private `QUERY_ARRIVAL_STREAM`.
const QUERY_ARRIVAL_STREAM: u64 = 0x5155_4552_5941_5252;

/// Mirror of the simulator's crate-private `shard_loss_seed`.
fn shard_loss_seed(seed: u64, tick: u64, shard: u64) -> u64 {
    seed ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (shard + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Mirror of the simulator's crate-private `fill_query_arrivals`: tick
/// `tick`'s (requester, target) lookup pairs.
pub fn fill_query_arrivals(cfg: &SimConfig, tick: usize, out: &mut Vec<(NodeIdx, NodeIdx)>) {
    out.clear();
    if cfg.query_rate <= 0.0 {
        return;
    }
    let e = cfg.query_rate * cfg.n as f64 * cfg.tick();
    let t = tick as f64;
    let count = (((t + 1.0) * e).floor() - (t * e).floor()) as usize;
    if count == 0 {
        return;
    }
    let mut rng = SimRng::seed_from(shard_loss_seed(cfg.seed, tick as u64, QUERY_ARRIVAL_STREAM));
    for _ in 0..count {
        out.push((rng.index(cfg.n) as NodeIdx, rng.index(cfg.n) as NodeIdx));
    }
}

/// Mirror of the simulator's crate-private `collect_chlm_bfs_sources`: the
/// BFS rows CHLM's ledger pricing will query this tick, sorted and
/// deduplicated.
pub fn collect_chlm_bfs_sources(
    host_changes: &[HostChange],
    addr_changes: &[AddrChange],
    out: &mut Vec<NodeIdx>,
) {
    let exact = |node: NodeIdx, level: u16| {
        addr_changes
            .binary_search_by_key(&(node, level), |c| (c.node, c.level))
            .is_ok()
    };
    for hc in host_changes {
        out.push(hc.old_host);
        if exact(hc.subject, hc.level) {
            out.push(hc.subject);
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// One variant's observers, held directly so each call can be timed.
pub struct Bank {
    pub label: String,
    pub handoff: Box<dyn HandoffAccounting>,
    pub query: Option<Box<dyn QueryAccounting>>,
    pub handoff_secs: f64,
    pub query_secs: f64,
}

/// Counters read from the stage types after a replay.
#[derive(Default, Clone, Copy)]
pub struct StageCounts {
    pub edge_flips: u64,
    pub topology_rebuilds: u64,
    pub escalations: u64,
    pub resyncs: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub host_changes: u64,
    pub addr_changes: u64,
    pub bfs_sources: u64,
}

/// `MultiplexSim`'s tick rebuilt from public parts, every stage held
/// directly so its counters can be read.
pub struct Replay {
    cfg: SimConfig,
    ids: Vec<u64>,
    rtx: f64,
    mobility: Box<dyn MobilityModel>,
    topology: UnitDiskMaintainer,
    hier: HierarchyMaintainer,
    cache: LmCache,
    hierarchy: Hierarchy,
    book: AddressBook,
    book_next: AddressBook,
    assignment: LmAssignment,
    addr_scratch: Vec<NodeIdx>,
    h_spare: Option<Hierarchy>,
    arrivals: Vec<(NodeIdx, NodeIdx)>,
    ticks_done: usize,
    world_obs: chlm_sim::observe::WorldObservers,
    cost: Box<dyn CostModel>,
    collect_sources: bool,
    sources: Vec<NodeIdx>,
    pub banks: Vec<Bank>,
    pub counts: StageCounts,
    /// Cumulative stage counters at the end of set-up.
    counts_at_setup: StageCounts,
}

impl Replay {
    /// Deploy, warm up, build the initial hierarchy and assignment and
    /// calibrate — the steps of the simulator's world set-up, in its order
    /// and on its RNG forks. Every variant must price with one hop metric
    /// (one cost-model group), as every workload here does.
    pub fn new(base: &SimConfig, variants: &[VariantSpec]) -> Result<Replay, String> {
        let metric = variants.first().ok_or("no variants")?.hop_metric;
        if variants.iter().any(|v| v.hop_metric != metric) {
            return Err("the replay supports one hop metric per workload".into());
        }
        let cfg = base.clone();
        let rng = SimRng::seed_from(cfg.seed);
        let region = Disk::centered(cfg.region_radius());
        let rtx = cfg.rtx();
        let ids = rng.fork(1).permutation(cfg.n);
        let mut mob_rng = rng.fork(2);
        let mut mobility: Box<dyn MobilityModel> = match cfg.mobility {
            MobilityKind::Waypoint => Box::new(RandomWaypoint::deployed(
                region,
                cfg.n,
                cfg.speed,
                0.0,
                &mut mob_rng,
            )),
            MobilityKind::Walk => {
                Box::new(RandomWalk::deployed(region, cfg.n, cfg.speed, &mut mob_rng))
            }
            other => return Err(format!("the replay does not mirror {other:?}")),
        };
        let dt = cfg.tick();
        if cfg.warmup > 0.0 && cfg.speed > 0.0 {
            let steps = (cfg.warmup / dt).ceil() as usize;
            for _ in 0..steps {
                mobility.step(dt);
            }
        }
        let topology = UnitDiskMaintainer::new(mobility.positions(), rtx)
            .with_workers(WorkerPool::new(cfg.threads));
        let opts = HierarchyOptions {
            max_levels: cfg.max_levels,
            min_reduction: cfg.min_reduction,
        };
        let hier = HierarchyMaintainer::new(&ids, topology.graph(), opts);
        let hierarchy = hier.snapshot_into(None);
        let book = AddressBook::capture(&hierarchy);
        let mut cache = LmCache::new().with_workers(WorkerPool::new(cfg.threads));
        let assignment = LmAssignment::compute_cached_stamped(
            &hierarchy,
            &book,
            cfg.selection_rule,
            &mut cache,
            Some(hier.stamps()),
        );
        let calibration = calibrate(
            topology.graph(),
            mobility.positions(),
            rtx,
            12,
            &mut rng.fork(3),
        );
        let calibration = match metric {
            HopMetric::Euclidean(c) => c,
            _ => calibration,
        };
        let cost = cost_model_for(metric, calibration, cfg.threads);
        let world_obs = chlm_sim::observe::WorldObservers::new(&hierarchy);
        let banks = variants
            .iter()
            .map(|v| {
                let vcfg = v.apply(&cfg);
                Bank {
                    label: v.label.clone(),
                    handoff: make_accounting(&vcfg),
                    query: make_query_accounting(&vcfg),
                    handoff_secs: 0.0,
                    query_secs: 0.0,
                }
            })
            .collect();
        let collect_sources =
            metric == HopMetric::Bfs && variants.iter().any(|v| v.lm_scheme == LmScheme::Chlm);
        let book_next = book.clone();
        let counts_at_setup = StageCounts {
            escalations: hier.escalation_count(),
            resyncs: hier.resync_tick_count(),
            cache_hits: cache.hit_count(),
            cache_misses: cache.miss_count(),
            ..StageCounts::default()
        };
        Ok(Replay {
            cfg,
            ids,
            rtx,
            mobility,
            topology,
            hier,
            cache,
            hierarchy,
            book,
            book_next,
            assignment,
            addr_scratch: Vec::new(),
            h_spare: None,
            arrivals: Vec::new(),
            ticks_done: 0,
            world_obs,
            cost,
            collect_sources,
            sources: Vec::new(),
            banks,
            counts: StageCounts::default(),
            counts_at_setup,
        })
    }

    /// The current hierarchy snapshot.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// One tick, every layer call timed on `clock`. With `with_banks` off
    /// only the world stages run (the thread-scaling replay); the world
    /// trace they produce is the same.
    pub fn step(&mut self, clock: &mut Clock, with_banks: bool) {
        let dt = self.cfg.tick();
        clock.begin();
        self.mobility.step(dt);
        clock.lap(MOBILITY);
        fill_query_arrivals(&self.cfg, self.ticks_done, &mut self.arrivals);
        clock.lap(ARRIVALS);
        let positions = self.mobility.positions();
        if self.topology.advance(positions) {
            self.counts.topology_rebuilds += 1;
        }
        clock.lap(TOPOLOGY);
        let graph = self.topology.graph();
        let diff = self.topology.last_diff();
        let carcass = self.h_spare.take();
        self.hier.advance(graph, diff);
        let hierarchy = self.hier.snapshot_into(carcass);
        clock.lap(HIERARCHY);
        self.book_next
            .capture_into(&hierarchy, &mut self.addr_scratch);
        clock.lap(ADDRESS);
        let assignment = LmAssignment::compute_cached_stamped(
            &hierarchy,
            &self.book_next,
            self.cfg.selection_rule,
            &mut self.cache,
            Some(self.hier.stamps()),
        );
        clock.lap(ASSIGNMENT);
        let addr_changes = self.book.diff(&self.book_next);
        let host_changes = self.assignment.diff(&assignment);
        clock.lap(DIFF);
        self.counts.edge_flips += diff.map_or(0, <[_]>::len) as u64;
        self.counts.host_changes += host_changes.len() as u64;
        self.counts.addr_changes += addr_changes.len() as u64;

        if with_banks {
            let ctx = TickCtx {
                tick: self.ticks_done,
                dt,
                n: self.cfg.n,
                rtx: self.rtx,
                ids: &self.ids,
                positions,
                graph,
                old_hierarchy: &self.hierarchy,
                new_hierarchy: &hierarchy,
                old_book: &self.book,
                new_book: &self.book_next,
                old_assignment: &self.assignment,
                new_assignment: &assignment,
                host_changes: &host_changes,
                addr_changes: &addr_changes,
                query_arrivals: &self.arrivals,
            };
            clock.skip();
            self.world_obs.on_tick(&ctx);
            clock.lap(WORLD_OBS);
            self.sources.clear();
            if self.collect_sources {
                collect_chlm_bfs_sources(&host_changes, &addr_changes, &mut self.sources);
            }
            self.counts.bfs_sources += self.sources.len() as u64;
            let inputs = CostInputs {
                graph,
                positions,
                hierarchy: &hierarchy,
                rtx: self.rtx,
                sources: &self.sources,
            };
            clock.skip();
            let banks = &mut self.banks;
            let mut bank_clock = Clock::default();
            self.cost.with_pricer(&inputs, &mut |pricer| {
                bank_clock.skip();
                for bank in banks.iter_mut() {
                    let t0 = Instant::now();
                    bank.handoff.on_tick(&ctx, pricer);
                    let t1 = Instant::now();
                    bank.handoff_secs += (t1 - t0).as_secs_f64();
                    if let Some(query) = &mut bank.query {
                        query.on_tick(&ctx, pricer);
                        bank.query_secs += t1.elapsed().as_secs_f64();
                    }
                }
                bank_clock.lap(BANKS);
            });
            // `with_pricer`'s own time is what remains after the banks.
            clock.lap(PRICER);
            clock.secs[PRICER] -= bank_clock.secs[BANKS];
            clock.allocs[PRICER] = clock.allocs[PRICER].saturating_sub(bank_clock.allocs[BANKS]);
            clock.secs[BANKS] += bank_clock.secs[BANKS];
            clock.allocs[BANKS] += bank_clock.allocs[BANKS];
        }

        clock.skip();
        let old_h = std::mem::replace(&mut self.hierarchy, hierarchy);
        self.h_spare = Some(old_h);
        std::mem::swap(&mut self.book, &mut self.book_next);
        let old_assignment = std::mem::replace(&mut self.assignment, assignment);
        self.cache.recycle(old_assignment);
        self.ticks_done += 1;
        clock.end();
    }

    /// Read the stage types' own counters, net of set-up, into `counts`.
    fn finish_counts(&mut self) {
        let s = self.counts_at_setup;
        self.counts.escalations = self.hier.escalation_count() - s.escalations;
        self.counts.resyncs = self.hier.resync_tick_count() - s.resyncs;
        self.counts.cache_hits = self.cache.hit_count() - s.cache_hits;
        self.counts.cache_misses = self.cache.miss_count() - s.cache_misses;
    }
}

/// Records the hierarchy digest the untraced run produced at every tick,
/// and the time spent doing so (subtracted from the untraced tick time).
struct DigestObserver {
    log: Rc<RefCell<(Vec<u64>, f64)>>,
}

impl Observer for DigestObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        let t0 = Instant::now();
        let d = hierarchy_digest(ctx.new_hierarchy);
        let mut log = self.log.borrow_mut();
        log.0.push(d);
        log.1 += t0.elapsed().as_secs_f64();
    }
}

/// What one traced run measured.
pub struct Traced {
    pub metrics: Metrics,
    /// Ticks replayed.
    pub ticks: usize,
    /// Ticks counted as failed by the fidelity check.
    pub failed: usize,
    pub notes: Vec<String>,
}

/// Share of `seconds` the lockstep loop runs for; the rest covers set-up.
const LOOP_SHARE: f64 = 0.85;
/// Share of the loop during which the threads = 1 replay steps along.
const SCALING_SHARE: f64 = 0.35;

/// Step an untraced `MultiplexSim`, the traced replay and (when the
/// workload asks for thread scaling) a world-only traced replay at
/// threads = 1 in lockstep,
/// one tick each in turn, so all three run under the same cache and
/// allocator conditions. The replay must match the untraced run at every
/// tick; the threads = 1 replay steps only for the first part of the loop.
pub fn run(w: &Workload, seconds: f64) -> Result<Traced, String> {
    let log = Rc::new(RefCell::new((Vec::new(), 0.0)));
    let mut mx = MultiplexSim::new(&w.base, &w.variants);
    mx.add_observer(0, Box::new(DigestObserver { log: log.clone() }));
    let mut replay = Replay::new(&w.base, &w.variants)?;
    let mut single = if w.thread_scaling {
        let mut cfg1 = w.base.clone();
        cfg1.threads = 1;
        Some(Replay::new(&cfg1, &w.variants)?)
    } else {
        None
    };

    let mut clock = Clock::default();
    let mut t1_clock = Clock::default();
    let mut t2_at_scaling = None;
    let (mut step_secs, mut ticks, mut scaling_ticks) = (0.0, 0usize, 0usize);
    let mut problems = Vec::new();
    let start = Instant::now();
    while ticks < MIN_TICKS || start.elapsed().as_secs_f64() < seconds * LOOP_SHARE {
        let t0 = Instant::now();
        mx.step();
        step_secs += t0.elapsed().as_secs_f64();

        alloc::set_counting(true);
        replay.step(&mut clock, true);
        alloc::set_counting(false);
        let d = hierarchy_digest(replay.hierarchy());
        if problems.is_empty() && log.borrow().0.get(ticks) != Some(&d) {
            problems.push(format!("hierarchy digest differs at tick {ticks}"));
        }

        if let Some(s) = &mut single {
            s.step(&mut t1_clock, false);
            if problems.is_empty() && hierarchy_digest(s.hierarchy()) != d {
                problems.push(format!("threads = 1 hierarchy differs at tick {ticks}"));
            }
            scaling_ticks += 1;
            if start.elapsed().as_secs_f64() >= seconds * LOOP_SHARE * SCALING_SHARE {
                single = None;
                t2_at_scaling = Some(clock.clone());
            }
        }
        ticks += 1;
    }
    if single.is_some() {
        t2_at_scaling = Some(clock.clone());
    }
    let reports = mx.finish();
    let digest_secs = log.borrow().1;
    let untraced_tick = (step_secs - digest_secs) / ticks as f64;

    replay.finish_counts();
    for (bank, report) in replay.banks.iter_mut().zip(&reports) {
        let ledger: HandoffLedger = bank.handoff.take_ledger();
        if ledger != report.ledger {
            problems.push(format!("bank {}: handoff ledger differs", bank.label));
        }
        let stats: Option<QueryStats> = bank.query.as_mut().map(|q| q.take_stats());
        if stats != report.query {
            problems.push(format!("bank {}: query stats differ", bank.label));
        }
    }

    let mut scaling = [0.0; 3];
    if let Some(t2) = t2_at_scaling {
        for (i, layer) in [TOPOLOGY, HIERARCHY, ASSIGNMENT].into_iter().enumerate() {
            scaling[i] = t1_clock.secs[layer] / t2.secs[layer];
        }
    }

    let metrics = layer_metrics(&replay, &clock, &reports, ticks, untraced_tick, scaling);
    let mut notes = vec![format!(
        "traced {ticks} ticks (untraced {:.3} ms/tick, traced {:.3} ms/tick); \
         thread scaling over {scaling_ticks} ticks",
        untraced_tick * 1e3,
        clock.tick_secs / ticks as f64 * 1e3
    )];
    notes.extend(problems.iter().map(|p| format!("FAILED: {p}")));
    Ok(Traced {
        metrics,
        ticks,
        failed: if problems.is_empty() { 0 } else { ticks },
        notes,
    })
}

fn layer_metrics(
    replay: &Replay,
    clock: &Clock,
    reports: &[chlm_sim::SimReport],
    ticks: usize,
    untraced_tick: f64,
    scaling: [f64; 3],
) -> Metrics {
    let per_tick = |x: f64| x / ticks as f64;
    let ms = |layer: usize| per_tick(clock.secs[layer]) * 1e3;
    let c = &replay.counts;
    let mut m = Metrics::default();
    m.push("mobility.ms", ms(MOBILITY), "ms");
    m.push("arrivals.ms", ms(ARRIVALS), "ms");
    m.push("topology.ms", ms(TOPOLOGY), "ms");
    m.push(
        "topology.edge_flips",
        per_tick(c.edge_flips as f64),
        "count",
    );
    m.push(
        "topology.rebuilds",
        per_tick(c.topology_rebuilds as f64) * 100.0,
        "1/100tick",
    );
    m.push("hierarchy.ms", ms(HIERARCHY), "ms");
    m.push(
        "hierarchy.escalations",
        per_tick(c.escalations as f64),
        "count",
    );
    m.push("hierarchy.resyncs", per_tick(c.resyncs as f64), "count");
    m.push("address.ms", ms(ADDRESS), "ms");
    m.push("assignment.ms", ms(ASSIGNMENT), "ms");
    m.push(
        "assignment.misses",
        per_tick(c.cache_misses as f64),
        "count",
    );
    let lookups = c.cache_hits + c.cache_misses;
    m.push(
        "assignment.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            c.cache_hits as f64 / lookups as f64
        },
        "ratio",
    );
    m.push("diff.ms", ms(DIFF), "ms");
    m.push(
        "diff.host_changes",
        per_tick(c.host_changes as f64),
        "count",
    );
    m.push(
        "diff.addr_changes",
        per_tick(c.addr_changes as f64),
        "count",
    );
    m.push("world_obs.ms", ms(WORLD_OBS), "ms");
    m.push("pricer.setup_ms", ms(PRICER), "ms");
    m.push(
        "pricer.bfs_sources",
        per_tick(c.bfs_sources as f64),
        "count",
    );
    let (mut arrivals, mut unresolved, mut query_secs) = (0u64, 0u64, 0.0);
    for label in BANK_LABELS {
        let found = replay
            .banks
            .iter()
            .zip(reports)
            .find(|(b, _)| b.label == label);
        let (handoff, query, packets) = match found {
            Some((bank, report)) => {
                let mut packets: f64 = report
                    .ledger
                    .per_level
                    .iter()
                    .map(|l| l.total_packets())
                    .sum();
                if let Some(q) = &report.query {
                    packets += q.total_packets();
                    arrivals += q.arrivals;
                    unresolved += q.unresolved;
                    query_secs += bank.query_secs;
                }
                (bank.handoff_secs, bank.query_secs, packets)
            }
            None => (0.0, 0.0, 0.0),
        };
        m.push(
            format!("bank.{label}.handoff_ms"),
            per_tick(handoff) * 1e3,
            "ms",
        );
        m.push(
            format!("bank.{label}.query_ms"),
            per_tick(query) * 1e3,
            "ms",
        );
        m.push(format!("bank.{label}.packets"), per_tick(packets), "count");
    }
    m.push(
        "query.lookups_per_s",
        if query_secs > 0.0 {
            arrivals as f64 / query_secs
        } else {
            0.0
        },
        "1/s",
    );
    m.push(
        "query.unresolved_ratio",
        if arrivals > 0 {
            unresolved as f64 / arrivals as f64
        } else {
            0.0
        },
        "ratio",
    );
    for (i, layer) in LAYERS.iter().enumerate() {
        m.push(
            format!("{layer}.allocs"),
            per_tick(clock.allocs[i] as f64),
            "count",
        );
    }
    m.push("tick.allocs", per_tick(clock.tick_allocs as f64), "count");
    m.push("tick.alloc_bytes", per_tick(clock.tick_bytes as f64), "B");
    let traced_tick = per_tick(clock.tick_secs);
    m.push("tick.ms", traced_tick * 1e3, "ms");
    m.push("topology.t1_over_t2", scaling[0], "ratio");
    m.push("hierarchy.t1_over_t2", scaling[1], "ratio");
    m.push("assignment.t1_over_t2", scaling[2], "ratio");
    m.push("trace.overhead", traced_tick / untraced_tick - 1.0, "ratio");
    m.push(
        "trace.coverage",
        clock.secs.iter().sum::<f64>() / clock.tick_secs,
        "ratio",
    );
    m
}
