//! The `dyn-churn` workload: a live `DynamicCluster` replays a churn
//! stream of small update batches, refreshing Connectivity and Mst after
//! every batch, against a fresh solve of the same mutated graph.

use crate::gauge::Gauge;
use crate::layers::{SketchProbe, Tally};
use crate::oracle::Expected;
use crate::probe::{peak_rss_mb, timed, Cpu};
use crate::report::{median, tail, Report};
use crate::timeline::{drain, Log, StampSink};
use crate::{panic_text, Args};
use kbench::dynamic::{DynScenario, Profile};
use kconn::dynamic::{DynConfig, DynamicCluster, RefreshKind, UpdateBatch};
use kconn::session::{Cluster, Connectivity, Mst, Problem as _};
use kconn::{ConnectivityConfig, MstConfig};
use kgraph::graph::Edge;
use kgraph::{refalgo, Graph};
use kmachine::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Independent update streams a run draws on, each on its own base graph.
const STREAMS: usize = 24;
/// Batches per stream. Components coalesce as a stream goes on, so later
/// batches touch more vertices and cost more; short streams keep one
/// stream's merges from dominating a run.
const BATCHES: usize = 8;
/// Every this many streams, the mutated graph after the last batch is
/// also solved from scratch.
const FRESH_EVERY: usize = 3;
/// Streams the end-to-end run replays at least: their batches leave ten
/// beyond p90 (13 × 8 = 104).
const MIN_STREAMS: usize = 13;
/// Streams the traced run replays at least, however short `--seconds`:
/// two of them end with a fresh solve.
const MIN_TRACED_STREAMS: usize = FRESH_EVERY + 1;

/// The configs of one live cluster: the update layer's and the two
/// refreshes'. Traced, all three share one tracer.
#[derive(Clone, Default)]
struct Configs {
    dyn_cfg: DynConfig,
    conn: ConnectivityConfig,
    mst: MstConfig,
}

impl Configs {
    fn traced(tracer: &Tracer) -> Configs {
        Configs {
            dyn_cfg: DynConfig {
                trace: tracer.clone(),
                ..DynConfig::default()
            },
            conn: ConnectivityConfig {
                trace: tracer.clone(),
                ..ConnectivityConfig::default()
            },
            mst: MstConfig {
                trace: tracer.clone(),
                ..MstConfig::default()
            },
        }
    }
}

/// One replayed batch.
#[derive(Clone, Copy, Debug, Default)]
struct Batch {
    apply_s: f64,
    conn_s: f64,
    mst_s: f64,
    cpu: Cpu,
    rounds: u64,
    bits: u64,
    update_bits: u64,
}

impl Batch {
    fn wall(&self) -> f64 {
        self.apply_s + self.conn_s + self.mst_s
    }
}

/// One fresh solve of a mutated graph, for comparison.
#[derive(Clone, Copy, Debug)]
struct Fresh {
    /// The batch (0-based) after which it ran.
    after: usize,
    m: usize,
    ingest_s: f64,
    /// Connectivity plus Mst `Cluster::run` wall.
    solve_s: f64,
    oracle_s: f64,
}

/// Everything one replay measured.
#[derive(Default)]
struct Replay {
    setup_s: f64,
    ops: usize,
    batches: Vec<Batch>,
    fresh: Vec<Fresh>,
    refreshes: Vec<RefreshKind>,
}

/// One update stream: a planted base graph and its batches.
struct Stream {
    /// Whether an untraced replay ends with a fresh solve.
    fresh: bool,
    scenario: DynScenario,
    base: Graph,
    trace: Vec<UpdateBatch>,
}

impl Stream {
    fn new(seed: u64, fresh: bool) -> Stream {
        let scenario = DynScenario {
            id: format!("dyn-churn/seed{seed}"),
            n: 8_000,
            parts: 64,
            k: 8,
            seed,
            profile: Profile::Churn,
            batches: BATCHES,
            batch_ops: 8,
        };
        Stream {
            fresh,
            base: scenario.base(),
            trace: scenario.trace(),
            scenario,
        }
    }

    fn cluster(&self) -> Cluster {
        Cluster::builder(self.scenario.k)
            .seed(self.scenario.seed)
            .ingest_graph(&self.base)
    }

    /// Set-up: ingest, wrap, and the first Connectivity and Mst solves,
    /// checked against the oracle on the base graph.
    fn setup(
        &self,
        r: &mut Report,
        cfg: &Configs,
        expected: &Expected,
    ) -> Option<(DynamicCluster, f64)> {
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            let mut dc = DynamicCluster::wrap(self.cluster(), cfg.dyn_cfg.clone());
            let conn = dc.connectivity(&cfg.conn).output.labels;
            let mst = dc.mst(&cfg.mst).output.edges;
            (dc, conn, mst)
        }));
        let wall = t0.elapsed().as_secs_f64();
        match out {
            Err(p) => {
                r.check(Err(format!("set-up panicked: {}", panic_text(&*p))));
                None
            }
            Ok((dc, conn, mst)) => {
                r.check(check_both(expected, &conn, &mst).map_err(|e| format!("set-up: {e}")));
                Some((dc, wall))
            }
        }
    }

    /// Replays the whole stream on a freshly set-up cluster. When `traced`
    /// is given, its log is drained after every batch into its tally; when
    /// `gauge` is, it is sampled before the set-up and halfway through.
    fn replay(
        &self,
        r: &mut Report,
        cfg: &Configs,
        traced: Option<(&Log, &mut Tally)>,
        mut gauge: Option<&mut Gauge>,
    ) -> Option<Replay> {
        let expected_base = Expected::of(&self.base);
        if let Some(g) = gauge.as_mut() {
            g.sample();
        }
        let (mut dc, setup_s) = self.setup(r, cfg, &expected_base)?;
        let fresh_at_end = self.fresh && traced.is_none();
        let mut tracing = traced;
        if let Some((log, _)) = &tracing {
            drain(log);
        }
        let n = self.scenario.n;
        let mut edges: Vec<Edge> = self.base.edges().to_vec();
        let mut out = Replay {
            setup_s,
            ..Replay::default()
        };
        for (i, batch) in self.trace.iter().enumerate() {
            if i == BATCHES / 2 {
                if let Some(g) = gauge.as_mut() {
                    g.sample();
                }
            }
            let cpu0 = Cpu::now();
            let t0 = Instant::now();
            let step = catch_unwind(AssertUnwindSafe(|| {
                let upd = dc.apply(batch);
                let t1 = Instant::now();
                let upd = upd.map_err(|e| format!("batch {i}: update error: {e}"))?;
                let conn = dc.connectivity(&cfg.conn);
                let conn_kind = dc.last_refresh();
                let t2 = Instant::now();
                let mst = dc.mst(&cfg.mst);
                let mst_kind = dc.last_refresh();
                let t3 = Instant::now();
                Ok::<_, String>((upd, conn, conn_kind, mst, mst_kind, [t1, t2, t3]))
            }));
            let end = Instant::now();
            let cpu = Cpu::now().since(cpu0);
            let (upd, conn, conn_kind, mst, mst_kind, [t1, t2, t3]) = match step {
                Err(p) => {
                    r.check(Err(format!("batch {i} panicked: {}", panic_text(&*p))));
                    return None;
                }
                Ok(Err(e)) => {
                    r.check(Err(e));
                    return None;
                }
                Ok(Ok(v)) => v,
            };
            if let Some((log, tally)) = &mut tracing {
                let records = drain(log);
                let wall = (end - t0).as_secs_f64();
                r.check(
                    tally
                        .add(t0, wall, &records)
                        .map_err(|e| format!("batch {i} tiling: {e}")),
                );
            }
            if let Err(e) = batch.apply_to_edge_list(n, &mut edges) {
                r.check(Err(format!(
                    "batch {i}: oracle edge list rejects the batch: {e}"
                )));
                return None;
            }
            let g = Graph::from_dedup_edges(n, edges.clone());
            let expected = Expected::of(&g);
            r.check(
                check_both(&expected, &conn.output.labels, &mst.output.edges)
                    .map_err(|e| format!("batch {i}: {e}")),
            );
            out.refreshes.extend([conn_kind, mst_kind]);
            out.ops += batch.len();
            out.batches.push(Batch {
                apply_s: (t1 - t0).as_secs_f64(),
                conn_s: (t2 - t1).as_secs_f64(),
                mst_s: (t3 - t2).as_secs_f64(),
                cpu,
                rounds: upd.rounds + conn.report.stats.rounds + mst.report.stats.rounds,
                bits: upd.bits + conn.report.stats.total_bits + mst.report.stats.total_bits,
                update_bits: upd.bits,
            });
            if fresh_at_end && i + 1 == self.trace.len() {
                out.fresh.push(self.fresh(r, i, &g, &expected)?);
            }
        }
        Some(out)
    }

    /// Ingests the mutated graph into a new cluster and solves it from
    /// scratch, untraced, checked like every other answer.
    fn fresh(&self, r: &mut Report, after: usize, g: &Graph, expected: &Expected) -> Option<Fresh> {
        let out = catch_unwind(AssertUnwindSafe(|| {
            let (cluster, ingest_s) = timed(|| {
                Cluster::builder(self.scenario.k)
                    .seed(self.scenario.seed)
                    .ingest_graph(g)
            });
            let t0 = Instant::now();
            let conn = cluster.run(Connectivity::with(ConnectivityConfig::default()));
            let mst = cluster.run(Mst::with(MstConfig::default()));
            let solve_s = t0.elapsed().as_secs_f64();
            (ingest_s, solve_s, conn.output.labels, mst.output.edges)
        }));
        let (ingest_s, solve_s, conn, mst) = match out {
            Err(p) => {
                r.check(Err(format!("fresh solve panicked: {}", panic_text(&*p))));
                return None;
            }
            Ok(v) => v,
        };
        r.check(
            check_both(expected, &conn, &mst)
                .map_err(|e| format!("fresh solve after batch {after}: {e}")),
        );
        let (_, oracle_s) = timed(|| (refalgo::connected_components(g), refalgo::kruskal(g)));
        Some(Fresh {
            after,
            m: g.m(),
            ingest_s,
            solve_s,
            oracle_s,
        })
    }
}

/// The workload: [`STREAMS`] independent streams derived from the seed.
pub struct Churn {
    streams: Vec<Stream>,
}

impl Churn {
    pub fn new(seed: u64) -> Churn {
        Churn {
            streams: (0..STREAMS as u64)
                .map(|i| {
                    let fresh = (i as usize).is_multiple_of(FRESH_EVERY);
                    Stream::new(seed.wrapping_mul(STREAMS as u64).wrapping_add(i), fresh)
                })
                .collect(),
        }
    }

    /// The end-to-end run, tracing off throughout, in two passes over the
    /// same streams. The first replays streams in turn until half of
    /// `--seconds` is spent (at least [`MIN_STREAMS`]); the second replays
    /// them again. A batch's time is the faster of its two replays: both
    /// do identical work on identical state, so the slower one carries
    /// host interference, not the program's cost.
    pub fn end_to_end(&self, args: &Args, started: Instant) -> Report {
        let mut r = Report::default();
        let cfg = Configs::default();
        let mut gauge = Gauge::new();
        let mut first: Vec<Replay> = Vec::new();
        while first.len() < MIN_STREAMS
            || (first.len() < STREAMS && started.elapsed().as_secs_f64() < args.seconds / 2.0)
        {
            let stream = &self.streams[first.len()];
            let Some(rep) = stream.replay(&mut r, &cfg, None, Some(&mut gauge)) else {
                return r;
            };
            first.push(rep);
        }
        let mut second: Vec<Replay> = Vec::new();
        for stream in &self.streams[..first.len()] {
            let Some(rep) = stream.replay(&mut r, &cfg, None, Some(&mut gauge)) else {
                return r;
            };
            second.push(rep);
        }
        let ledger_of = |p: &Replay| -> Vec<(u64, u64)> {
            p.batches.iter().map(|b| (b.rounds, b.bits)).collect()
        };
        r.check(
            if first.iter().map(ledger_of).eq(second.iter().map(ledger_of)) {
                Ok(())
            } else {
                Err("the two passes charged different ledgers".into())
            },
        );
        let replays: Vec<&Replay> = first.iter().chain(&second).collect();
        let setups: Vec<f64> = replays.iter().map(|p| p.setup_s).collect();
        let batches: Vec<Batch> = replays
            .iter()
            .flat_map(|p| p.batches.iter().copied())
            .collect();
        let fresh: Vec<Fresh> = replays
            .iter()
            .flat_map(|p| p.fresh.iter().copied())
            .collect();
        let walls: Vec<f64> = first
            .iter()
            .zip(&second)
            .flat_map(|(a, b)| a.batches.iter().zip(&b.batches))
            .map(|(a, b)| a.wall().min(b.wall()))
            .collect();
        let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        let batch_total: f64 = walls.iter().sum();
        let fresh_walls: Vec<f64> = fresh.iter().map(|f| f.solve_s).collect();
        let fresh_total: f64 = fresh_walls.iter().sum();
        let ops: usize = first.iter().map(|p| p.ops).sum();
        // The ledger is deterministic: the first MIN_STREAMS streams.
        let ledger: Vec<Batch> = first[..MIN_STREAMS]
            .iter()
            .flat_map(|p| p.batches.iter().copied())
            .collect();
        let per_batch =
            |f: fn(&Batch) -> u64| ledger.iter().map(f).sum::<u64>() as f64 / ledger.len() as f64;

        r.put("setup_s", median(&setups), "s");
        r.put("solve_s", median(&fresh_walls), "s");
        r.put(
            "edges_per_s",
            fresh.iter().map(|f| f.m as f64).sum::<f64>() * 2.0 / fresh_total,
            "1/s",
        );
        r.put("batch_p50_ms", median(&ms), "ms");
        let (label, p90) = tail(&ms, 90);
        r.put("batch_p90_ms", p90, "ms");
        r.put("ops_per_s", ops as f64 / batch_total, "1/s");
        r.put(
            "cpu_s",
            batches.iter().map(|b| b.cpu.total()).sum::<f64>() / batches.len() as f64,
            "s",
        );
        r.put("peak_rss_mb", peak_rss_mb(), "MiB");
        r.put("rounds", per_batch(|b| b.rounds), "count");
        r.put("total_bits", per_batch(|b| b.bits), "bit");
        gauge.apply(&mut r);
        r.note(format!(
            "{} streams of {BATCHES} batches of 8 ops on n=8000 k=8, each stream replayed \
             twice; a batch's time is the faster of its two replays, batch_p90_ms is the \
             {label} batches and ops_per_s divides by the sum of those times; cpu_s is the \
             mean over all {} replayed batches; setup_s is the median of {} set-ups; solve_s \
             is the median of {} fresh Connectivity+Mst solves (edges_per_s counts m twice \
             per pair); rounds and total_bits are means per batch over the first {} batches; \
             peak_rss_mb is this process",
            first.len(),
            batches.len(),
            setups.len(),
            fresh.len(),
            ledger.len(),
        ));
        r
    }

    /// The traced run: streams in turn, each replayed untraced (the layer
    /// timings and the fresh-solve comparison) and traced, alternating
    /// which goes first, until `--seconds` is spent or every stream has
    /// run (at least [`MIN_TRACED_STREAMS`]).
    pub fn traced(&self, args: &Args, started: Instant) -> Report {
        let mut r = Report::default();
        let first = &self.streams[0];
        let (_, gen_s) = timed(|| first.scenario.base());
        let (_, shard_s) = timed(|| first.cluster());
        let sketch = SketchProbe::run(&first.base, first.scenario.seed);
        let log = Log::default();
        let tracer = Tracer::to_sink(Box::new(StampSink(log.clone())));
        let traced_cfg = Configs::traced(&tracer);
        let mut tally = Tally::default();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for (i, stream) in self.streams.iter().enumerate() {
            if i >= MIN_TRACED_STREAMS && started.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
            for traced_side in [i % 2 == 1, i % 2 == 0] {
                let rep = if traced_side {
                    stream.replay(&mut r, &traced_cfg, Some((&log, &mut tally)), None)
                } else {
                    stream.replay(&mut r, &Configs::default(), None, None)
                };
                let Some(rep) = rep else {
                    return r;
                };
                if traced_side {
                    traced.push(rep);
                } else {
                    plain.push(rep);
                }
            }
        }
        let batches: Vec<Batch> = plain
            .iter()
            .flat_map(|p| p.batches.iter().copied())
            .collect();
        let fresh: Vec<Fresh> = plain.iter().flat_map(|p| p.fresh.iter().copied()).collect();
        let refreshes: Vec<RefreshKind> = plain
            .iter()
            .flat_map(|p| p.refreshes.iter().copied())
            .collect();
        let n = first.scenario.n as f64;
        let count = batches.len() as f64;
        let total = |reps: &[Replay]| {
            reps.iter()
                .flat_map(|p| &p.batches)
                .map(Batch::wall)
                .sum::<f64>()
        };
        let batch_s = median(&batches.iter().map(Batch::wall).collect::<Vec<_>>());
        let fresh_solve = median(&fresh.iter().map(|f| f.solve_s).collect::<Vec<_>>());
        let oracle_s = median(&fresh.iter().map(|f| f.oracle_s).collect::<Vec<_>>());
        let mean_bits = batches.iter().map(|b| b.bits).sum::<u64>() as f64 / count;

        r.put("kgraph.gen_s", gen_s, "s");
        r.put("kgraph.shard_s", shard_s, "s");
        r.put("kgraph.oracle_s", oracle_s, "s");
        r.put("vs_oracle_x", fresh_solve / oracle_s, "x");
        tally.put(&mut r, batch_s, mean_bits, false);
        sketch.put(&mut r);
        let user: f64 = batches.iter().map(|b| b.cpu.user).sum::<f64>();
        let sys: f64 = batches.iter().map(|b| b.cpu.sys).sum::<f64>();
        r.put("par.cpu_util", (user + sys) / total(&plain), "ratio");
        r.put(
            "par.sys_share",
            sys / (user + sys).max(f64::MIN_POSITIVE),
            "ratio",
        );

        let ms =
            |f: fn(&Batch) -> f64| median(&batches.iter().map(|b| f(b) * 1e3).collect::<Vec<_>>());
        r.put("dyn.apply_ms", ms(|b| b.apply_s), "ms");
        r.put("dyn.conn_refresh_ms", ms(|b| b.conn_s), "ms");
        r.put("dyn.mst_refresh_ms", ms(|b| b.mst_s), "ms");
        let active: Vec<f64> = refreshes
            .iter()
            .filter_map(|k| match k {
                RefreshKind::Incremental { active_vertices } => Some(*active_vertices as f64 / n),
                _ => None,
            })
            .collect();
        if active.is_empty() {
            r.absent("dyn.active_share", "ratio", "no refresh was incremental");
        } else {
            r.put(
                "dyn.active_share",
                active.iter().sum::<f64>() / active.len() as f64,
                "ratio",
            );
        }
        let kinds =
            |want: fn(&RefreshKind) -> bool| refreshes.iter().filter(|k| want(k)).count() as f64;
        r.put(
            "dyn.refresh_cached",
            kinds(|k| *k == RefreshKind::Cached),
            "count",
        );
        r.put(
            "dyn.refresh_incremental",
            kinds(|k| matches!(k, RefreshKind::Incremental { .. })),
            "count",
        );
        r.put(
            "dyn.refresh_full",
            kinds(|k| *k == RefreshKind::Full),
            "count",
        );
        r.put("dyn.escalations", tally.escalations as f64, "count");
        r.put(
            "dyn.update_bits",
            batches.iter().map(|b| b.update_bits).sum::<u64>() as f64 / count,
            "bit",
        );
        let sampled: f64 = plain
            .iter()
            .flat_map(|p| p.fresh.iter().map(|f| p.batches[f.after].wall()))
            .sum();
        let full: f64 = fresh.iter().map(|f| f.ingest_s + f.solve_s).sum();
        r.put("dyn.incremental_over_full_x", sampled / full, "x");
        r.put("trace.overhead_x", total(&traced) / total(&plain), "x");
        r.note(format!(
            "{} of {STREAMS} streams replayed; per-layer units are batches ({} untraced, {} \
             traced); dyn.refresh_* count over the untraced batches and dyn.escalations over \
             the traced ones; dyn.* timings are p50 of the untraced replays; dyn.active_share \
             is the mean over {} incremental refreshes of active vertices / n; dyn.incremental_over_full_x has base fresh ingest + \
             Connectivity + Mst at {} sampled batches; vs_oracle_x is fresh Connectivity+Mst \
             over union-find + Kruskal; kgraph.gen_s generates one base graph and \
             kgraph.shard_s ingests it; ksketch counters come from PhaseEnd events",
            plain.len(),
            batches.len(),
            traced.iter().map(|p| p.batches.len()).sum::<usize>(),
            active.len(),
            fresh.len(),
        ));
        r
    }
}

fn check_both(expected: &Expected, labels: &[u64], forest: &[Edge]) -> Result<(), String> {
    expected.check_partition(labels)?;
    expected.check_forest(forest)
}
