//! The static workload, `mst-wire`: ingest generated streams, then solve
//! the same clusters from scratch again and again.

use crate::gauge::Gauge;
use crate::layers::{median_time, SketchProbe, Tally, LAYER_METRICS};
use crate::oracle::Expected;
use crate::probe::{peak_rss_mb, timed, Cpu};
use crate::report::{median, tail, Report};
use crate::timeline::{drain, Log, StampSink};
use crate::{panic_text, Args};
use kconn::session::{Cluster, Mst, Problem as _, RunReport};
use kconn::MstConfig;
use kgraph::graph::Edge;
use kgraph::{generators, refalgo, stream, DynEdgeStream, Graph};
use kmachine::message::Encoding;
use kmachine::metrics::CommStats;
use kmachine::trace::Tracer;
use kmachine::transport::TransportSel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Ingests timed per graph when it is loaded, and again before each of
/// its end-to-end solves, for the median `setup_s`: the samples spread
/// over the run instead of bunching at its start.
const SETUP_REPS: usize = 2;
/// Timed calls per layer probe in the traced run.
const PROBE_REPS: usize = 5;
/// Graphs per run, each from its own seed derived from the run's seed.
const GRAPHS: usize = 3;

/// The `mst-wire` input: graph size, machine count and seed. The solve
/// settings are fixed in [`Cell::run`].
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    n: usize,
    m: usize,
    k: usize,
    seed: u64,
}

/// One timed `Cluster::run`.
struct Solve {
    start: Instant,
    wall: f64,
    cpu: Cpu,
    report: RunReport,
}

impl Cell {
    /// Mst on a random connected graph with weights in [1, 10⁶], contracted
    /// and varint-coded, over real worker processes.
    pub fn mst_wire(seed: u64) -> Cell {
        Cell {
            n: 25_000,
            m: 25_000 - 1 + 37_500,
            k: 4,
            seed,
        }
    }

    fn stream(&self) -> DynEdgeStream {
        generators::weighted_stream(
            generators::random_connected_stream(self.n, self.m - (self.n - 1), self.seed),
            1_000_000,
            self.seed ^ 0x5EED_0F3E,
        )
    }

    fn ingest(&self) -> Cluster {
        Cluster::builder(self.k)
            .seed(self.seed)
            .ingest_stream(self.stream())
    }

    fn run(
        &self,
        cluster: &Cluster,
        transport: TransportSel,
        trace: Tracer,
    ) -> (RunReport, Vec<Edge>) {
        let run = cluster.run(Mst::with(MstConfig {
            transport,
            contract: true,
            encoding: Encoding::Varint,
            trace,
            ..MstConfig::default()
        }));
        (run.report, run.output.edges)
    }

    /// One timed solve, checked against the oracle; a panic, a wrong answer
    /// or a worker restart is a failed operation.
    fn solve(
        &self,
        r: &mut Report,
        cluster: &Cluster,
        expected: &Expected,
        transport: TransportSel,
        trace: Tracer,
    ) -> Option<Solve> {
        let cpu0 = Cpu::now();
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| self.run(cluster, transport, trace)));
        let wall = t0.elapsed().as_secs_f64();
        let cpu = Cpu::now().since(cpu0);
        match out {
            Err(p) => {
                r.check(Err(format!("solve panicked: {}", panic_text(&*p))));
                None
            }
            Ok((report, forest)) => {
                // No run injects faults, so any crash the ledger counts is
                // a transport worker restart.
                r.check(expected.check_forest(&forest).and_then(|()| {
                    match report.stats.machine_crashes {
                        0 => Ok(()),
                        c => Err(format!("{c} transport worker restarts during a solve")),
                    }
                }));
                Some(Solve {
                    start: t0,
                    wall,
                    cpu,
                    report,
                })
            }
        }
    }

    /// The cell's graphs: [`GRAPHS`] seeds derived from the run's seed,
    /// so one run averages over several inputs of the same family.
    fn graphs(&self) -> Vec<Cell> {
        (0..GRAPHS as u64)
            .map(|i| Cell {
                seed: self.seed.wrapping_mul(GRAPHS as u64).wrapping_add(i),
                ..*self
            })
            .collect()
    }

    /// Materializes the graph for the oracle, then ingests it `reps`
    /// times (keeping the last cluster).
    fn load(&self, reps: usize, setups: &mut Vec<f64>) -> Loaded {
        let graph = stream::materialize(self.stream());
        let mut l = Loaded {
            cell: *self,
            cluster: None,
            expected: Expected::of(&graph),
            graph,
        };
        for _ in 0..reps {
            l.reingest(setups);
        }
        l
    }

    /// The end-to-end run, tracing off throughout: rounds over every
    /// graph until `--seconds` is spent, with a gauge sample before each
    /// solve.
    pub fn end_to_end(&self, args: &Args, started: Instant) -> Report {
        let mut r = Report::default();
        let mut setups = Vec::new();
        let mut loaded: Vec<Loaded> = self
            .graphs()
            .iter()
            .map(|c| c.load(SETUP_REPS, &mut setups))
            .collect();
        let mut solves: Vec<Solve> = Vec::new();
        let mut gauge = Gauge::new();
        while solves.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
            for l in &mut loaded {
                for _ in 0..SETUP_REPS {
                    l.reingest(&mut setups);
                }
                gauge.sample();
                let Some(s) = l.solve(&mut r, TransportSel::Proc, Tracer::off()) else {
                    return r;
                };
                solves.push(s);
            }
        }
        let walls: Vec<f64> = solves.iter().map(|s| s.wall).collect();
        let total: f64 = walls.iter().sum();
        let count = solves.len() as f64;
        // The ledger is deterministic: the first round over the graphs.
        let ledger = |f: fn(&CommStats) -> u64| {
            solves[..GRAPHS]
                .iter()
                .map(|s| f(&s.report.stats))
                .sum::<u64>() as f64
                / GRAPHS as f64
        };
        r.put("setup_s", median(&setups), "s");
        r.put("solve_s", median(&walls), "s");
        r.put("edges_per_s", self.m as f64 * count / total, "1/s");
        let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        r.put("batch_p50_ms", median(&ms), "ms");
        let (label, p90) = tail(&ms, 90);
        r.put("batch_p90_ms", p90, "ms");
        r.put("ops_per_s", count / total, "1/s");
        r.put(
            "cpu_s",
            solves.iter().map(|s| s.cpu.total()).sum::<f64>() / count,
            "s",
        );
        r.put("peak_rss_mb", peak_rss_mb(), "MiB");
        r.put("rounds", ledger(|s| s.rounds), "count");
        r.put("total_bits", ledger(|s| s.total_bits), "bit");
        gauge.apply(&mut r);
        r.note(format!(
            "{} solves over {GRAPHS} graphs of n={} m={}, k={} ({}); setup_s is the median of \
             {} ingests; a static batch is one full solve, batch_p90_ms is the \
             {label}; rounds and total_bits are means over the graphs; peak_rss_mb excludes \
             transport worker processes",
            solves.len(),
            self.n,
            self.m,
            self.k,
            TransportSel::Proc.name(),
            setups.len(),
        ));
        r
    }

    /// The traced run: per-layer metrics from timed calls into each layer
    /// (on the first graph) and from stamped traced solves interleaved
    /// with untraced ones, over every graph in turn.
    pub fn traced(&self, args: &Args, started: Instant) -> Report {
        let mut r = Report::default();
        let cells = self.graphs();
        let gen_s = median_time(PROBE_REPS, || cells[0].stream().count());
        let mut setups = Vec::new();
        let loaded: Vec<Loaded> = cells
            .iter()
            .map(|c| c.load(PROBE_REPS, &mut setups))
            .collect();
        let oracle_s = median_time(PROBE_REPS, || refalgo::kruskal(&loaded[0].graph).len());
        let sketch = SketchProbe::run(&loaded[0].graph, cells[0].seed);

        let mut plain: Vec<Solve> = Vec::new();
        let mut traced: Vec<Solve> = Vec::new();
        let mut tally = Tally::default();
        let log: Log = Log::default();
        let mut pair = 0;
        while pair < GRAPHS || started.elapsed().as_secs_f64() < args.seconds {
            let l = &loaded[pair % GRAPHS];
            // Alternate which side of the pair runs first.
            for traced_side in [pair % 2 == 1, pair % 2 == 0] {
                if traced_side {
                    let tracer = Tracer::to_sink(Box::new(StampSink(log.clone())));
                    let Some(s) = l.solve(&mut r, TransportSel::Proc, tracer) else {
                        return r;
                    };
                    let records = drain(&log);
                    r.check(
                        tally
                            .add(s.start, s.wall, &records)
                            .map_err(|e| format!("tiling: {e}")),
                    );
                    traced.push(s);
                } else {
                    let Some(s) = l.solve(&mut r, TransportSel::Proc, Tracer::off()) else {
                        return r;
                    };
                    plain.push(s);
                }
            }
            pair += 1;
        }
        let plain_walls: Vec<f64> = plain.iter().map(|s| s.wall).collect();
        let solve_s = median(&plain_walls);
        let count = plain.len() as f64;
        let cpu_user: f64 = plain.iter().map(|s| s.cpu.user).sum::<f64>() / count;
        let cpu_sys: f64 = plain.iter().map(|s| s.cpu.sys).sum::<f64>() / count;
        let mean_bits = plain.iter().map(|s| s.report.stats.total_bits).sum::<u64>() as f64 / count;

        r.put("kgraph.gen_s", gen_s, "s");
        r.put("kgraph.shard_s", median(&setups[..PROBE_REPS]) - gen_s, "s");
        r.put("kgraph.oracle_s", oracle_s, "s");
        r.put("vs_oracle_x", solve_s / oracle_s, "x");
        tally.put(&mut r, solve_s, mean_bits, true);
        sketch.put(&mut r);
        r.put("par.cpu_util", (cpu_user + cpu_sys) / solve_s, "ratio");
        r.put(
            "par.sys_share",
            cpu_sys / (cpu_user + cpu_sys).max(f64::MIN_POSITIVE),
            "ratio",
        );
        // Untraced solve `p` ran on graph `p % GRAPHS`.
        let first: Vec<f64> = plain.iter().step_by(GRAPHS).map(|s| s.wall).collect();
        loaded[0].compare_with_sim(&mut r, &plain[0].report.stats, median(&first));
        r.check(if tally.worker_restarts == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} transport worker restarts",
                tally.worker_restarts
            ))
        });
        for &(name, unit) in LAYER_METRICS.iter().filter(|(n, _)| n.starts_with("dyn.")) {
            r.absent(
                name,
                unit,
                "static workload: the dynamic layer does not run",
            );
        }
        r.put(
            "trace.overhead_x",
            median(&traced.iter().map(|s| s.wall).collect::<Vec<_>>()) / solve_s,
            "x",
        );
        r.note(format!(
            "{} untraced and {} traced solves over {GRAPHS} graphs; rates are per untraced \
             solve_s {solve_s:.4} s; kgraph.* and ksketch.*_ns probe the first graph; \
             ksketch counters come from PhaseEnd events",
            plain.len(),
            traced.len()
        ));
        r
    }
}

/// One ingested graph with its oracle answers.
struct Loaded {
    cell: Cell,
    /// The last ingest's cluster (`None` only while loading).
    cluster: Option<Cluster>,
    expected: Expected,
    graph: Graph,
}

impl Loaded {
    /// Drops the cluster and ingests the graph again, timed.
    fn reingest(&mut self, setups: &mut Vec<f64>) {
        drop(self.cluster.take());
        let (c, s) = timed(|| self.cell.ingest());
        setups.push(s);
        self.cluster = Some(c);
    }

    fn solve(&self, r: &mut Report, transport: TransportSel, trace: Tracer) -> Option<Solve> {
        let cluster = self.cluster.as_ref().expect("a loaded graph has a cluster");
        self.cell
            .solve(r, cluster, &self.expected, transport, trace)
    }

    /// Re-runs the first proc solve's graph on the sim transport: its
    /// ledger must equal the proc run's exactly.
    fn compare_with_sim(&self, r: &mut Report, proc_stats: &CommStats, proc_s: f64) {
        let mut sim = Vec::new();
        for _ in 0..2 {
            let Some(s) = self.solve(r, TransportSel::Sim, Tracer::off()) else {
                return;
            };
            r.check(
                if format!("{:?}", s.report.stats) == format!("{proc_stats:?}") {
                    Ok(())
                } else {
                    Err("proc and sim CommStats differ".into())
                },
            );
            sim.push(s.wall);
        }
        r.put("transport.proc_over_sim_x", proc_s / median(&sim), "x");
        r.note(format!(
            "transport.proc_over_sim_x has base sim solve {:.4} s",
            median(&sim)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mst_cell_streams_the_stated_size_and_weights() {
        let c = Cell {
            n: 300,
            m: 299 + 200,
            ..Cell::mst_wire(4)
        };
        let g = stream::materialize(c.stream());
        assert_eq!((g.n(), g.m()), (300, 499));
        assert!(refalgo::is_connected(&g));
        assert!(g.edges().iter().all(|e| (1..=1_000_000).contains(&e.w)));
    }
}
