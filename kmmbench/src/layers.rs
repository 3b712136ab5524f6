//! Per-layer measurements: counts and busy times folded from the stamped
//! trace of each traced solve or batch, plus direct probes of the graph
//! and sketch layers' public functions.

use crate::probe::timed;
use crate::report::{median, tail, Report};
use crate::timeline::{logical_since, secs_between, tile, RowKind, Stamped};
use kgraph::Graph;
use kmachine::trace::{phase_breakdown, PhysEvent, TraceEvent, TraceRecord};
use krand::SharedRandomness;
use ksketch::l0::{L0Sketch, SketchFns, SketchParams};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in report order
/// (`BENCHMARK.json` lists the same).
pub const LAYER_METRICS: [(&str, &str); 43] = [
    ("kgraph.gen_s", "s"),
    ("kgraph.shard_s", "s"),
    ("kgraph.oracle_s", "s"),
    ("vs_oracle_x", "x"),
    ("ksketch.builds", "count"),
    ("ksketch.cache_hits", "count"),
    ("ksketch.hit_ratio", "ratio"),
    ("ksketch.build_ns_per_incidence", "ns"),
    ("ksketch.query_ns", "ns"),
    ("engine.phases", "count"),
    ("engine.phase_wall_s", "s"),
    ("engine.slowest_phase_s", "s"),
    ("engine.segment_s", "s"),
    ("engine.unattributed_share", "ratio"),
    ("bsp.supersteps", "count"),
    ("bsp.messages", "count"),
    ("bsp.max_link_bits", "bit"),
    ("bsp.messages_per_s", "1/s"),
    ("bsp.step_gap_p50_ms", "ms"),
    ("bsp.step_gap_p99_ms", "ms"),
    ("par.cpu_util", "ratio"),
    ("par.sys_share", "ratio"),
    ("transport.exchange_s", "s"),
    ("transport.exchange_share", "ratio"),
    ("transport.windows", "count"),
    ("transport.attempts", "count"),
    ("transport.frames", "count"),
    ("transport.payload_bytes", "byte"),
    ("transport.wire_bytes_per_charged_byte", "x"),
    ("transport.worker_restarts", "count"),
    ("transport.proc_over_sim_x", "x"),
    ("dyn.apply_ms", "ms"),
    ("dyn.conn_refresh_ms", "ms"),
    ("dyn.mst_refresh_ms", "ms"),
    ("dyn.active_share", "ratio"),
    ("dyn.refresh_cached", "count"),
    ("dyn.refresh_incremental", "count"),
    ("dyn.refresh_full", "count"),
    ("dyn.escalations", "count"),
    ("dyn.update_bits", "bit"),
    ("dyn.incremental_over_full_x", "x"),
    ("trace.overhead_x", "x"),
    ("trace.events", "count"),
];

/// Sums over the traced units (solves or batches) of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub units: u64,
    pub wall: f64,
    pub phase_s: f64,
    pub slowest_phase_s: f64,
    pub segment_s: f64,
    pub other_rows_s: f64,
    pub unattributed_s: f64,
    pub phases: u64,
    pub builds: u64,
    pub hits: u64,
    pub supersteps: u64,
    pub messages: u64,
    pub max_link_bits: u64,
    pub step_gaps_ms: Vec<f64>,
    pub exchange_s: f64,
    pub windows: u64,
    pub attempts: u64,
    pub frames: u64,
    pub payload_bytes: u64,
    pub worker_restarts: u64,
    pub escalations: u64,
    pub events: u64,
}

impl Tally {
    /// Folds one traced unit that ran from `start` for `wall` seconds.
    /// Fails when its rows do not tile the wall, or do not match the
    /// program's own per-phase breakdown row for row.
    pub fn add(&mut self, start: Instant, wall: f64, records: &[Stamped]) -> Result<(), String> {
        let events = logical_since(start, records);
        let tiling = tile(wall, &events)?;
        let logical: Vec<TraceRecord> = events
            .iter()
            .enumerate()
            .map(|(seq, (_, ev))| TraceRecord {
                seq: seq as u64,
                event: (*ev).clone(),
            })
            .collect();
        let expected_rows = phase_breakdown(&logical).len();
        if tiling.breakdown_rows() != expected_rows {
            return Err(format!(
                "{} timed rows against {expected_rows} breakdown rows",
                tiling.breakdown_rows()
            ));
        }
        self.units += 1;
        self.wall += wall;
        self.phase_s += tiling.sum(RowKind::Phase);
        self.segment_s += tiling.sum(RowKind::Segment);
        self.other_rows_s += tiling.sum(RowKind::Rollback)
            + tiling.sum(RowKind::Certify)
            + tiling.sum(RowKind::Update);
        self.unattributed_s += tiling.unattributed;
        for row in tiling.rows.iter().filter(|r| r.kind == RowKind::Phase) {
            self.slowest_phase_s = self.slowest_phase_s.max(row.secs());
        }
        let mut last_step: Option<Instant> = None;
        for rec in records {
            self.events += 1;
            match rec {
                Stamped::Logical(at, ev) => match ev {
                    TraceEvent::PhaseEnd {
                        sketch_builds,
                        sketch_cache_hits,
                        ..
                    } => {
                        self.phases += 1;
                        self.builds += sketch_builds;
                        self.hits += sketch_cache_hits;
                    }
                    TraceEvent::Superstep {
                        messages,
                        max_link_bits,
                        ..
                    } => {
                        self.supersteps += 1;
                        self.messages += messages;
                        self.max_link_bits = self.max_link_bits.max(*max_link_bits);
                        if let Some(prev) = last_step {
                            self.step_gaps_ms.push(secs_between(prev, *at) * 1e3);
                        }
                        last_step = Some(*at);
                    }
                    TraceEvent::DynEscalate { .. } => self.escalations += 1,
                    _ => {}
                },
                Stamped::Phys(
                    at,
                    PhysEvent::Window {
                        windows,
                        attempts,
                        frames_sent,
                        payload_bytes,
                        worker_restarts,
                        micros,
                        ..
                    },
                ) => {
                    let t = secs_between(start, *at);
                    if !(0.0..=wall).contains(&t) {
                        return Err(format!(
                            "transport window at {t:.6} s overruns the {wall:.6} s wall"
                        ));
                    }
                    self.exchange_s += *micros as f64 / 1e6;
                    self.windows += windows;
                    self.attempts += attempts;
                    self.frames += frames_sent;
                    self.payload_bytes += payload_bytes;
                    self.worker_restarts += worker_restarts;
                }
            }
        }
        Ok(())
    }

    fn per_unit(&self, x: f64) -> f64 {
        x / self.units.max(1) as f64
    }

    /// Reports the sketch-counter, engine, bsp, transport-count and trace
    /// metrics. `unit_wall` is the untraced wall of one unit (the base of
    /// the rates); `charged_bits` the model bits of one unit.
    pub fn put(&self, r: &mut Report, unit_wall: f64, charged_bits: f64, on_proc: bool) {
        let u = |x: u64| self.per_unit(x as f64);
        r.put("ksketch.builds", u(self.builds), "count");
        r.put("ksketch.cache_hits", u(self.hits), "count");
        let looked_up = self.builds + self.hits;
        if looked_up == 0 {
            r.absent(
                "ksketch.hit_ratio",
                "ratio",
                "no part sketch was built or looked up",
            );
        } else {
            r.put(
                "ksketch.hit_ratio",
                self.hits as f64 / looked_up as f64,
                "ratio",
            );
        }
        r.put("engine.phases", u(self.phases), "count");
        r.put("engine.phase_wall_s", self.per_unit(self.phase_s), "s");
        r.put("engine.slowest_phase_s", self.slowest_phase_s, "s");
        r.put("engine.segment_s", self.per_unit(self.segment_s), "s");
        r.put(
            "engine.unattributed_share",
            self.unattributed_s / self.wall.max(f64::MIN_POSITIVE),
            "ratio",
        );
        r.note(format!(
            "tiling over {} traced units, per unit: phases {:.4} s + segments {:.4} s + \
             rollback/certify/update {:.4} s + unattributed {:.4} s = wall {:.4} s",
            self.units,
            self.per_unit(self.phase_s),
            self.per_unit(self.segment_s),
            self.per_unit(self.other_rows_s),
            self.per_unit(self.unattributed_s),
            self.per_unit(self.wall),
        ));
        r.put("bsp.supersteps", u(self.supersteps), "count");
        r.put("bsp.messages", u(self.messages), "count");
        r.put("bsp.max_link_bits", self.max_link_bits as f64, "bit");
        r.put("bsp.messages_per_s", u(self.messages) / unit_wall, "1/s");
        r.put("bsp.step_gap_p50_ms", median(&self.step_gaps_ms), "ms");
        let (label, p99) = tail(&self.step_gaps_ms, 99);
        r.put("bsp.step_gap_p99_ms", p99, "ms");
        r.note(format!("bsp.step_gap_p99_ms is the {label} superstep gaps"));
        if on_proc {
            r.put("transport.exchange_s", self.per_unit(self.exchange_s), "s");
            r.put(
                "transport.exchange_share",
                self.exchange_s / self.wall,
                "ratio",
            );
            r.put("transport.windows", u(self.windows), "count");
            r.put("transport.attempts", u(self.attempts), "count");
            r.put("transport.frames", u(self.frames), "count");
            r.put("transport.payload_bytes", u(self.payload_bytes), "byte");
            r.put(
                "transport.wire_bytes_per_charged_byte",
                u(self.payload_bytes) / (charged_bits / 8.0),
                "x",
            );
            r.put(
                "transport.worker_restarts",
                self.worker_restarts as f64,
                "count",
            );
        } else {
            let why = "the sim transport moves no bytes";
            for &(name, unit) in LAYER_METRICS
                .iter()
                .filter(|(n, _)| n.starts_with("transport."))
            {
                r.absent(name, unit, why);
            }
        }
        r.put("trace.events", u(self.events), "count");
    }
}

/// Sketch-layer costs over every incidence of `g`: each vertex's ℓ₀
/// sketch is built from its adjacency with `SketchParams::for_graph(n, 5)`
/// and then queried once.
pub struct SketchProbe {
    pub build_ns_per_incidence: f64,
    pub query_ns: f64,
    pub queries: u64,
    /// Queries that returned no edge (a Monte-Carlo miss).
    pub empty: u64,
    /// Queries that returned an edge not incident to the vertex.
    pub wrong: u64,
}

impl SketchProbe {
    pub fn run(g: &Graph, seed: u64) -> SketchProbe {
        let params = SketchParams::for_graph(g.n(), 5);
        let fns = SketchFns::new(&SharedRandomness::new(seed), 0, params);
        let (mut build, mut query) = (Duration::ZERO, Duration::ZERO);
        let (mut incidences, mut queries, mut empty, mut wrong) = (0u64, 0u64, 0u64, 0u64);
        for v in 0..g.n() as u32 {
            let nbrs = g.neighbors(v);
            if nbrs.is_empty() {
                continue;
            }
            let t0 = Instant::now();
            let mut s = L0Sketch::new(params);
            for &(u, _) in nbrs {
                s.add_incident_edge(&fns, v, u);
            }
            let t1 = Instant::now();
            let got = black_box(black_box(&s).query(&fns));
            let t2 = Instant::now();
            build += t1 - t0;
            query += t2 - t1;
            incidences += nbrs.len() as u64;
            queries += 1;
            match got {
                None => empty += 1,
                Some((a, b)) if (a == v || b == v) && g.has_edge(a, b) => {}
                Some(_) => wrong += 1,
            }
        }
        SketchProbe {
            build_ns_per_incidence: build.as_nanos() as f64 / incidences.max(1) as f64,
            query_ns: query.as_nanos() as f64 / queries.max(1) as f64,
            queries,
            empty,
            wrong,
        }
    }

    pub fn put(&self, r: &mut Report) {
        r.put(
            "ksketch.build_ns_per_incidence",
            self.build_ns_per_incidence,
            "ns",
        );
        r.put("ksketch.query_ns", self.query_ns, "ns");
        r.note(format!(
            "sketch probe: {} vertex sketches queried, {} empty, {} not incident",
            self.queries, self.empty, self.wrong
        ));
    }
}

/// Median wall seconds of `reps` calls of `f`.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&walls)
}
