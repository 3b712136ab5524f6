//! The host-speed gauge: a fixed reference computation, written here and
//! independent of the program under test, timed between the measured
//! operations all through a run.
//!
//! The benchmark runs on a small share of a shared host whose speed
//! drifts with the other tenants' load. On a 2-vCPU Xeon guest the same
//! Mst solve, with the same ledger, took from 2.2 to 3.4 s within ten
//! minutes, its CPU time drifting with it, and the medians of whole 50-s
//! runs differed by a quarter: no statistic taken inside a run removes
//! that. The gauge measures it. Its reference computation does the kind
//! of work the program does (hashing, sorting, union-find and
//! breadth-first search over a graph of 100,000 vertices), so it slows
//! down when the program does. A run's timings are divided by its host
//! factor, the median gauge sample over [`NOMINAL_S`], and so read as
//! seconds on a host running at nominal speed; the raw figures are
//! printed in a note. Over two sets of ten seeds per workload, an hour
//! apart, the normalized timings spread (interquartile range over median)
//! 0.04–0.15 and the two sets' medians agreed within 6%; raw, they spread
//! 0.08–0.20 and their medians differed by up to 12%. The program cannot
//! move the factor: the gauge runs only between the program's operations,
//! when none is in flight, on the one CPU the run is confined to, and
//! allocates nothing while it is timed.

use crate::report::{median, Report};
use std::time::Instant;

/// The reference computation's median time on the nominal host, a
/// 2-vCPU Intel Xeon guest with the run confined to one CPU, over five
/// runs of each workload.
pub const NOMINAL_S: f64 = 0.027;

/// Vertices and edges of the reference graph, and the slots of its
/// open-addressing edge table (a power of two, over twice the edges).
const N: usize = 100_000;
const M: usize = 250_000;
const SLOTS: usize = 1 << 19;

/// The reference input, the buffers the computation reuses, and the
/// samples taken so far. Every buffer is allocated up front, so a sample
/// times memory and CPU, not the state of the process's heap.
pub struct Gauge {
    edges: Vec<(u32, u32, u32)>,
    /// Adjacency in compressed rows: `targets[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    sorted: Vec<(u32, u32, u32)>,
    table: Vec<u64>,
    parent: Vec<u32>,
    seen: Vec<bool>,
    queue: Vec<u32>,
    samples: Vec<f64>,
}

impl Gauge {
    /// Builds the fixed reference graph and the buffers (not timed).
    pub fn new() -> Gauge {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let edges: Vec<(u32, u32, u32)> = (0..M)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let at = |shift: u32| ((x >> shift) % N as u64) as u32;
                (at(0), at(20), (x >> 40) as u32)
            })
            .collect();
        let mut offsets = vec![0usize; N + 1];
        for &(u, v, _) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..N {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; 2 * M];
        for &(u, v, _) in &edges {
            for (a, b) in [(u, v), (v, u)] {
                targets[fill[a as usize]] = b;
                fill[a as usize] += 1;
            }
        }
        Gauge {
            sorted: edges.clone(),
            edges,
            offsets,
            targets,
            table: vec![0; SLOTS],
            parent: vec![0; N],
            seen: vec![false; N],
            queue: Vec::with_capacity(N),
            samples: Vec::new(),
        }
    }

    /// Times one run of the reference computation.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(self.reference());
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    /// The run's host factor: the median sample over [`NOMINAL_S`]
    /// (above 1 on a host running slower than nominal).
    pub fn factor(&self) -> f64 {
        median(&self.samples) / NOMINAL_S
    }

    /// Divides every timing in `r` (units `s` and `ms`) by the host
    /// factor and multiplies every rate (`1/s`) by it, then notes the
    /// factor and the raw values. Counts, bits and memory are untouched.
    pub fn apply(&self, r: &mut Report) {
        let f = self.factor();
        let mut raw = Vec::new();
        for m in &mut r.metrics {
            let scaled = match m.unit {
                "s" | "ms" => m.value / f,
                "1/s" => m.value * f,
                _ => continue,
            };
            raw.push(format!("{} {:.6}", m.name, m.value));
            m.value = scaled;
        }
        r.note(format!(
            "timings are host-normalized: raw seconds divided by the host factor {f:.4}, the \
             median of {} reference computations ({:.2} ms) over the nominal {:.2} ms; raw: {}",
            self.samples.len(),
            median(&self.samples) * 1e3,
            NOMINAL_S * 1e3,
            raw.join(", "),
        ));
    }

    /// Inserts every edge into a hash table, runs Kruskal by sort and
    /// union-find, then a breadth-first search over every component.
    fn reference(&mut self) -> u64 {
        self.table.fill(0);
        let mut collisions = 0u64;
        for &(u, v, _) in &self.edges {
            let key = (u64::from(u) << 32 | u64::from(v)) + 1;
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 45) as usize;
            while self.table[slot] != 0 && self.table[slot] != key {
                slot = (slot + 1) & (SLOTS - 1);
                collisions += 1;
            }
            self.table[slot] = key;
        }
        self.sorted.copy_from_slice(&self.edges);
        self.sorted.sort_unstable_by_key(|&(u, v, w)| (w, u, v));
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = i as u32;
        }
        let mut weight = 0u64;
        for &(u, v, w) in &self.sorted {
            let (a, b) = (find(&mut self.parent, u), find(&mut self.parent, v));
            if a != b {
                self.parent[a as usize] = b;
                weight += u64::from(w);
            }
        }
        self.seen.fill(false);
        let mut reached = 0u64;
        for s in 0..N {
            if self.seen[s] {
                continue;
            }
            self.seen[s] = true;
            self.queue.clear();
            self.queue.push(s as u32);
            let mut head = 0;
            while let Some(&u) = self.queue.get(head) {
                head += 1;
                reached += 1;
                let u = u as usize;
                for &v in &self.targets[self.offsets[u]..self.offsets[u + 1]] {
                    if !self.seen[v as usize] {
                        self.seen[v as usize] = true;
                        self.queue.push(v);
                    }
                }
            }
        }
        weight ^ reached ^ collisions
    }
}

/// Union-find root with path halving.
fn find(parent: &mut [u32], mut a: u32) -> u32 {
    while parent[a as usize] != a {
        let up = parent[parent[a as usize] as usize];
        parent[a as usize] = up;
        a = up;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic_across_samples() {
        let mut g = Gauge::new();
        let a = g.reference();
        assert_eq!(a, g.reference());
        assert_eq!(a, Gauge::new().reference());
        assert_eq!(g.offsets[N], 2 * M);
    }

    #[test]
    fn apply_scales_timings_and_rates_by_the_median_factor() {
        let mut g = Gauge::new();
        g.samples = vec![NOMINAL_S * 3.0, NOMINAL_S, NOMINAL_S * 2.0];
        assert!((g.factor() - 2.0).abs() < 1e-12);
        let mut r = Report::default();
        r.put("solve_s", 4.0, "s");
        r.put("batch_p50_ms", 10.0, "ms");
        r.put("ops_per_s", 3.0, "1/s");
        r.put("rounds", 7.0, "count");
        g.apply(&mut r);
        let values: Vec<f64> = r.metrics.iter().map(|m| m.value).collect();
        assert_eq!(values, [2.0, 5.0, 6.0, 7.0]);
        assert!(r.notes[0].contains("raw: solve_s 4.000000"));
    }
}
