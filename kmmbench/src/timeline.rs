//! Wall-clock stamps on the program's own trace stream, and the tiling of
//! a measured interval into the rows of the per-phase breakdown.
//!
//! The program's logical trace carries no wall-clock (by design), so the
//! benchmark attaches a [`StampSink`] that notes the arrival time of each
//! record. A row with a start event (a phase, opened by `PhaseStart`) spans
//! from that event to its closing `PhaseEnd` or `Rollback`; a row without
//! one (a `Segment`, a `DynCertify` pass, a `DynBatch` routing step) spans
//! from the end of the previous row, or from the start of the interval, to
//! its own event. Whatever no row covers is `unattributed`, so the rows
//! plus `unattributed` sum to the interval's wall time by construction;
//! [`tile`] fails when rows nest, overlap or leave the interval.

use kmachine::trace::{PhysEvent, PhysRecord, TraceEvent, TraceRecord, TraceSink};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One trace record with its arrival time.
#[derive(Clone, Debug)]
pub enum Stamped {
    Logical(Instant, TraceEvent),
    Phys(Instant, PhysEvent),
}

/// The shared log a [`StampSink`] appends to.
pub type Log = Arc<Mutex<Vec<Stamped>>>;

/// A [`TraceSink`] that stamps every record as it arrives.
pub struct StampSink(pub Log);

impl TraceSink for StampSink {
    fn event(&mut self, record: &TraceRecord) {
        let at = Instant::now();
        lock(&self.0).push(Stamped::Logical(at, record.event.clone()));
    }

    fn phys(&mut self, record: &PhysRecord) {
        let at = Instant::now();
        lock(&self.0).push(Stamped::Phys(at, record.event.clone()));
    }
}

fn lock(log: &Log) -> std::sync::MutexGuard<'_, Vec<Stamped>> {
    // Appends leave the log valid at every step, so a poisoned guard is
    // still sound.
    log.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes every record logged so far, leaving the log empty.
pub fn drain(log: &Log) -> Vec<Stamped> {
    std::mem::take(&mut *lock(log))
}

/// The logical events of `records` as `(seconds since start, event)`.
pub fn logical_since(start: Instant, records: &[Stamped]) -> Vec<(f64, &TraceEvent)> {
    records
        .iter()
        .filter_map(|r| match r {
            Stamped::Logical(at, ev) => Some((secs_between(start, *at), ev)),
            Stamped::Phys(..) => None,
        })
        .collect()
}

/// Signed seconds from `a` to `b`.
pub fn secs_between(a: Instant, b: Instant) -> f64 {
    if b >= a {
        (b - a).as_secs_f64()
    } else {
        -(a - b).as_secs_f64()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowKind {
    Segment,
    Phase,
    Rollback,
    Certify,
    Update,
}

/// One timed row of the breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub label: String,
    pub kind: RowKind,
    pub start: f64,
    pub end: f64,
    /// Part of an attempt that was discarded (a crash rollback, or an
    /// incremental refresh whose certification escalated).
    pub rolled_back: bool,
}

impl Row {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// A measured interval split into rows plus the uncovered remainder.
#[derive(Clone, Debug, PartialEq)]
pub struct Tiling {
    pub wall: f64,
    pub rows: Vec<Row>,
    pub unattributed: f64,
}

impl Tiling {
    pub fn sum(&self, kind: RowKind) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.kind == kind)
            .map(Row::secs)
            .sum()
    }

    /// Rows that mirror `kmachine::trace::phase_breakdown`'s rows (every
    /// kind but the dynamic layer's routing step).
    pub fn breakdown_rows(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.kind != RowKind::Update)
            .count()
    }
}

/// Tiles the interval `[0, wall]` with rows built from `events` (stamped
/// in seconds from the interval's start, in emission order).
pub fn tile(wall: f64, events: &[(f64, &TraceEvent)]) -> Result<Tiling, String> {
    let mut rows: Vec<Row> = Vec::new();
    let mut open: Option<(u32, f64)> = None;
    let mut cursor = 0.0_f64;
    let mut last = 0.0_f64;
    for &(t, ev) in events {
        if t < last || t < 0.0 || t > wall {
            return Err(format!(
                "event at {t:.6} s falls outside [{last:.6}, {wall:.6}] s"
            ));
        }
        last = t;
        // A row without a start event runs from the previous row's end.
        let (open_now, from) = (open, cursor);
        let closes = move |label: String, kind| -> Result<Row, String> {
            if let Some((p, _)) = open_now {
                return Err(format!("{label} row overlaps open phase {p}"));
            }
            Ok(Row {
                label,
                kind,
                start: from,
                end: t,
                rolled_back: false,
            })
        };
        let row = match ev {
            TraceEvent::PhaseStart { phase, .. } => {
                if let Some((p, _)) = open {
                    return Err(format!("phase {phase} starts inside open phase {p}"));
                }
                open = Some((*phase, t));
                None
            }
            TraceEvent::PhaseEnd { phase, .. } | TraceEvent::Rollback { phase, .. } => {
                let rollback = matches!(ev, TraceEvent::Rollback { .. });
                match open.take() {
                    Some((p, start)) if p == *phase => Some(Row {
                        label: format!("{} {phase}", if rollback { "rollback" } else { "phase" }),
                        kind: if rollback {
                            RowKind::Rollback
                        } else {
                            RowKind::Phase
                        },
                        start,
                        end: t,
                        rolled_back: rollback,
                    }),
                    other => {
                        return Err(format!(
                            "phase {phase} closes, but the open phase is {other:?}"
                        ))
                    }
                }
            }
            TraceEvent::Segment { name, .. } => Some(closes(name.clone(), RowKind::Segment)?),
            TraceEvent::DynCertify { .. } => Some(closes("certify".into(), RowKind::Certify)?),
            TraceEvent::DynBatch { .. } => Some(closes("update".into(), RowKind::Update)?),
            TraceEvent::DynEscalate { span, .. } => {
                // The last `span` breakdown rows were a discarded attempt.
                let mut left = *span;
                for r in rows.iter_mut().rev() {
                    if left == 0 {
                        break;
                    }
                    if r.kind != RowKind::Update {
                        r.rolled_back = true;
                        left -= 1;
                    }
                }
                None
            }
            _ => None,
        };
        if let Some(r) = row {
            cursor = r.end;
            rows.push(r);
        }
    }
    if let Some((p, _)) = open {
        return Err(format!("phase {p} never closed"));
    }
    let covered: f64 = rows.iter().map(Row::secs).sum();
    let unattributed = wall - covered;
    // Rows are disjoint and inside the interval, so this holds unless the
    // construction above is wrong.
    if unattributed < -1e-9 * wall.max(1.0) {
        return Err(format!("rows cover {covered:.6} s of a {wall:.6} s wall"));
    }
    Ok(Tiling {
        wall,
        rows,
        unattributed: unattributed.max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(name: &str) -> TraceEvent {
        TraceEvent::Segment {
            name: name.into(),
            rounds: 1,
            bits: 1,
        }
    }

    fn start(phase: u32) -> TraceEvent {
        TraceEvent::PhaseStart {
            phase,
            components: 1,
            contracted: false,
        }
    }

    fn end(phase: u32) -> TraceEvent {
        TraceEvent::PhaseEnd {
            phase,
            rounds: 1,
            bits: 1,
            recovery_rounds: 0,
            retransmit_bits: 0,
            sketch_builds: 0,
            sketch_cache_hits: 0,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn rows_plus_unattributed_sum_to_the_wall() {
        let evs = [
            (1.0, seg("setup")),
            (1.5, start(0)),
            (4.0, end(0)),
            (4.25, start(1)),
            (6.0, end(1)),
            (7.0, seg("output")),
        ];
        let refs: Vec<(f64, &TraceEvent)> = evs.iter().map(|(t, e)| (*t, e)).collect();
        let t = tile(10.0, &refs).unwrap();
        let labels: Vec<&str> = t.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["setup", "phase 0", "phase 1", "output"]);
        assert!(close(t.sum(RowKind::Segment), 1.0 + 1.0));
        assert!(close(t.sum(RowKind::Phase), 2.5 + 1.75));
        // Gaps: 1.0..1.5, 4.0..4.25 and the 3 s tail after "output".
        assert!(close(t.unattributed, 0.5 + 0.25 + 3.0));
        let total: f64 = t.rows.iter().map(Row::secs).sum::<f64>() + t.unattributed;
        assert!(close(total, t.wall));
    }

    #[test]
    fn overlapping_or_overrunning_rows_fail() {
        let nested = [(1.0, start(0)), (2.0, start(1)), (3.0, end(1))];
        let refs: Vec<_> = nested.iter().map(|(t, e)| (*t, e)).collect();
        assert!(tile(5.0, &refs).unwrap_err().contains("inside open phase"));

        let seg_in_phase = [(1.0, start(0)), (2.0, seg("output")), (3.0, end(0))];
        let refs: Vec<_> = seg_in_phase.iter().map(|(t, e)| (*t, e)).collect();
        assert!(tile(5.0, &refs)
            .unwrap_err()
            .contains("overlaps open phase"));

        let late = [(1.0, start(0)), (6.0, end(0))];
        let refs: Vec<_> = late.iter().map(|(t, e)| (*t, e)).collect();
        assert!(tile(5.0, &refs).unwrap_err().contains("outside"));

        let unclosed = [(1.0, start(0))];
        let refs: Vec<_> = unclosed.iter().map(|(t, e)| (*t, e)).collect();
        assert!(tile(5.0, &refs).unwrap_err().contains("never closed"));

        let mismatched = [(1.0, start(0)), (2.0, end(3))];
        let refs: Vec<_> = mismatched.iter().map(|(t, e)| (*t, e)).collect();
        assert!(tile(5.0, &refs).is_err());
    }

    #[test]
    fn escalation_marks_the_discarded_rows() {
        let evs = [
            (
                0.5,
                TraceEvent::DynBatch {
                    ops: 8,
                    inserts: 4,
                    deletes: 4,
                    rounds: 1,
                    bits: 1,
                    compacted: false,
                },
            ),
            (1.0, seg("setup")),
            (
                2.0,
                TraceEvent::DynCertify {
                    labels: 3,
                    rounds: 1,
                    bits: 1,
                    ok: false,
                },
            ),
            (
                2.0,
                TraceEvent::DynEscalate {
                    span: 2,
                    rounds: 2,
                    bits: 2,
                },
            ),
            (3.0, seg("setup")),
        ];
        let refs: Vec<_> = evs.iter().map(|(t, e)| (*t, e)).collect();
        let t = tile(4.0, &refs).unwrap();
        let flags: Vec<(&str, bool)> = t
            .rows
            .iter()
            .map(|r| (r.label.as_str(), r.rolled_back))
            .collect();
        assert_eq!(
            flags,
            [
                ("update", false),
                ("setup", true),
                ("certify", true),
                ("setup", false)
            ]
        );
        assert_eq!(t.breakdown_rows(), 3);
        assert!(close(t.sum(RowKind::Update), 0.5));
        assert!(close(t.unattributed, 1.0));
    }
}
