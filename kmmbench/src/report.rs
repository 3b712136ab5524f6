//! The benchmark's arithmetic and its output: order statistics, the
//! metric table, and the one-line JSON result.

use std::fmt::Write as _;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count);
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(q: u32, n: usize) -> usize {
    (q as usize * n).div_ceil(100).max(1)
}

/// The tail rule: the highest integer percentile `q ≤ target` that leaves
/// at least [`TAIL_MIN_BEYOND`] samples strictly past its nearest rank,
/// with that percentile's value. `None` when even `q = 1` leaves fewer
/// (that is, with at most ten samples).
pub fn tail_percentile(samples: &[f64], target: u32) -> Option<(u32, f64)> {
    let s = sorted(samples);
    let n = s.len();
    (1..=target.min(100))
        .rev()
        .find(|&q| n.saturating_sub(rank(q, n)) >= TAIL_MIN_BEYOND)
        .map(|q| (q, s[rank(q, n) - 1]))
}

/// A timing's tail by the tail rule: the highest percentile up to
/// `target` that leaves at least [`TAIL_MIN_BEYOND`] samples beyond it,
/// labelled with the sample count. When the rule admits nothing at or
/// above the median (a run with few samples), the tail is the median, and
/// the label says so.
pub fn tail(samples: &[f64], target: u32) -> (String, f64) {
    let n = samples.len();
    match tail_percentile(samples, target) {
        Some((q, v)) if q >= 50 => (format!("p{q} of {n}"), v),
        _ => (
            format!(
                "median of {n}: no percentile above it has {TAIL_MIN_BEYOND} samples beyond it"
            ),
            median(samples),
        ),
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: its metrics, the operations it attempted
/// and failed, and free-text notes (sample counts, absent metrics).
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric. Names are fixed in the source, so an illegal or
    /// repeated one is a bug in the benchmark.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        let value = if value.is_finite() {
            value
        } else {
            self.notes
                .push(format!("{name}: non-finite value {value} reported as 0"));
            0.0
        };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a metric that does not apply to this workload: it reads 0
    /// and the reason is printed.
    pub fn absent(&mut self, name: &str, unit: &'static str, why: &str) {
        self.put(name, 0.0, unit);
        self.notes.push(format!("{name}: absent ({why}); reads 0"));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Counts one checked operation, and a failure with its reason.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable table printed above the result line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{:<36} {:>18} {}", m.name, fmt_num(m.value), m.unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "# failed_ratio {} ({} of {} operations)",
            fmt_num(ratio),
            self.failed,
            self.attempted
        );
        out
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Shortest round-tripping decimal form, always a valid JSON number.
fn fmt_num(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 has rank 90 and exactly 10 beyond it.
        assert_eq!(tail_percentile(&xs, 90), Some((90, 90.0)));
        // p99 would leave 1 beyond; the rule falls back to p90.
        assert_eq!(tail_percentile(&xs, 99), Some((90, 90.0)));
        // 99 samples: p90 has rank 90 and 9 beyond, p89 rank 89 and 10.
        assert_eq!(tail_percentile(&xs[..99], 90), Some((89, 89.0)));
        // 1000 samples: p99 has rank 990 and 10 beyond.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 99), Some((99, 990.0)));
        // 11 samples: only rank 1 leaves 10 beyond, and p9 is the highest
        // percentile with that rank.
        assert_eq!(tail_percentile(&xs[..11], 90), Some((9, 1.0)));
        assert_eq!(tail_percentile(&xs[..10], 90), None);
        assert_eq!(tail_percentile(&[], 90), None);
    }

    #[test]
    fn tail_follows_the_rule_and_never_drops_below_the_median() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs, 90), ("p90 of 200".to_string(), 180.0));
        // 50 samples: p80 is the highest percentile with ten beyond it.
        assert_eq!(tail(&xs[..50], 90), ("p80 of 50".to_string(), 40.0));
        // 12 samples: the rule admits only p16, below the median.
        let (label, v) = tail(&xs[..12], 90);
        assert_eq!(v, 6.5);
        assert!(label.starts_with("median of 12"), "{label}");
        assert_eq!(tail(&[5.0, 1.0, 3.0], 90).1, 3.0);
        assert_eq!(tail(&[], 90).1, 0.0);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "setup_s",
            "ksketch.hit_ratio",
            "bsp.step_gap_p99_ms",
            "x-1",
            "9a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "a\"b", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn put_rejects_illegal_names() {
        Report::default().put("bad name", 1.0, "s");
    }

    #[test]
    fn output_json_parses_with_the_contract_keys() {
        let mut r = Report::default();
        r.put("solve_s", 2.875_431, "s");
        r.put("rounds", 14146.0, "count");
        r.put("weird", f64::NAN, "x");
        r.check(Ok(()));
        r.check(Err("labels differ".into()));
        let v = json::parse(&r.to_json()).expect("result line must be JSON");
        let top = v.object();
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(top[0].1, json::Value::Bool(false));
        assert_eq!(top[1].1, json::Value::Num(2.0));
        assert_eq!(top[2].1, json::Value::Num(1.0));
        let metrics = top[3].1.object();
        assert_eq!(metrics.len(), 3);
        let solve = metrics[0].1.object();
        assert_eq!(solve[0], ("value".into(), json::Value::Num(2.875_431)));
        assert_eq!(solve[1], ("unit".into(), json::Value::Str("s".into())));
        // The NaN was replaced, so the line stays valid JSON.
        assert_eq!(metrics[2].1.object()[0].1, json::Value::Num(0.0));
    }

    #[test]
    fn attempted_is_at_least_one() {
        let r = Report::default();
        let v = json::parse(&r.to_json()).unwrap();
        assert_eq!(v.object()[1].1, json::Value::Num(1.0));
    }

    /// A strict little JSON reader, enough to prove the result line parses.
    mod json {
        #[derive(Clone, Debug, PartialEq)]
        pub enum Value {
            Bool(bool),
            Num(f64),
            Str(String),
            Obj(Vec<(String, Value)>),
        }

        impl Value {
            pub fn object(&self) -> &[(String, Value)] {
                match self {
                    Value::Obj(kv) => kv,
                    other => panic!("not an object: {other:?}"),
                }
            }
        }

        pub fn parse(text: &str) -> Result<Value, String> {
            let mut p = Parser {
                s: text.as_bytes(),
                i: 0,
            };
            let v = p.value()?;
            p.ws();
            if p.i == p.s.len() {
                Ok(v)
            } else {
                Err(format!("trailing input at {}", p.i))
            }
        }

        struct Parser<'a> {
            s: &'a [u8],
            i: usize,
        }

        impl Parser<'_> {
            fn ws(&mut self) {
                while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                    self.i += 1;
                }
            }

            fn eat(&mut self, c: u8) -> Result<(), String> {
                self.ws();
                if self.s.get(self.i) == Some(&c) {
                    self.i += 1;
                    Ok(())
                } else {
                    Err(format!("expected {:?} at {}", c as char, self.i))
                }
            }

            fn value(&mut self) -> Result<Value, String> {
                self.ws();
                match self.s.get(self.i) {
                    Some(b'{') => self.object(),
                    Some(b'"') => self.string().map(Value::Str),
                    Some(b't') => self.word("true", Value::Bool(true)),
                    Some(b'f') => self.word("false", Value::Bool(false)),
                    Some(_) => self.number(),
                    None => Err("unexpected end".into()),
                }
            }

            fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
                if self.s[self.i..].starts_with(w.as_bytes()) {
                    self.i += w.len();
                    Ok(v)
                } else {
                    Err(format!("bad literal at {}", self.i))
                }
            }

            fn number(&mut self) -> Result<Value, String> {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let t = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                let ok_shape = t.starts_with(|c: char| c == '-' || c.is_ascii_digit())
                    && !t.starts_with("-.")
                    && !t.ends_with('.');
                match t.parse::<f64>() {
                    Ok(v) if ok_shape => Ok(Value::Num(v)),
                    _ => Err(format!("bad number {t:?} at {start}")),
                }
            }

            fn string(&mut self) -> Result<String, String> {
                self.eat(b'"')?;
                let start = self.i;
                while let Some(&c) = self.s.get(self.i) {
                    match c {
                        b'"' => {
                            let t = String::from_utf8(self.s[start..self.i].to_vec())
                                .map_err(|e| e.to_string())?;
                            self.i += 1;
                            return Ok(t);
                        }
                        b'\\' | 0..=0x1f => return Err(format!("unsupported byte at {}", self.i)),
                        _ => self.i += 1,
                    }
                }
                Err("unterminated string".into())
            }

            fn object(&mut self) -> Result<Value, String> {
                self.eat(b'{')?;
                let mut kv = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(kv));
                        }
                        _ => return Err(format!("expected , or }} at {}", self.i)),
                    }
                }
            }
        }
    }
}
