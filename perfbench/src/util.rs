//! Measurement helpers: sample statistics, process counters read from
//! `/proc`, the harness span log, and the metric table a run reports.

use std::time::{Duration, Instant};

use serde::json::Value;

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (sorted inside).
/// `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `samples` (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// User + system CPU time of this process so far (all threads, including
/// exited ones), from `/proc/self/stat` in clock ticks of 10 ms.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    // USER_HZ is 100 on every Linux ABI.
    Duration::from_millis(fields.iter().sum::<u64>() * 10)
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One harness span: a timed call into a layer, or an engine/service
/// span attached beneath one.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: u64,
}

/// In-memory span log, written out once when the run ends.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a closed span on the harness clock; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name.to_string(), start_ns, end_ns, parent, job)
    }

    /// Records a span whose times are already on the harness clock.
    pub fn push(
        &mut self,
        name: String,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Start of span `id` on the harness clock.
    pub fn start_of(&self, id: usize) -> u64 {
        self.spans[id].start_ns
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the log as a JSON array to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let items: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                Value::object([
                    ("name", Value::Str(s.name.clone())),
                    ("start_ns", Value::UInt(s.start_ns)),
                    ("end_ns", Value::UInt(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("job", Value::UInt(s.job)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Value::Array(items).render())
    }
}

/// Metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, …}` for the listed names, in
    /// list order; an error names the first one the run did not measure.
    pub fn to_json(&self, names: &[(&str, &str)]) -> Result<Value, String> {
        let fields = names
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .get(name)
                    .ok_or_else(|| format!("the run did not measure {name}"))?;
                Ok((
                    (*name).to_string(),
                    Value::object([
                        ("value", Value::Float(value)),
                        ("unit", Value::Str((*unit).to_string())),
                    ]),
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Value::Object(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu() > Duration::ZERO);
    }
}
