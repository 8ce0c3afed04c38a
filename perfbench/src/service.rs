//! The `service_mix` workload: a `SortService` on loopback with the
//! `cts serve` defaults, driven by closed-loop tenants over the TCP wire.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cts_mapreduce::runtime::RuntimeConfig;
use cts_mapreduce::stage::{stages, EngineConfig};
use cts_terasort::{
    run_coded_terasort, run_terasort, teragen, JobKind, ResultDigest, ServiceClient, SortJob,
    SortService,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;

use crate::layers;
use crate::util::{median, ms, process_cpu, quantile, SpanLog};
use crate::{Args, Outcome};

/// Workload parameters.
pub struct Mix {
    pub k: usize,
    pub r: usize,
    pub max_concurrent: usize,
    pub queue: usize,
    pub tenants: usize,
    pub records: usize,
    pub inputs: usize,
}

impl Mix {
    pub fn new(quick: bool) -> Mix {
        Mix {
            k: 4,
            r: 2,
            max_concurrent: 4,
            queue: 16,
            tenants: 2,
            records: if quick { 200 } else { 2_000 },
            inputs: 16,
        }
    }

    pub fn params(&self) -> Value {
        Value::object([
            ("k", Value::UInt(self.k as u64)),
            ("default_r", Value::UInt(self.r as u64)),
            ("fabric", Value::Str("local".into())),
            ("max_concurrent", Value::UInt(self.max_concurrent as u64)),
            ("queue", Value::UInt(self.queue as u64)),
            ("tenants", Value::UInt(self.tenants as u64)),
            ("connections", Value::UInt(self.tenants as u64)),
            ("records_per_job", Value::UInt(self.records as u64)),
            ("distinct_inputs", Value::UInt(self.inputs as u64)),
            (
                "mix",
                Value::Str("70% sort r=2 DIGEST, 20% sort r=1 DIGEST, 10% sort r=2 FETCH".into()),
            ),
            ("loop", Value::Str("closed".into())),
        ])
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig::new(EngineConfig::local(self.k, self.r))
            .with_max_concurrent(self.max_concurrent)
            .with_queue_capacity(self.queue)
            .with_pool_threads(0)
    }
}

/// What one job of the mix asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Coded,
    Uncoded,
    CodedFetch,
}

impl Class {
    fn r(self) -> usize {
        if self == Class::Uncoded {
            1
        } else {
            2
        }
    }

    /// 70% coded DIGEST, 20% uncoded DIGEST, 10% coded FETCH.
    fn draw(rng: &mut StdRng) -> Class {
        match rng.next_u64() % 10 {
            0..=6 => Class::Coded,
            7 | 8 => Class::Uncoded,
            _ => Class::CodedFetch,
        }
    }
}

/// A distinct job input with its one-shot reference result.
struct Input {
    data: Bytes,
    outputs: Vec<Vec<u8>>,
    digest: ResultDigest,
}

/// One finished job as a tenant saw it.
struct Sample {
    class: Class,
    input: usize,
    t0: Instant,
    t1: Instant,
    t2: Instant,
    timeline: Option<String>,
}

fn start(mix: &Mix, metrics: bool) -> Result<Service, String> {
    let mut svc = SortService::bind("127.0.0.1:0", mix.runtime_config())?;
    let addr = svc.local_addr().map_err(|e| e.to_string())?;
    let metrics_addr = if metrics {
        Some(svc.serve_metrics("127.0.0.1:0")?)
    } else {
        None
    };
    let thread = std::thread::spawn(move || svc.run());
    Ok(Service {
        addr,
        metrics_addr,
        thread: Some(thread),
    })
}

/// A running service; dropping it shuts it down and joins its thread.
struct Service {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Service {
    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = ServiceClient::connect(self.addr).and_then(|mut c| c.shutdown());
        let joined = thread
            .join()
            .map_err(|_| "service thread panicked".to_string())?;
        sent.and(joined)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Reads one Prometheus sample value (`name value` line) from `text`.
fn scrape_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

fn scrape(addr: SocketAddr) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
    s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut text = String::new();
    s.read_to_string(&mut text).map_err(|e| e.to_string())?;
    Ok(text)
}

/// Stage events of a TIMELINE (Chrome trace-event JSON):
/// `(stage, rank, start_us, dur_us)`.
fn parse_timeline(json: &str) -> Vec<(String, u64, u64, u64)> {
    let field = |ev: &str, key: &str| -> Option<u64> {
        let at = ev.find(key)? + key.len();
        let digits: String = ev[at..].chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    };
    json.split("{\"name\":\"")
        .skip(1)
        .filter_map(|ev| {
            let name = ev.split('"').next()?.to_string();
            Some((
                name,
                field(ev, "\"tid\":")?,
                field(ev, "\"ts\":")?,
                field(ev, "\"dur\":")?,
            ))
        })
        .collect()
}

/// The engine stage order of [`crate::oneshot::STAGE_METRICS`].
const STAGES: [&str; 6] = [
    stages::CODEGEN,
    stages::MAP,
    stages::PACK_ENCODE,
    stages::SHUFFLE,
    stages::UNPACK_DECODE,
    stages::REDUCE,
];

/// Stage walls (ms) of one job along its critical rank, and the engine's
/// extent (ms). A rank's TIMELINE spans run back to back (each includes
/// the barrier wait that ends it), so the rank that finishes last carries
/// the stages the job waited on; its stages plus the gap before it
/// started make up the extent exactly.
fn timeline_walls(events: &[(String, u64, u64, u64)]) -> ([f64; 6], f64) {
    let lo = events.iter().map(|e| e.2).min().unwrap_or(0);
    let hi = events.iter().map(|e| e.2 + e.3).max().unwrap_or(0);
    let critical = events.iter().max_by_key(|e| e.2 + e.3).map(|e| e.1);
    let mut walls = [0.0f64; 6];
    for (name, rank, _, dur) in events {
        if Some(*rank) != critical {
            continue;
        }
        if let Some(i) = STAGES.iter().position(|s| s == name) {
            walls[i] += *dur as f64 / 1e3;
        }
    }
    (walls, (hi - lo) as f64 / 1e3)
}

fn make_inputs(mix: &Mix, seed: u64) -> Result<Vec<Input>, String> {
    (0..mix.inputs)
        .map(|i| {
            let data = teragen::generate(mix.records, seed.wrapping_mul(1_000_003) + i as u64);
            let reference = run_terasort(data.clone(), &SortJob::local(mix.k, 1))
                .map_err(|e| format!("reference run: {e}"))?;
            reference
                .validate()
                .map_err(|e| format!("reference TeraValidate failed: {e}"))?;
            let outputs = reference.outcome.outputs;
            Ok(Input {
                digest: ResultDigest::of(&outputs),
                outputs,
                data,
            })
        })
        .collect()
}

/// One tenant's closed loop until `deadline`.
fn tenant(
    addr: SocketAddr,
    seed: u64,
    tenant: usize,
    inputs: &[Input],
    deadline: Instant,
    trace: bool,
) -> Result<(Vec<Sample>, u64, u64, u64), String> {
    let mut client = ServiceClient::connect(addr)?;
    let mut rng = StdRng::seed_from_u64(seed ^ (0xC0DE_0000 + tenant as u64));
    let (mut samples, mut attempted, mut failed, mut refused) = (Vec::new(), 0u64, 0u64, 0u64);
    while Instant::now() < deadline {
        let class = Class::draw(&mut rng);
        let which = (rng.next_u64() % inputs.len() as u64) as usize;
        let input = &inputs[which];
        attempted += 1;
        let t0 = Instant::now();
        let id = match client.submit(&JobKind::Sort, class.r(), &input.data) {
            Ok(id) => id,
            Err(e) => {
                failed += 1;
                if e.contains("refused at admission") {
                    refused += 1;
                } else {
                    eprintln!("tenant {tenant}: submit failed: {e}");
                }
                continue;
            }
        };
        let t1 = Instant::now();
        let result = if class == Class::CodedFetch {
            client.fetch(id).map(|out| out == input.outputs)
        } else {
            client.digest(id).map(|d| d == input.digest)
        };
        let t2 = Instant::now();
        match result {
            Ok(true) => {}
            Ok(false) => {
                return Err(format!(
                    "job {id} ({class:?}, input {which}) differs from the one-shot reference"
                ))
            }
            Err(e) => {
                eprintln!("tenant {tenant}: job {id} failed: {e}");
                failed += 1;
                continue;
            }
        }
        // Traced runs fetch every other job's timeline, after its timing.
        let timeline = if trace && samples.len() % 2 == 0 {
            Some(client.timeline(id)?)
        } else {
            None
        };
        samples.push(Sample {
            class,
            input: which,
            t0,
            t1,
            t2,
            timeline,
        });
    }
    Ok((samples, attempted, failed, refused))
}

pub fn run(mix: &Mix, args: &Args) -> Result<Outcome, String> {
    let inputs = make_inputs(mix, args.seed)?;

    // Set-up: bind, runtime start and the first job's reply, three times;
    // the last service stays up for the measured phase.
    let mut setup = Vec::new();
    let mut service = None;
    for round in 0..3 {
        let t = Instant::now();
        let svc = start(mix, args.trace)?;
        let mut client = ServiceClient::connect(svc.addr)?;
        let id = client.submit(&JobKind::Sort, mix.r, &inputs[0].data)?;
        if client.digest(id)? != inputs[0].digest {
            return Err("set-up job differs from the one-shot reference".into());
        }
        setup.push(t.elapsed().as_secs_f64());
        drop(client);
        if round < 2 {
            svc.stop()?;
        } else {
            service = Some(svc);
        }
    }
    let service = service.expect("third round keeps its service");

    let stop_sampler = AtomicBool::new(false);
    let cpu0 = process_cpu();
    let phase = Instant::now();
    let deadline = phase + Duration::from_secs_f64(args.seconds);
    let (results, queue_max) = std::thread::scope(|s| {
        let tenants: Vec<_> = (0..mix.tenants)
            .map(|t| {
                let inputs = &inputs;
                let addr = service.addr;
                s.spawn(move || tenant(addr, args.seed, t, inputs, deadline, args.trace))
            })
            .collect();
        let sampler = service.metrics_addr.map(|maddr| {
            let stop = &stop_sampler;
            s.spawn(move || {
                let mut max = 0.0f64;
                while !stop.load(Ordering::SeqCst) {
                    if let Some(v) = scrape(maddr)
                        .ok()
                        .and_then(|t| scrape_value(&t, "cts_admission_queue_depth"))
                    {
                        max = max.max(v);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                max
            })
        });
        let results: Vec<_> = tenants
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("tenant panicked".into())))
            .collect();
        stop_sampler.store(true, Ordering::SeqCst);
        let queue_max = sampler.map(|h| h.join().unwrap_or(0.0)).unwrap_or(0.0);
        (results, queue_max)
    });
    let wall = phase.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let lease_wait_ms = match service.metrics_addr {
        Some(maddr) => scrape(maddr)
            .ok()
            .and_then(|t| scrape_value(&t, "cts_worker_lease_wait_seconds{quantile=\"0.5\"}")),
        None => None,
    }
    .unwrap_or(0.0)
        * 1e3;
    service.stop()?;

    let (mut samples, mut attempted, mut failed, mut refused) = (Vec::new(), 0, 0, 0);
    for result in results {
        let (s, a, f, r) = result?;
        samples.extend(s);
        attempted += a;
        failed += f;
        refused += r;
    }
    if samples.is_empty() {
        return Err(format!("all {attempted} jobs failed"));
    }
    let latency: Vec<f64> = samples.iter().map(|s| ms(s.t2 - s.t0)).collect();
    let mut out = Outcome::new(attempted, failed);
    let p50 = median(&latency);
    out.metrics.set("job_p50_ms", p50, "ms");
    out.metrics.set(
        "jobs_per_s",
        samples.len() as f64 / wall.as_secs_f64(),
        "1/s",
    );
    out.metrics.set("setup_s", median(&setup), "s");
    out.metrics
        .set("peak_rss_mb", crate::util::peak_rss_mb(), "MiB");
    out.metrics
        .set("cpu_ms_per_job", ms(cpu) / samples.len() as f64, "ms");
    if latency.len() >= 100 {
        out.metrics
            .set("job_p90_ms", quantile(&latency, 0.9).unwrap_or(0.0), "ms");
    }
    out.note("jobs", Value::UInt(samples.len() as u64));
    out.note(
        "setup_samples_s",
        Value::Array(setup.iter().map(|s| Value::Float(*s)).collect()),
    );
    if !args.trace {
        return Ok(out);
    }

    // ---- per-layer figures (traced run) --------------------------------
    let submit: Vec<f64> = samples.iter().map(|s| ms(s.t1 - s.t0)).collect();
    let wait: Vec<f64> = samples.iter().map(|s| ms(s.t2 - s.t1)).collect();
    let fetch: Vec<f64> = samples
        .iter()
        .filter(|s| s.class == Class::CodedFetch)
        .map(|s| ms(s.t2 - s.t1))
        .collect();
    out.metrics.set("service.submit_ms", median(&submit), "ms");
    out.metrics.set("service.wait_ms", median(&wait), "ms");
    out.metrics.set("service.fetch_ms", median(&fetch), "ms");
    out.metrics.set("service.refused", refused as f64, "count");
    out.metrics
        .set("runtime.lease_wait_ms", lease_wait_ms, "ms");
    out.metrics
        .set("runtime.queue_depth_max", queue_max, "count");
    out.reconcile_service(&submit, &wait, &latency);

    let mut spans = SpanLog::new();
    let (mut stage_rows, mut unaccounted, mut extents, mut outside) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_lat, mut untraced_lat) = (Vec::new(), Vec::new());
    for (i, s) in samples.iter().enumerate() {
        let latency = ms(s.t2 - s.t0);
        let Some(timeline) = &s.timeline else {
            untraced_lat.push(latency);
            continue;
        };
        traced_lat.push(latency);
        let events = parse_timeline(timeline);
        let (walls, extent) = timeline_walls(&events);
        unaccounted.push(extent - walls.iter().sum::<f64>());
        stage_rows.push(walls);
        extents.push(extent);
        outside.push(latency - extent);
        let job = i as u64;
        let root = spans.record("service.job", s.t0, s.t2, None, job);
        spans.record("service.submit", s.t0, s.t1, Some(root), job);
        let call = if s.class == Class::CodedFetch {
            "service.fetch"
        } else {
            "service.digest"
        };
        spans.record(call, s.t1, s.t2, Some(root), job);
        let base = spans.start_of(root);
        let origin = events.iter().map(|e| e.2).min().unwrap_or(0);
        for (name, rank, ts, dur) in &events {
            let start = base + (ts - origin) * 1_000;
            spans.push(
                format!("engine.{name}[rank {rank}]"),
                start,
                start + dur * 1_000,
                Some(root),
                job,
            );
        }
    }
    let stage_medians: Vec<f64> = (0..6)
        .map(|i| median(&stage_rows.iter().map(|w| w[i]).collect::<Vec<_>>()))
        .collect();
    for (name, v) in crate::oneshot::STAGE_METRICS.iter().zip(&stage_medians) {
        out.metrics.set(name, *v, "ms");
    }
    out.metrics
        .set("engine.unaccounted_ms", median(&unaccounted), "ms");
    let outside_p50 = median(&outside);
    out.metrics
        .set("service.outside_engine_ms", outside_p50, "ms");
    out.metrics.set(
        "trace.overhead_ratio",
        median(&traced_lat) / median(&untraced_lat),
        "ratio",
    );
    out.reconcile_engine(&stage_rows, &unaccounted, &extents);
    out.layer_check(
        "service.outside_engine_ms >= 50% of job_p50_ms",
        outside_p50 / p50,
        0.5,
    );

    // Network counts of the executed job sequence, from one-shot runs of
    // the same inputs on the same engine configuration.
    let mut per_input = Vec::new();
    for input in &inputs {
        let coded = run_coded_terasort(input.data.clone(), &SortJob::local(mix.k, mix.r))
            .map_err(|e| format!("coded reference: {e}"))?;
        let plain = run_terasort(input.data.clone(), &SortJob::local(mix.k, 1))
            .map_err(|e| format!("uncoded reference: {e}"))?;
        per_input.push([&coded.outcome, &plain.outcome].map(|o| {
            (
                o.stats.shuffle_bytes() as f64,
                o.trace.stage_wire_sends(stages::SHUFFLE) as f64,
                o.trace.stage_events(stages::SHUFFLE).count() as f64,
            )
        }));
    }
    let n = samples.len() as f64;
    let mean = |f: &dyn Fn(&(f64, f64, f64)) -> f64| -> f64 {
        samples
            .iter()
            .map(|s| f(&per_input[s.input][usize::from(s.class == Class::Uncoded)]))
            .sum::<f64>()
            / n
    };
    let bytes = mean(&|c| c.0);
    out.metrics.set("net.shuffle_bytes", bytes, "bytes");
    out.metrics.set(
        "net.shuffle_load",
        bytes / (mix.records as f64 * 100.0),
        "ratio",
    );
    out.metrics.set("net.wire_sends", mean(&|c| c.1), "count");
    // The in-memory fabric is unshaped: no NIC model, so no ceiling.
    out.metrics.set("net.shuffle_ceiling_ms", 0.0, "ms");
    out.metrics.set("net.shuffle_efficiency", 0.0, "ratio");
    let coded_packet = per_input
        .iter()
        .map(|p| p[0].0 / p[0].2.max(1.0))
        .sum::<f64>()
        / per_input.len() as f64;
    let cluster = EngineConfig::local(mix.k, mix.r).cluster;
    layers::net(&mut out, &cluster, mix.r, coded_packet as usize, args.quick)?;
    layers::terasort(&mut out, &inputs[0].data, mix.k, mix.r, args.quick);
    let validate: Vec<f64> = inputs
        .iter()
        .map(|i| {
            let t = Instant::now();
            cts_terasort::validate(&i.data, &i.outputs).map(|()| ms(t.elapsed()))
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("TeraValidate failed: {e}"))?;
    out.metrics
        .set("terasort.validate_ms", median(&validate), "ms");
    drop(inputs);
    layers::core(&mut out, args.seed, args.quick)?;
    out.spans = Some(spans);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_parses_and_reduces() {
        let json = r#"{"traceEvents":[{"name":"Map","cat":"stage","ph":"X","ts":100,"dur":50,"pid":3,"tid":0},{"name":"Map","cat":"stage","ph":"X","ts":100,"dur":70,"pid":3,"tid":1},{"name":"Reduce","cat":"stage","ph":"X","ts":180,"dur":20,"pid":3,"tid":1}],"displayTimeUnit":"ms"}"#;
        let events = parse_timeline(json);
        assert_eq!(events.len(), 3);
        assert_eq!(events[1], ("Map".to_string(), 1, 100, 70));
        let (walls, extent) = timeline_walls(&events);
        // Rank 1 ends last: its Map and Reduce are the critical path.
        assert_eq!(walls[1], 0.07);
        assert_eq!(walls[5], 0.02);
        assert_eq!(extent, 0.1);
    }

    #[test]
    fn mix_shares_hold() {
        let mut rng = StdRng::seed_from_u64(9);
        let draws: Vec<Class> = (0..10_000).map(|_| Class::draw(&mut rng)).collect();
        let share = |c| draws.iter().filter(|&&d| d == c).count() as f64 / 1e4;
        assert!((share(Class::Coded) - 0.7).abs() < 0.02);
        assert!((share(Class::Uncoded) - 0.2).abs() < 0.02);
        assert!((share(Class::CodedFetch) - 0.1).abs() < 0.02);
    }

    #[test]
    fn scrape_reads_a_series() {
        let text = "# TYPE a gauge\na 3\nb{quantile=\"0.5\"} 0.25\n";
        assert_eq!(scrape_value(text, "a"), Some(3.0));
        assert_eq!(scrape_value(text, "b{quantile=\"0.5\"}"), Some(0.25));
        assert_eq!(scrape_value(text, "c"), None);
    }
}
