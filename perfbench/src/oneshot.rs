//! The one-shot workloads: a CodedTeraSort driver call per job, one job in
//! flight, every output checked against an in-memory `r = 1` TeraSort of
//! the same input.

use std::process::Command;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cts_core::decode::DecodeMode;
use cts_core::field::FieldKind;
use cts_mapreduce::stage::{stages, EngineConfig, WallTimes};
use cts_mapreduce::JobOutcome;
use cts_net::rate::NicProfile;
use cts_netsim::config::NetModelConfig;
use cts_netsim::fluid::predict_fabric_shuffle_s;
use cts_terasort::{run_coded_terasort, run_terasort, teragen, validate, SortJob};
use serde::json::Value;

use crate::layers;
use crate::util::{median, ms, process_cpu, SpanLog};
use crate::{Args, Outcome};

/// The layer a one-shot workload was chosen to load.
pub enum Loads {
    /// Map and Reduce: the terasort kernels.
    Compute,
    /// The shuffle: `cts-net` and the NIC.
    Shuffle,
}

/// One-shot workload parameters.
pub struct OneShot {
    pub loads: Loads,
    pub records: usize,
    pub k: usize,
    pub r: usize,
    pub field: FieldKind,
    pub decode: DecodeMode,
    pub tcp: bool,
    pub nic: Option<NicProfile>,
}

impl OneShot {
    /// CPU-bound: K=4, r=3, GF(256), quorum decode, in-memory fabric, no
    /// NIC shaping, 1,000,000 records (100 MB) per job.
    pub fn sort_cpu(quick: bool) -> OneShot {
        OneShot {
            loads: Loads::Compute,
            records: if quick { 20_000 } else { 1_000_000 },
            k: 4,
            r: 3,
            field: FieldKind::Gf256,
            decode: DecodeMode::Quorum,
            tcp: false,
            nic: None,
        }
    }

    /// NIC-bound: the paper's K=16, r=3, GF(2), barrier-on-all decode,
    /// loopback TCP with every rank behind a 100 Mbps NIC, 100,000
    /// records (10 MB) per job.
    pub fn shuffle_k16(quick: bool) -> OneShot {
        OneShot {
            loads: Loads::Shuffle,
            records: if quick { 8_000 } else { 100_000 },
            k: 16,
            r: 3,
            field: FieldKind::Gf2,
            decode: DecodeMode::All,
            tcp: true,
            nic: Some(NicProfile::paper_100mbps()),
        }
    }

    pub fn job(&self) -> SortJob {
        let engine = if self.tcp {
            EngineConfig::tcp(self.k, self.r)
        } else {
            EngineConfig::local(self.k, self.r)
        };
        let job = SortJob {
            engine,
            ..SortJob::local(self.k, self.r)
        }
        .with_field(self.field)
        .with_decode(self.decode);
        match self.nic {
            Some(nic) => job.with_nic(nic),
            None => job,
        }
    }

    pub fn params(&self) -> Value {
        Value::object([
            ("records", Value::UInt(self.records as u64)),
            ("input_mb", Value::Float(self.records as f64 * 100.0 / 1e6)),
            ("k", Value::UInt(self.k as u64)),
            ("r", Value::UInt(self.r as u64)),
            ("field", Value::Str(format!("{:?}", self.field))),
            ("decode", Value::Str(self.decode.to_string())),
            (
                "fabric",
                Value::Str(if self.tcp { "tcp" } else { "local" }.into()),
            ),
            (
                "nic",
                Value::Str(match self.nic {
                    Some(n) => format!(
                        "{:.0} Mbps, {:.1} ms/transfer, alpha {}",
                        n.rate_bytes_per_sec.unwrap_or(0.0) * 8.0 / 1e6,
                        n.latency_s * 1e3,
                        n.multicast_alpha
                    ),
                    None => "unshaped".into(),
                }),
            ),
            ("jobs_in_flight", Value::UInt(1)),
        ])
    }
}

/// The netsim model of `nic`: the same rate, per-transfer latency and
/// multicast α, with no TCP-efficiency or group-setup terms.
fn net_model(nic: &NicProfile) -> Option<NetModelConfig> {
    Some(NetModelConfig {
        bandwidth_bits_per_sec: nic.rate_bytes_per_sec? * 8.0,
        tcp_efficiency: 1.0,
        per_transfer_latency_s: nic.latency_s,
        multicast_alpha: nic.multicast_alpha,
        group_setup_s: 0.0,
    })
}

/// Slowest-rank stage walls (ms) in pipeline order: CodeGen, Map, Encode,
/// Shuffle, Decode, Reduce.
fn stage_walls_ms(w: &WallTimes) -> [f64; 6] {
    let m = &w.max;
    [
        ms(m.codegen),
        ms(m.map),
        ms(m.pack_encode),
        ms(m.shuffle),
        ms(m.unpack_decode),
        ms(m.reduce),
    ]
}

/// The engine stage metric names, in [`stage_walls_ms`] order.
pub const STAGE_METRICS: [&str; 6] = [
    "engine.codegen_ms",
    "engine.map_ms",
    "engine.encode_ms",
    "engine.shuffle_ms",
    "engine.decode_ms",
    "engine.reduce_ms",
];

/// Checks one job's output: TeraValidate, then byte identity with the
/// reference. Returns the TeraValidate time.
fn check(input: &Bytes, outputs: &[Vec<u8>], reference: &[Vec<u8>]) -> Result<Duration, String> {
    let t = Instant::now();
    validate(input, outputs).map_err(|e| format!("TeraValidate failed: {e}"))?;
    let took = t.elapsed();
    if outputs != reference {
        return Err("output differs from the in-memory r=1 TeraSort reference".into());
    }
    Ok(took)
}

/// Child-process mode: the cold first job of a fresh process, seconds.
/// The input is generated first and not timed.
pub fn setup_probe(w: &OneShot, seed: u64) -> Result<f64, String> {
    let input = teragen::generate(w.records, seed);
    let t = Instant::now();
    let run = run_coded_terasort(input.clone(), &w.job()).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    validate(&input, &run.outcome.outputs).map_err(|e| format!("TeraValidate failed: {e}"))?;
    Ok(secs)
}

/// Runs this executable in setup-probe mode and reads the cold-job time.
fn spawn_setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
    ])
    .arg("--setup-probe");
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("setup probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "setup probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("setup probe printed no time: {stdout}"))
}

/// Per-job engine figures the traced run aggregates.
#[derive(Default)]
struct EngineSamples {
    stages: Vec<[f64; 6]>,
    unaccounted: Vec<f64>,
    ceiling_ms: Vec<f64>,
    validate_ms: Vec<f64>,
}

/// Attaches the engine's returned stage spans beneath `parent`. The
/// engine's clock origin is unknown to the harness, so the spans are
/// shifted to start where the parent starts.
fn attach_engine_spans(spans: &mut SpanLog, outcome: &JobOutcome, parent: usize, job: u64) {
    let log = &outcome.spans;
    let origin = log.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let base = spans.start_of(parent);
    for s in &log.spans {
        spans.push(
            format!("engine.{}[rank {}]", log.stage_name(s.stage), s.rank),
            base + (s.start_ns - origin),
            base + (s.end_ns - origin),
            Some(parent),
            job,
        );
    }
}

pub fn run(w: &OneShot, args: &Args) -> Result<Outcome, String> {
    // Set-up: the cold first job, in fresh processes and in this one.
    let mut setup = Vec::new();
    for _ in 0..if args.quick { 1 } else { 4 } {
        setup.push(spawn_setup_probe(args)?);
    }

    let input = teragen::generate(w.records, args.seed);
    let job = w.job();
    let t = Instant::now();
    let cold = run_coded_terasort(input.clone(), &job).map_err(|e| format!("cold job: {e}"))?;
    setup.push(t.elapsed().as_secs_f64());

    let reference = run_terasort(input.clone(), &SortJob::local(w.k, 1))
        .map_err(|e| format!("reference run: {e}"))?;
    reference
        .validate()
        .map_err(|e| format!("reference TeraValidate failed: {e}"))?;
    let reference = reference.outcome.outputs;
    check(&input, &cold.outcome.outputs, &reference)?;
    drop(cold);

    let mut spans = SpanLog::new();
    let model = w.nic.as_ref().and_then(net_model);
    let fabric = job.engine.cluster.fabric;
    let mut latencies = Vec::new();
    // Traced runs alternate harness tracing on and off per job, so the
    // tracing overhead is measured inside one run; they run at least one
    // job of each kind.
    let mut untraced_latencies = Vec::new();
    let min_jobs = if args.trace { 2 } else { 1 };
    let mut cpu = Duration::ZERO;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut eng = EngineSamples::default();
    let mut net_counts = (0u64, 0u64, 0u64); // shuffle bytes, wire sends, multicasts
    let deadline = Duration::from_secs_f64(args.seconds);
    let phase = Instant::now();
    while phase.elapsed() < deadline || attempted < min_jobs {
        let traced = args.trace && attempted % 2 == 0;
        attempted += 1;
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        let result = run_coded_terasort(input.clone(), &job);
        let t1 = Instant::now();
        cpu += process_cpu().saturating_sub(cpu0);
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                eprintln!("job {attempted} failed: {e}");
                failed += 1;
                continue;
            }
        };
        let latency = ms(t1 - t0);
        let v0 = Instant::now();
        let validate_took = check(&input, &run.outcome.outputs, &reference)?;
        let v1 = Instant::now();
        if args.trace && !traced {
            untraced_latencies.push(latency);
        } else {
            latencies.push(latency);
        }
        if !args.trace {
            continue;
        }
        let outcome = &run.outcome;
        let walls = stage_walls_ms(&outcome.wall);
        eng.unaccounted.push(latency - walls.iter().sum::<f64>());
        eng.stages.push(walls);
        eng.validate_ms.push(ms(validate_took));
        net_counts = (
            outcome.stats.shuffle_bytes(),
            outcome.trace.stage_wire_sends(stages::SHUFFLE),
            outcome.trace.stage_events(stages::SHUFFLE).count() as u64,
        );
        if let Some(model) = &model {
            let ceiling =
                predict_fabric_shuffle_s(&outcome.trace, stages::SHUFFLE, fabric, model, 1.0);
            eng.ceiling_ms.push(ceiling * 1e3);
        }
        if traced {
            let id = attempted;
            let job_span = spans.record("driver.run_coded_terasort", t0, t1, None, id);
            attach_engine_spans(&mut spans, outcome, job_span, id);
            spans.record("check.validate_and_compare", v0, v1, None, id);
        }
    }
    let completed = latencies.len() + untraced_latencies.len();
    if completed == 0 {
        return Err(format!("all {attempted} jobs failed"));
    }

    let mut out = Outcome::new(attempted, failed);
    let all: Vec<f64> = latencies
        .iter()
        .chain(&untraced_latencies)
        .copied()
        .collect();
    let p50 = median(&all);
    out.metrics.set("job_p50_ms", p50, "ms");
    out.metrics.set(
        "jobs_per_s",
        completed as f64 / (all.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    out.metrics.set("setup_s", median(&setup), "s");
    out.metrics
        .set("peak_rss_mb", crate::util::peak_rss_mb(), "MiB");
    out.metrics
        .set("cpu_ms_per_job", ms(cpu) / completed as f64, "ms");
    out.note("jobs", Value::UInt(completed as u64));
    out.note(
        "setup_samples_s",
        Value::Array(setup.iter().map(|s| Value::Float(*s)).collect()),
    );
    if !args.trace {
        return Ok(out);
    }

    // ---- per-layer figures (traced run) --------------------------------
    let stage_medians: Vec<f64> = (0..6)
        .map(|i| median(&eng.stages.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .collect();
    for (name, v) in STAGE_METRICS.iter().zip(&stage_medians) {
        out.metrics.set(name, *v, "ms");
    }
    let unaccounted = median(&eng.unaccounted);
    out.metrics.set("engine.unaccounted_ms", unaccounted, "ms");
    let input_bytes = input.len() as f64;
    out.metrics
        .set("net.shuffle_bytes", net_counts.0 as f64, "bytes");
    out.metrics.set(
        "net.shuffle_load",
        net_counts.0 as f64 / input_bytes,
        "ratio",
    );
    out.metrics
        .set("net.wire_sends", net_counts.1 as f64, "count");
    let ceiling = median(&eng.ceiling_ms);
    out.metrics.set("net.shuffle_ceiling_ms", ceiling, "ms");
    out.metrics.set(
        "net.shuffle_efficiency",
        if stage_medians[3] > 0.0 {
            ceiling / stage_medians[3]
        } else {
            0.0
        },
        "ratio",
    );
    out.metrics
        .set("terasort.validate_ms", median(&eng.validate_ms), "ms");
    out.metrics.set(
        "trace.overhead_ratio",
        median(&latencies) / median(&untraced_latencies),
        "ratio",
    );
    // The service and runtime layers are not on a one-shot job's path.
    for (name, unit) in crate::PER_LAYER {
        if name.starts_with("service.") || name.starts_with("runtime.") {
            out.metrics.set(name, 0.0, unit);
        }
    }
    out.reconcile_engine(&eng.stages, &eng.unaccounted, &all);
    let (rule, share, floor) = match w.loads {
        Loads::Shuffle => (
            "engine.shuffle_ms >= 80% of job_p50_ms",
            stage_medians[3] / p50,
            0.8,
        ),
        Loads::Compute => (
            "engine.map_ms + engine.reduce_ms >= 70% of job_p50_ms",
            (stage_medians[1] + stage_medians[5]) / p50,
            0.7,
        ),
    };
    out.layer_check(rule, share, floor);
    drop(reference);

    // Layer probes, outside the measured phase.
    let packet_bytes = (net_counts.0 / net_counts.2.max(1)) as usize;
    layers::net(&mut out, &job.engine.cluster, w.r, packet_bytes, args.quick)?;
    layers::terasort(&mut out, &input, w.k, w.r, args.quick);
    drop(input);
    layers::core(&mut out, args.seed, args.quick)?;
    out.spans = Some(spans);
    Ok(out)
}
