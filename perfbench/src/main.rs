//! The repository benchmark: one command that takes a workload and a
//! seed, generates the inputs, runs the workload for a fixed time, checks
//! every output and prints the metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sort_cpu --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with harness spans on and prints the per-layer metrics.
//! `--quick` shrinks every size but keeps the code paths and the checks.
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! A wrong output exits non-zero without printing it.

mod layers;
mod oneshot;
mod service;
mod util;

use std::process::ExitCode;

use cts_core::gf256::Gf256Kernel;
use serde::json::Value;

use crate::util::{median, Metrics, SpanLog};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("job_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_job", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("engine.codegen_ms", "ms"),
    ("engine.map_ms", "ms"),
    ("engine.encode_ms", "ms"),
    ("engine.shuffle_ms", "ms"),
    ("engine.decode_ms", "ms"),
    ("engine.reduce_ms", "ms"),
    ("engine.unaccounted_ms", "ms"),
    ("net.shuffle_bytes", "bytes"),
    ("net.shuffle_load", "ratio"),
    ("net.wire_sends", "count"),
    ("net.shuffle_ceiling_ms", "ms"),
    ("net.shuffle_efficiency", "ratio"),
    ("net.multicast_us", "us"),
    ("net.unicast_mb_per_s", "MB/s"),
    ("core.codegen_ms", "ms"),
    ("core.encode_mb_per_s", "MB/s"),
    ("core.decode_mb_per_s", "MB/s"),
    ("core.gf256_gb_per_s", "GB/s"),
    ("terasort.map_mb_per_s", "MB/s"),
    ("terasort.reduce_mb_per_s", "MB/s"),
    ("terasort.validate_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("service.fetch_ms", "ms"),
    ("service.outside_engine_ms", "ms"),
    ("service.refused", "count"),
    ("runtime.lease_wait_ms", "ms"),
    ("runtime.queue_depth_max", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    setup_probe: bool,
}

const USAGE: &str = "usage: cts-perfbench --workload <sort_cpu|shuffle_k16|service_mix> \
                     --seed <n> --seconds <s> --trace <0|1> [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        quick: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// The result of one workload run.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<(&'static str, Value)>,
    pub spans: Option<SpanLog>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            metrics: Metrics::default(),
            attempted,
            failed,
            notes: Vec::new(),
            spans: None,
        }
    }

    /// Adds a field to the report line.
    pub fn note(&mut self, key: &'static str, value: Value) {
        self.notes.push((key, value));
    }

    /// Parts-to-whole check of the engine figures: per job, the stage
    /// walls plus `engine.unaccounted_ms` equal the job wall by
    /// definition, so the checks are that no job's stages exceed its wall
    /// and how far the sum of the medians lands from the median wall.
    pub fn reconcile_engine(&mut self, stages: &[[f64; 6]], unaccounted: &[f64], whole: &[f64]) {
        let parts: f64 = (0..6)
            .map(|i| median(&stages.iter().map(|s| s[i]).collect::<Vec<_>>()))
            .sum::<f64>()
            + median(unaccounted);
        let whole_p50 = median(whole);
        self.note(
            "reconcile_engine",
            Value::object([
                ("jobs", Value::UInt(whole.len() as u64)),
                (
                    "jobs_with_stages_over_wall",
                    Value::UInt(unaccounted.iter().filter(|u| **u < 0.0).count() as u64),
                ),
                ("sum_of_part_medians_ms", Value::Float(parts)),
                ("median_wall_ms", Value::Float(whole_p50)),
                ("gap_ratio", Value::Float((parts - whole_p50) / whole_p50)),
            ]),
        );
    }

    /// Parts-to-whole check of the client figures: SUBMIT plus the
    /// DIGEST/FETCH call against the client latency, per job and at the
    /// medians.
    pub fn reconcile_service(&mut self, submit: &[f64], wait: &[f64], latency: &[f64]) {
        let worst = submit
            .iter()
            .zip(wait)
            .zip(latency)
            .map(|((s, w), l)| (s + w - l).abs())
            .fold(0.0, f64::max);
        let parts = median(submit) + median(wait);
        let whole = median(latency);
        self.note(
            "reconcile_service",
            Value::object([
                ("jobs", Value::UInt(latency.len() as u64)),
                ("max_job_residual_ms", Value::Float(worst)),
                ("sum_of_part_medians_ms", Value::Float(parts)),
                ("median_latency_ms", Value::Float(whole)),
                ("gap_ratio", Value::Float((parts - whole) / whole)),
            ]),
        );
    }

    /// Reports whether the workload loads the layer it was chosen for.
    pub fn layer_check(&mut self, rule: &str, share: f64, floor: f64) {
        self.note(
            "layer_check",
            Value::object([
                ("rule", Value::Str(rule.to_string())),
                ("share", Value::Float(share)),
                ("holds", Value::Bool(share >= floor)),
            ]),
        );
    }
}

/// The revision of the git checkout the benchmark runs from, if the
/// working directory is the root of one.
fn git_revision() -> String {
    let out = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success());
    match out {
        Some(o) => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn environment(args: &Args, params: Value) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::object([
        ("nproc", Value::UInt(nproc as u64)),
        (
            "gf256_kernel",
            Value::Str(Gf256Kernel::active().to_string()),
        ),
        (
            "cts_force_scalar",
            Value::Str(std::env::var("CTS_FORCE_SCALAR").unwrap_or_default()),
        ),
        (
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("git_revision", Value::Str(git_revision())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::Float(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("quick", Value::Bool(args.quick)),
        ("workload", Value::Str(args.workload.clone())),
        ("params", params),
    ])
}

/// A workload the command can run.
enum Workload {
    OneShot(oneshot::OneShot),
    Service(service::Mix),
}

fn run(args: &Args) -> Result<(), String> {
    let workload = match args.workload.as_str() {
        "sort_cpu" => Workload::OneShot(oneshot::OneShot::sort_cpu(args.quick)),
        "shuffle_k16" => Workload::OneShot(oneshot::OneShot::shuffle_k16(args.quick)),
        "service_mix" => Workload::Service(service::Mix::new(args.quick)),
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    if args.setup_probe {
        let Workload::OneShot(w) = &workload else {
            return Err("--setup-probe applies to one-shot workloads".into());
        };
        println!("{}", oneshot::setup_probe(w, args.seed)?);
        return Ok(());
    }
    if cfg!(debug_assertions) && !args.quick {
        return Err("refusing to measure a debug build: build with --release".into());
    }
    let (params, out) = match &workload {
        Workload::OneShot(w) => (w.params(), oneshot::run(w, args)?),
        Workload::Service(mix) => (mix.params(), service::run(mix, args)?),
    };

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, value, unit) in &out.metrics.0 {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    println!(
        "{:<28} {:>14.4} ratio",
        "failed_ratio",
        out.failed as f64 / out.attempted as f64
    );
    if let Some(spans) = &out.spans {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/spans-{}-seed{}.json",
            args.workload, args.seed
        ));
        spans
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# {} spans written to {}", spans.len(), path.display());
    }
    let mut report = vec![("environment", environment(args, params))];
    report.extend(out.notes.iter().cloned());
    println!("# report {}", Value::object(report).render());
    let result = Value::object([
        ("correct", Value::Bool(true)),
        ("attempted", Value::UInt(out.attempted)),
        ("failed", Value::UInt(out.failed)),
        ("metrics", out.metrics.to_json(names)?),
    ]);
    println!("{}", result.render());
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cts-perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}
