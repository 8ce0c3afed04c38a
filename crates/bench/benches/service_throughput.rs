//! **Service throughput** — the multi-tenant sort service under load.
//!
//! Starts one `cts serve`-equivalent [`SortService`] (resident
//! `JobRuntime`: shared fabric, admission queue, slot-leased job
//! isolation) and drives it with 8–64 concurrent tenants over the real
//! TCP wire protocol. Each tenant submits sort jobs back-to-back and
//! waits for the digest; admission refusals (queue full) back off and
//! retry — that is the service's backpressure, and the bench counts them.
//!
//! Reports jobs/sec and p50/p99 job latency per tenant count, checks
//! every digest against a locally computed reference (byte-identity with
//! one-shot runs), and dumps `BENCH_service_throughput.json` when
//! `CTS_BENCH_JSON_DIR` is set.
//!
//! Also pins the observability plane's overhead: the same load point
//! runs with stage spans + transfer tracing on (the shipped default)
//! and off, best-of-three each, and the bench **asserts** the
//! instrumented run keeps ≥ 95% of the stripped run's jobs/s.
//!
//! Quick mode for CI: `CTS_RECORDS=1000 CTS_SERVICE_TENANTS=16`.
//!
//! ```sh
//! cargo bench -p cts-bench --bench service_throughput
//! ```

use std::time::{Duration, Instant};

use cts_bench::env_usize;
use cts_bench::results::BenchDoc;
use cts_mapreduce::runtime::RuntimeConfig;
use cts_mapreduce::stage::EngineConfig;
use cts_terasort::driver::{run_terasort, SortJob};
use cts_terasort::service::{JobKind, ResultDigest, ServiceClient, SortService};
use cts_terasort::teragen;
use serde::json::Value;

const K: usize = 4;
const R: usize = 2;
/// Distinct tenant inputs (tenant t uses seed t % SEEDS).
const SEEDS: usize = 4;

struct Row {
    tenants: usize,
    jobs: usize,
    elapsed: Duration,
    latencies_ms: Vec<f64>,
    busy_retries: usize,
}

impl Row {
    fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.elapsed.as_secs_f64()
    }
    fn percentile(&self, p: f64) -> f64 {
        let mut l = self.latencies_ms.clone();
        l.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((l.len() - 1) as f64 * p).round() as usize;
        l[idx]
    }
}

fn main() {
    let records = env_usize("CTS_RECORDS", 2_000).min(20_000);
    let jobs_per_tenant = env_usize("CTS_SERVICE_JOBS", 3);
    let max_tenants = env_usize("CTS_SERVICE_TENANTS", 64);
    let tenant_counts: Vec<usize> = [8, 16, 32, 64]
        .into_iter()
        .filter(|&t| t <= max_tenants)
        .collect();

    // Tenant inputs and their one-shot reference digests: the service's
    // outputs must be byte-identical to a solo run of the same job.
    let inputs: Vec<bytes::Bytes> = (0..SEEDS as u64)
        .map(|seed| teragen::generate(records, 2017 + seed))
        .collect();
    let references: Vec<ResultDigest> = inputs
        .iter()
        .map(|input| {
            let run = run_terasort(input.clone(), &SortJob::local(K, 1)).expect("reference run");
            ResultDigest::of(&run.outcome.outputs)
        })
        .collect();

    println!(
        "SERVICE THROUGHPUT — {jobs_per_tenant} sort jobs per tenant, \
         {records} records each, K = {K}, r = {R}, shared runtime over TCP wire\n"
    );
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "tenants", "jobs", "jobs/s", "p50 (ms)", "p99 (ms)", "refused"
    );

    let mut rows = Vec::new();
    for &tenants in &tenant_counts {
        let row = drive(tenants, jobs_per_tenant, &inputs, &references, true);
        println!(
            "{:>8} {:>8} {:>10.2} {:>10.1} {:>10.1} {:>8}",
            row.tenants,
            row.jobs,
            row.jobs_per_sec(),
            row.percentile(0.50),
            row.percentile(0.99),
            row.busy_retries,
        );
        rows.push(row);
    }
    println!("\nevery job digest matched its one-shot reference. ✓");

    // Overhead pin: same load point with the observability plane on vs
    // off, best-of-three to damp scheduler noise. The instrumented
    // service must keep >= 95% of the stripped service's throughput.
    let probe_tenants = *tenant_counts.first().unwrap_or(&8);
    let best = |on: bool| {
        (0..3)
            .map(|_| drive(probe_tenants, jobs_per_tenant, &inputs, &references, on).jobs_per_sec())
            .fold(f64::MIN, f64::max)
    };
    let off_jps = best(false);
    let on_jps = best(true);
    let ratio = on_jps / off_jps;
    println!(
        "\noverhead pin at {probe_tenants} tenants: metrics+spans on {on_jps:.2} jobs/s, \
         off {off_jps:.2} jobs/s — ratio {ratio:.3}"
    );
    assert!(
        ratio >= 0.95,
        "observability overhead too high: {on_jps:.2} vs {off_jps:.2} jobs/s ({:.1}% loss)",
        (1.0 - ratio) * 100.0
    );
    println!("observability overhead within the 5% budget. ✓");

    write_artifact(records, jobs_per_tenant, &rows, (on_jps, off_jps));
}

/// One load point: `tenants` concurrent clients, each submitting
/// `jobs_per_tenant` sort jobs into a fresh service. `observability`
/// toggles the stage-span ring and transfer trace (the metric registry
/// itself always exists; its instruments are the cheap part).
fn drive(
    tenants: usize,
    jobs_per_tenant: usize,
    inputs: &[bytes::Bytes],
    references: &[ResultDigest],
    observability: bool,
) -> Row {
    let mut template = EngineConfig::local(K, R);
    if !observability {
        template.cluster = template.cluster.with_trace(false);
    }
    let cfg = RuntimeConfig::new(template)
        .with_max_concurrent(4)
        .with_queue_capacity(2 * tenants);
    let service = SortService::bind("127.0.0.1:0", cfg).expect("service bind");
    let addr = service.local_addr().expect("service addr");
    let server = std::thread::spawn(move || service.run().expect("service run"));

    let started = Instant::now();
    let per_tenant: Vec<(Vec<f64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..tenants)
            .map(|t| {
                let input = &inputs[t % inputs.len()];
                let expect = &references[t % references.len()];
                s.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("connect");
                    let mut latencies = Vec::with_capacity(jobs_per_tenant);
                    let mut retries = 0usize;
                    for _ in 0..jobs_per_tenant {
                        let job_start = Instant::now();
                        let id = loop {
                            match client.submit(&JobKind::Sort, R, input) {
                                Ok(id) => break id,
                                // Admission backpressure: the queue is
                                // full, not an error — back off and retry.
                                Err(msg) if msg.contains("admission") => {
                                    retries += 1;
                                    std::thread::sleep(Duration::from_millis(2));
                                }
                                Err(msg) => panic!("submit: {msg}"),
                            }
                        };
                        let digest = client.digest(id).expect("digest");
                        latencies.push(job_start.elapsed().as_secs_f64() * 1e3);
                        assert_eq!(&digest, expect, "tenant {t} job {id} diverged");
                    }
                    (latencies, retries)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    let mut client = ServiceClient::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");

    let mut latencies_ms = Vec::with_capacity(tenants * jobs_per_tenant);
    let mut busy_retries = 0;
    for (l, r) in per_tenant {
        latencies_ms.extend(l);
        busy_retries += r;
    }
    Row {
        tenants,
        jobs: tenants * jobs_per_tenant,
        elapsed,
        latencies_ms,
        busy_retries,
    }
}

fn write_artifact(records: usize, jobs_per_tenant: usize, rows: &[Row], overhead: (f64, f64)) {
    let (on_jps, off_jps) = overhead;
    let mut doc = BenchDoc::new("service_throughput")
        .config(
            "nproc",
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        )
        .config("k", Value::UInt(K as u64))
        .config("r", Value::UInt(R as u64))
        .config("records_per_job", Value::UInt(records as u64))
        .config("jobs_per_tenant", Value::UInt(jobs_per_tenant as u64))
        .config("observability_on_jobs_per_sec", Value::Float(on_jps))
        .config("observability_off_jobs_per_sec", Value::Float(off_jps))
        .config(
            "observability_overhead_ratio",
            Value::Float(on_jps / off_jps),
        )
        .unit("jobs_per_sec", "jobs/s")
        .unit("p50_ms", "ms")
        .unit("p99_ms", "ms");
    for row in rows {
        doc.row([
            ("tenants", Value::UInt(row.tenants as u64)),
            ("jobs", Value::UInt(row.jobs as u64)),
            ("jobs_per_sec", Value::Float(row.jobs_per_sec())),
            ("p50_ms", Value::Float(row.percentile(0.50))),
            ("p99_ms", Value::Float(row.percentile(0.99))),
            ("busy_retries", Value::UInt(row.busy_retries as u64)),
        ]);
    }
    doc.write();
}
