//! The service's wire and resident state against a live `SortService` on
//! loopback: a request round trip must not wait on Nagle's algorithm and
//! the peer's delayed ACK (Linux's floor is 40 ms), and the result cache
//! must stay within its byte budget, answering for evicted jobs with the
//! typed eviction error instead of hanging.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use coded_terasort::prelude::*;
use coded_terasort::terasort::{is_evicted, ResultDigest, RESULT_CACHE_BYTES};

/// Far below the 40 ms delayed-ACK floor a split frame would wait for.
const STALL_BOUND: Duration = Duration::from_millis(20);

/// Held by every test for its whole run, so the timed round trips never
/// share the CPU with the eviction test's 80 MB of sorting.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start(k: usize, r: usize) -> (SortService, SocketAddr) {
    let cfg = RuntimeConfig::new(EngineConfig::local(k, r))
        .with_max_concurrent(2)
        .with_queue_capacity(8);
    let svc = SortService::bind("127.0.0.1:0", cfg).unwrap();
    let addr = svc.local_addr().unwrap();
    (svc, addr)
}

fn run(svc: SortService) -> JoinHandle<()> {
    std::thread::spawn(move || svc.run().unwrap())
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Twenty warm SUBMIT+DIGEST round trips of a tiny job: two frames each
/// way per job, so a stalled frame would put the median past 40 ms.
#[test]
fn warm_submit_digest_round_trip_beats_the_delayed_ack_floor() {
    let _serial = serial();
    let (svc, addr) = start(2, 1);
    let server = run(svc);
    let input = teragen::generate(100, 5);
    let expect = ResultDigest::of(
        &run_terasort(input.clone(), &SortJob::local(2, 1))
            .unwrap()
            .outcome
            .outputs,
    );
    let mut client = ServiceClient::connect(addr).unwrap();
    let mut round_trip = || {
        let t = Instant::now();
        let id = client.submit(&JobKind::Sort, 1, &input).unwrap();
        assert_eq!(client.digest(id).unwrap(), expect);
        t.elapsed()
    };
    for _ in 0..3 {
        round_trip();
    }
    let p50 = median((0..20).map(|_| round_trip()).collect());
    assert!(p50 < STALL_BOUND, "SUBMIT+DIGEST median {p50:?}");
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// The same for SUBMIT+FETCH of a job whose 200 KB result spans many
/// TCP segments: the large response frame may not stall either.
#[test]
fn multi_segment_fetch_beats_the_delayed_ack_floor() {
    let _serial = serial();
    let (svc, addr) = start(2, 1);
    let server = run(svc);
    let input = teragen::generate(2_000, 6);
    let expect = run_terasort(input.clone(), &SortJob::local(2, 1))
        .unwrap()
        .outcome
        .outputs;
    assert!(expect.iter().map(Vec::len).sum::<usize>() >= 200_000);
    let mut client = ServiceClient::connect(addr).unwrap();
    let mut round_trip = || {
        let t = Instant::now();
        let id = client.submit(&JobKind::Sort, 1, &input).unwrap();
        let out = client.fetch(id).unwrap();
        let took = t.elapsed();
        assert_eq!(out, expect);
        took
    };
    for _ in 0..3 {
        round_trip();
    }
    let p50 = median((0..20).map(|_| round_trip()).collect());
    assert!(p50 < STALL_BOUND, "SUBMIT+FETCH median {p50:?}");
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// The first sample value of `series` in the service's Prometheus dump.
fn scrape(metrics: SocketAddr, series: &str) -> f64 {
    let mut sock = TcpStream::connect(metrics).unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    sock.read_to_string(&mut resp).unwrap();
    resp.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{series} missing from:\n{resp}"))
}

/// More than the real 64 MiB budget of results through one service: the
/// oldest job's result is evicted with the typed answer while its STATUS
/// stays `Done`, the newest results are intact, and the cache's byte
/// gauge never exceeds the budget.
#[test]
fn result_cache_evicts_oldest_jobs_past_its_byte_budget() {
    let _serial = serial();
    const JOBS: usize = 40;
    let (mut svc, addr) = start(2, 1);
    let metrics = svc.serve_metrics(("127.0.0.1", 0)).unwrap();
    let server = run(svc);
    let inputs: Vec<Bytes> = (0..4).map(|i| teragen::generate(20_000, 70 + i)).collect();
    let digests: Vec<ResultDigest> = inputs
        .iter()
        .map(|i| {
            ResultDigest::of(
                &run_terasort(i.clone(), &SortJob::local(2, 1))
                    .unwrap()
                    .outcome
                    .outputs,
            )
        })
        .collect();
    let result_bytes = inputs[0].len() * JOBS;
    assert!(
        result_bytes > RESULT_CACHE_BYTES,
        "{result_bytes} bytes do not overflow the cache"
    );

    let mut client = ServiceClient::connect(addr).unwrap();
    let ids: Vec<u32> = (0..JOBS)
        .map(|j| {
            let id = client.submit(&JobKind::Sort, 1, &inputs[j % 4]).unwrap();
            assert_eq!(client.digest(id).unwrap(), digests[j % 4], "job {j}");
            let cached = scrape(metrics, "cts_result_cache_bytes");
            assert!(
                cached <= RESULT_CACHE_BYTES as f64,
                "job {j}: {cached} bytes cached"
            );
            id
        })
        .collect();

    let first = ids[0];
    let err = client.digest(first).unwrap_err();
    assert!(is_evicted(&err), "DIGEST of evicted job: {err}");
    assert!(is_evicted(&client.fetch(first).unwrap_err()));
    assert!(is_evicted(&client.timeline(first).unwrap_err()));
    assert_eq!(client.status(first).unwrap(), RemoteStatus::Done);
    for j in JOBS - 4..JOBS {
        assert_eq!(client.digest(ids[j]).unwrap(), digests[j % 4], "job {j}");
    }
    assert!(scrape(metrics, "cts_result_cache_evictions_total") >= 1.0);
    let entries = scrape(metrics, "cts_result_cache_entries");
    assert!(entries >= 1.0 && entries < JOBS as f64, "{entries} entries");
    let stats = client.stats().unwrap();
    assert!(stats.contains("result cache:"), "{stats}");
    client.shutdown().unwrap();
    server.join().unwrap();
}
