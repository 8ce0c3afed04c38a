//! The conventional TeraSort-style engine (paper §III).
//!
//! Five stages, barrier-synchronized like the paper's implementation:
//!
//! 1. **File placement** (untimed, done by the harness/coordinator): the
//!    input splits into `K` files, file `k` on node `k`.
//! 2. **Map**: node `k` hashes file `F_{k}` into `K` intermediates.
//! 3. **Pack**: intermediates destined to other nodes are finalized as
//!    contiguous buffers (one TCP flow per intermediate — paper §V-A).
//! 4. **Shuffle**: send-first by default — every node sends `I^j_{k}` to
//!    each node `j` back-to-back, then drains its receives, so all `K`
//!    NICs work concurrently.
//!    [`strict_serial_shuffle`](crate::stage::EngineConfig::strict_serial_shuffle)
//!    runs the paper's serial unicast (Fig. 9(a)) instead: senders take
//!    turns in rank order.
//! 5. **Unpack + Reduce**: node `k` deserializes what it received and
//!    reduces its partition.

use bytes::Bytes;
use cts_net::cluster::{JobBinding, SharedFabric};
use cts_net::message::Tag;
use cts_net::span::SpanLog;
use cts_net::trace::Trace;
use cts_netsim::stats::{NodeStats, RunStats};

use crate::error::{EngineError, Result};
use crate::stage::{stages, EngineConfig, WallTimes};
use crate::workload::Workload;

/// The result of an engine run.
#[derive(Debug)]
pub struct JobOutcome {
    /// Final output of each partition (`outputs[p]` reduced by node `p`).
    pub outputs: Vec<Vec<u8>>,
    /// Per-node measured work counts (feed to `cts_netsim::PerfModel`).
    pub stats: RunStats,
    /// Recorded transfer trace.
    pub trace: Trace,
    /// Recorded per-rank stage spans (the timeline's raw material).
    pub spans: SpanLog,
    /// Measured wall-clock stage times (slowest node per stage), derived
    /// from `spans`.
    pub wall: WallTimes,
}

/// Runs `workload` over `input` with conventional uncoded execution.
///
/// Builds an ephemeral [`SharedFabric`] and submits the job at
/// [`JobBinding::ROOT`] — the one-shot path and the resident runtime's
/// per-job path are the same code.
///
/// # Errors
/// Propagates transport failures; panics in worker closures propagate as
/// panics (after fabric teardown).
pub fn run_uncoded<W: Workload>(
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
) -> Result<JobOutcome> {
    check_k(cfg.k)?;
    let fabric = SharedFabric::build(&cfg.cluster)?;
    run_uncoded_on(&fabric, JobBinding::ROOT, workload, input, cfg)
}

fn check_k(k: usize) -> Result<()> {
    if k == 0 || k > 64 {
        return Err(EngineError::BadConfig {
            what: format!("K must be in 1..=64, got {k}"),
        });
    }
    Ok(())
}

/// Runs `workload` as one job on an existing [`SharedFabric`], isolated
/// under `binding` (tags, trace events, and the returned trace are scoped
/// to it). The job's emulated NIC comes from `cfg.cluster.nic`, so a
/// throttled tenant paces only its own sends.
///
/// # Errors
/// `BadConfig` if `cfg.k` does not match the fabric's world size;
/// otherwise as [`run_uncoded`].
pub fn run_uncoded_on<W: Workload>(
    fabric: &SharedFabric,
    binding: JobBinding,
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
) -> Result<JobOutcome> {
    let k = cfg.k;
    check_k(k)?;
    if k != fabric.k() {
        return Err(EngineError::BadConfig {
            what: format!("job wants K = {k} on a fabric of {} ranks", fabric.k()),
        });
    }
    let files = workload.format().split(&input, k);

    let run = fabric.run_job(binding, cfg.cluster.nic, files, |comm, file: Bytes| {
        node_main(workload, comm, file, cfg)
    })?;

    let mut outputs = Vec::with_capacity(k);
    let mut stats = RunStats::new(k, 1);
    for (rank, result) in run.results.into_iter().enumerate() {
        let (output, node_stats) = result?;
        outputs.push(output);
        stats.per_node[rank] = node_stats;
    }
    Ok(JobOutcome {
        outputs,
        stats,
        trace: run.trace,
        wall: WallTimes::from_spans(&run.spans, |_| true),
        spans: run.spans,
    })
}

type NodeResult = Result<(Vec<u8>, NodeStats)>;

fn node_main<W: Workload>(
    workload: &W,
    comm: &cts_net::Communicator,
    file: Bytes,
    cfg: &EngineConfig,
) -> NodeResult {
    let k = comm.world_size();
    let me = comm.rank();
    let mut stats = NodeStats::default();
    let pool = cfg.worker_pool();

    // ---- Map ----------------------------------------------------------
    comm.set_stage(stages::MAP);
    stats.map_input_bytes = file.len() as u64;
    stats.files_mapped = 1;
    let intermediates = workload.map_file_par(&file, k, &pool);
    debug_assert_eq!(intermediates.len(), k);
    comm.barrier()?;

    // ---- Pack ---------------------------------------------------------
    comm.set_stage(stages::PACK_ENCODE);
    let mut packed: Vec<Option<Bytes>> = Vec::with_capacity(k);
    for (p, data) in intermediates.into_iter().enumerate() {
        if p == me {
            packed.push(Some(Bytes::from(data)));
        } else {
            stats.pack_bytes += data.len() as u64;
            packed.push(Some(Bytes::from(data)));
        }
    }
    comm.barrier()?;

    // ---- Shuffle ------------------------------------------------------
    // Send-first unless `strict_serial_shuffle` asks for the paper's
    // serial unicast (Fig. 9(a)), where senders take turns in rank order
    // with a barrier after each turn. Receives drain in sender order
    // either way, so the partition assembles identically.
    comm.set_stage(stages::SHUFFLE);
    let strict = cfg.strict_serial_shuffle;
    let mut send_mine = |stats: &mut NodeStats| -> Result<()> {
        // Staggered destination order (s+1, s+2, …): hotspot-free when
        // every sender streams at once.
        for i in 1..k {
            let dst = (me + i) % k;
            let payload = packed[dst].take().expect("each partition sent once");
            stats.sent_bytes += payload.len() as u64;
            comm.send(dst, Tag::app(me as u32), payload)?;
        }
        Ok(())
    };
    if !strict {
        send_mine(&mut stats)?;
    }
    let mut received: Vec<Bytes> = Vec::with_capacity(k - 1);
    for sender in 0..k {
        if sender != me {
            let payload = comm.recv(sender, Tag::app(sender as u32))?;
            stats.recv_bytes += payload.len() as u64;
            received.push(payload);
        } else if strict {
            send_mine(&mut stats)?;
        }
        if strict {
            comm.barrier()?;
        }
    }
    comm.barrier()?;

    // ---- Unpack --------------------------------------------------------
    comm.set_stage(stages::UNPACK_DECODE);
    let own = packed[me].take().expect("own partition kept");
    let mut partition_data =
        Vec::with_capacity(own.len() + received.iter().map(|b| b.len()).sum::<usize>());
    partition_data.extend_from_slice(&own);
    for buf in &received {
        stats.unpack_bytes += buf.len() as u64;
        partition_data.extend_from_slice(buf);
    }
    comm.barrier()?;

    // ---- Reduce --------------------------------------------------------
    comm.set_stage(stages::REDUCE);
    stats.reduce_input_bytes = partition_data.len() as u64;
    let output = workload.reduce_par(me, &partition_data, &pool);
    comm.barrier()?;

    Ok((output, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::run_sequential;
    use crate::workload::InputFormat;

    /// Trivial workload: records are single bytes, partition = value % K,
    /// reduce sorts.
    struct ByteSort;

    impl Workload for ByteSort {
        fn name(&self) -> &str {
            "bytesort"
        }
        fn format(&self) -> InputFormat {
            InputFormat::FixedWidth(1)
        }
        fn map_file(&self, file: &[u8], num_partitions: usize) -> Vec<Vec<u8>> {
            let mut out = vec![Vec::new(); num_partitions];
            for &b in file {
                out[b as usize % num_partitions].push(b);
            }
            out
        }
        fn reduce(&self, _partition: usize, data: &[u8]) -> Vec<u8> {
            let mut v = data.to_vec();
            v.sort_unstable();
            v
        }
    }

    fn sample_input(len: usize) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| ((i * 131 + 17) % 251) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn matches_sequential_reference() {
        let input = sample_input(1000);
        let cfg = EngineConfig::local(4, 1);
        let outcome = run_uncoded(&ByteSort, input.clone(), &cfg).unwrap();
        let reference = run_sequential(&ByteSort, &input, 4);
        assert_eq!(outcome.outputs, reference);
    }

    #[test]
    fn every_input_byte_lands_somewhere() {
        let input = sample_input(777);
        let outcome = run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(3, 1)).unwrap();
        let total: usize = outcome.outputs.iter().map(|o| o.len()).sum();
        assert_eq!(total, input.len());
    }

    #[test]
    fn stats_account_for_shuffle_bytes() {
        let input = sample_input(1200);
        let outcome = run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(4, 1)).unwrap();
        // Sent == received globally.
        assert_eq!(
            outcome.stats.total(|n| n.sent_bytes),
            outcome.stats.total(|n| n.recv_bytes)
        );
        // Trace shuffle bytes match node-side accounting.
        assert_eq!(
            outcome.trace.stage_bytes(stages::SHUFFLE),
            outcome.stats.shuffle_bytes()
        );
        // Communication load ≈ 1 - 1/K (uniform bytes).
        let load = outcome.stats.comm_load(input.len() as u64);
        assert!((load - 0.75).abs() < 0.05, "load {load}");
    }

    #[test]
    fn single_node_shuffles_nothing() {
        let input = sample_input(500);
        let outcome = run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(1, 1)).unwrap();
        assert_eq!(outcome.stats.shuffle_bytes(), 0);
        let mut expect = input.to_vec();
        expect.sort_unstable();
        assert_eq!(outcome.outputs[0], expect);
    }

    #[test]
    fn strict_serial_shuffle_gives_same_answer() {
        let input = sample_input(900);
        let mut cfg = EngineConfig::local(3, 1);
        cfg.strict_serial_shuffle = true;
        let a = run_uncoded(&ByteSort, input.clone(), &cfg).unwrap();
        let b = run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(3, 1)).unwrap();
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn works_over_tcp() {
        let input = sample_input(600);
        let outcome = run_uncoded(&ByteSort, input.clone(), &EngineConfig::tcp(3, 1)).unwrap();
        let reference = run_sequential(&ByteSort, &input, 3);
        assert_eq!(outcome.outputs, reference);
    }

    #[test]
    fn rejects_bad_k() {
        let err = run_uncoded(&ByteSort, Bytes::new(), &EngineConfig::local(0, 1)).unwrap_err();
        assert!(matches!(err, EngineError::BadConfig { .. }));
    }
}
