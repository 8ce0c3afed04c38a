//! Stage names, per-stage walls derived from a job's stage spans, and
//! engine configuration.

use std::sync::Arc;
use std::time::Duration;

use cts_core::decode::DecodeMode;
use cts_core::exec::{Budget, WorkerPool};
use cts_core::field::FieldKind;
use cts_net::cluster::ClusterConfig;
use cts_net::fabric::ShuffleFabric;
use cts_net::fault::CrashSpec;
use cts_net::rate::NicProfile;
use cts_net::span::SpanLog;

/// Canonical stage labels (also used as trace stage names).
pub mod stages {
    /// Multicast-group initialization (coded only).
    pub const CODEGEN: &str = "CodeGen";
    /// Hashing input files into key partitions.
    pub const MAP: &str = "Map";
    /// Serialization: Pack (uncoded) / Encode incl. XOR (coded).
    pub const PACK_ENCODE: &str = "PackEncode";
    /// The data shuffle — the only stage whose trace events the network
    /// model charges.
    pub const SHUFFLE: &str = "Shuffle";
    /// Deserialization: Unpack (uncoded) / Decode incl. XOR (coded).
    pub const UNPACK_DECODE: &str = "UnpackDecode";
    /// Local per-partition reduction.
    pub const REDUCE: &str = "Reduce";
    /// Speculative re-execution traffic after a rank death (coded engine
    /// in recovery mode only).
    pub const RECOVER: &str = "Recover";
}

/// Whether and how the coded engine recovers from rank deaths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryMode {
    /// No health layer: a dead rank fails the job fast with a typed error
    /// (the panic-teardown path guarantees no hang). The default.
    #[default]
    Off,
    /// Heartbeat failure detection plus speculative re-execution: a dead
    /// rank's map responsibilities are re-run by survivors holding the
    /// r-fold replicated inputs, and its reduce partition is adopted by a
    /// deterministic successor. Requires GF(256), quorum decode, and
    /// `r ≥ 2`.
    Speculative,
}

impl std::str::FromStr for RecoveryMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "off" => Ok(RecoveryMode::Off),
            "speculative" => Ok(RecoveryMode::Speculative),
            other => Err(format!(
                "unknown recovery mode `{other}` (expected `speculative` or `off`)"
            )),
        }
    }
}

/// Measured wall-clock stage durations for one node.
///
/// Each stage is timed by the rank's stage span: it runs from the stage's
/// [`set_stage`](cts_net::Communicator::set_stage) up to the next one, so
/// it includes the barrier that ends it — the wait for the slowest rank
/// lands in the stage that waited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeWall {
    /// CodeGen duration.
    pub codegen: Duration,
    /// Map duration.
    pub map: Duration,
    /// Pack/Encode duration.
    pub pack_encode: Duration,
    /// Shuffle duration (includes waiting for peers — synchronous stages).
    pub shuffle: Duration,
    /// Unpack/Decode duration.
    pub unpack_decode: Duration,
    /// Reduce duration, including any speculative-recovery stage.
    pub reduce: Duration,
}

impl NodeWall {
    /// Sum of all stages.
    pub fn total(&self) -> Duration {
        self.codegen + self.map + self.pack_encode + self.shuffle + self.unpack_decode + self.reduce
    }

    /// The field the named stage's time accrues to: `Recover` folds into
    /// `reduce`; a stage outside the engine set has none.
    pub fn stage_mut(&mut self, name: &str) -> Option<&mut Duration> {
        Some(match name {
            stages::CODEGEN => &mut self.codegen,
            stages::MAP => &mut self.map,
            stages::PACK_ENCODE => &mut self.pack_encode,
            stages::SHUFFLE => &mut self.shuffle,
            stages::UNPACK_DECODE => &mut self.unpack_decode,
            stages::REDUCE | stages::RECOVER => &mut self.reduce,
            _ => return None,
        })
    }
}

/// Cluster-wide wall times: the per-stage maximum over nodes (stages are
/// barrier-synchronized, so the slowest node defines the stage).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallTimes {
    /// Slowest node per stage.
    pub max: NodeWall,
}

impl WallTimes {
    /// Derives a job's stage walls from its span log: each rank's spans
    /// are summed per stage into a [`NodeWall`], then the slowest rank
    /// per stage is taken. Ranks for which `counted` is false (crashed
    /// ranks, whose work did not survive) are left out. A job recorded
    /// with tracing off has no spans, and its walls read zero.
    pub fn from_spans(log: &SpanLog, counted: impl Fn(usize) -> bool) -> Self {
        let ranks = log.spans.iter().map(|s| s.rank as usize + 1).max();
        let mut nodes = vec![NodeWall::default(); ranks.unwrap_or(0)];
        for s in log.spans.iter().filter(|s| counted(s.rank as usize)) {
            if let Some(d) = nodes[s.rank as usize].stage_mut(log.stage_name(s.stage)) {
                *d += Duration::from_nanos(s.dur_ns());
            }
        }
        let mut max = NodeWall::default();
        for n in &nodes {
            max.codegen = max.codegen.max(n.codegen);
            max.map = max.map.max(n.map);
            max.pack_encode = max.pack_encode.max(n.pack_encode);
            max.shuffle = max.shuffle.max(n.shuffle);
            max.unpack_decode = max.unpack_decode.max(n.unpack_decode);
            max.reduce = max.reduce.max(n.reduce);
        }
        WallTimes { max }
    }
}

/// Parameters shared by the engines.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker count `K`.
    pub k: usize,
    /// Redundancy `r` (ignored by the uncoded engine).
    pub r: usize,
    /// Cluster fabric configuration.
    pub cluster: ClusterConfig,
    /// Run the paper's serial shuffle schedule (Fig. 9(a)/(b)): senders
    /// take turns — each rank receives from every earlier member of a
    /// group before sending its own packet — with a global barrier after
    /// every multicast group / sender turn. Off (the default), the
    /// shuffle is send-first: every rank pushes all of its own packets,
    /// then drains its receives, so all `K` NICs work concurrently. The
    /// packets, bytes and outputs are the same either way, and the
    /// virtual-time model replays the trace serially regardless, so this
    /// only matters for rate-limited real-time runs. The quorum decode
    /// path is always send-first and ignores it.
    pub strict_serial_shuffle: bool,
    /// Decode each coded packet as the shuffle drains it instead of in a
    /// separate stage afterwards — a step toward the paper's §VI
    /// *asynchronous execution* direction: XOR cancellation overlaps the
    /// waits for peers' packets. Packets decode in receive-drain order
    /// (schedule order: groups by id, senders by rank). Outputs are
    /// identical; the decode work simply lands inside the Shuffle
    /// wall-clock window (stats and traced bytes are unchanged, so the
    /// paper-scale model is unaffected).
    pub pipelined_decode: bool,
    /// Intra-node worker threads for the CPU-bound stages (Map hashing,
    /// per-group encode, per-packet decode, the Reduce sort). `1` (the
    /// default) runs every stage inline; higher values lease workers from
    /// the process-wide [`cts_core::exec`] budget, so K-node single-host
    /// emulation never oversubscribes the machine. Outputs are
    /// byte-identical for any value.
    pub threads: usize,
    /// The finite field coded packets are combined in: `Gf2` (the paper's
    /// XOR code, the default and reference oracle) or `Gf256` (q-ary
    /// linear combinations over runtime-dispatched SIMD kernels). Sorted
    /// outputs are byte-identical for either choice; only the coded wire
    /// payloads differ.
    pub field: FieldKind,
    /// When a receiver releases a decoded group: `All` (the paper's
    /// barrier-on-all cancel-and-divide, the default) or `Quorum` — with
    /// GF(256), MDS-mixed packets let any `r − 1` of a group's `r`
    /// packets reach full rank, so the shuffle proceeds without its
    /// slowest sender. Sorted outputs are byte-identical either way.
    pub decode: DecodeMode,
    /// How long the quorum shuffle's receive loop tolerates zero progress
    /// before declaring the shuffle stalled. Defaults to 10 s (the old
    /// hard-coded `QUORUM_IDLE_TIMEOUT`).
    pub idle_timeout: Duration,
    /// Rank-death handling (see [`RecoveryMode`]).
    pub recovery: RecoveryMode,
    /// Heartbeat interval for the health layer when recovery is on; the
    /// suspect/death deadlines derive from it
    /// (see [`cts_net::health::HealthConfig::from_heartbeat`]).
    pub heartbeat: Duration,
    /// Crash injection for failure testing: each spec kills one rank
    /// fail-stop at a stage point. Empty in production.
    pub crashes: Vec<CrashSpec>,
    /// Cooperative yield granularity for this job's worker pools: `1` (the
    /// default) keeps the legacy hold-for-the-whole-call lease behavior;
    /// `n > 1` splits each pool call into up to `n` slices, releasing and
    /// re-acquiring the thread lease between slices so concurrent jobs
    /// sharing one [`Budget`] interleave instead of serializing. Outputs
    /// are byte-identical for any value.
    pub yield_slices: usize,
    /// The thread-lease budget this job's pools draw from. `None` (the
    /// default) uses the process-wide [`cts_core::exec::global_budget`];
    /// a resident runtime installs its own budget here so *it* owns the
    /// compute that all tenant jobs share.
    pub budget: Option<Arc<Budget>>,
}

impl EngineConfig {
    /// Local in-memory cluster, redundancy `r`.
    pub fn local(k: usize, r: usize) -> Self {
        EngineConfig {
            k,
            r,
            cluster: ClusterConfig::local(k),
            strict_serial_shuffle: false,
            pipelined_decode: false,
            threads: 1,
            field: FieldKind::Gf2,
            decode: DecodeMode::All,
            idle_timeout: Duration::from_secs(10),
            recovery: RecoveryMode::Off,
            heartbeat: Duration::from_millis(25),
            crashes: Vec::new(),
            yield_slices: 1,
            budget: None,
        }
    }

    /// Loopback-TCP cluster, redundancy `r`.
    pub fn tcp(k: usize, r: usize) -> Self {
        EngineConfig {
            cluster: ClusterConfig::tcp(k),
            ..EngineConfig::local(k, r)
        }
    }

    /// Enables pipelined (asynchronous) decode.
    pub fn with_pipelined_decode(mut self) -> Self {
        self.pipelined_decode = true;
        self
    }

    /// Sets the intra-node worker-thread count for the CPU-bound stages
    /// (`0` = the machine's available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the coding field for the coded engine's packets (GF(2)
    /// XOR — the default — or GF(256) q-ary combinations). A pure
    /// performance/algebra knob: outputs are byte-identical either way.
    pub fn with_field(mut self, field: FieldKind) -> Self {
        self.field = field;
        self
    }

    /// Selects the group release policy (see
    /// [`EngineConfig::decode`]).
    pub fn with_decode(mut self, decode: DecodeMode) -> Self {
        self.decode = decode;
        self
    }

    /// Shorthand for quorum decode: release each group as soon as its
    /// MDS system reaches full rank instead of waiting for every sender.
    pub fn decode_quorum(self) -> Self {
        self.with_decode(DecodeMode::Quorum)
    }

    /// Selects how the coded shuffle's group sends hit the wire
    /// (serial-unicast, fanout, native multicast, or physical
    /// `udp-multicast` — the latter switches the cluster onto the UDP
    /// transport with its NACK reliability layer).
    pub fn with_fabric(mut self, fabric: ShuffleFabric) -> Self {
        self.cluster = self.cluster.with_fabric(fabric);
        self
    }

    /// Installs an emulated NIC on every node (egress rate, per-transfer
    /// latency, multicast `α`) so shuffle wall-clock is *measured* under
    /// the paper's network conditions instead of at memory speed.
    pub fn with_nic(mut self, nic: NicProfile) -> Self {
        self.cluster = self.cluster.with_nic(nic);
        self
    }

    /// Sets the quorum shuffle's receive-idle deadline (how long zero
    /// progress is tolerated before the shuffle is declared stalled).
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Selects the rank-death handling mode. `Speculative` requires
    /// GF(256), quorum decode, and `r ≥ 2` — validated when the job runs
    /// (`BadConfig` otherwise), since `field`/`decode`/`r` may be set
    /// after this call.
    pub fn with_recovery(mut self, recovery: RecoveryMode) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the health layer's heartbeat interval (recovery mode only).
    /// Death is declared after ~36 silent intervals (suspect deadline
    /// plus three exponentially backed-off probe windows).
    pub fn with_heartbeat(mut self, heartbeat: Duration) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Adds a crash-at-point injection (failure testing).
    pub fn with_crash(mut self, spec: CrashSpec) -> Self {
        self.crashes.push(spec);
        self
    }

    /// Sets the cooperative yield granularity (see
    /// [`EngineConfig::yield_slices`]).
    pub fn with_yield_slices(mut self, slices: usize) -> Self {
        self.yield_slices = slices;
        self
    }

    /// Installs the thread-lease budget this job's pools draw from (see
    /// [`EngineConfig::budget`]).
    pub fn with_budget(mut self, budget: Arc<Budget>) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Builds the worker pool every engine stage of this job uses,
    /// honoring `threads`, `yield_slices`, and `budget`.
    pub fn worker_pool(&self) -> WorkerPool {
        let mut pool = WorkerPool::new(self.threads);
        if self.yield_slices > 1 {
            pool = pool.with_yield(self.yield_slices);
        }
        if let Some(budget) = &self.budget {
            pool = pool.with_budget(Arc::clone(budget));
        }
        pool
    }

    /// The crash point at which `rank` dies under this config, if any.
    pub fn crash_point_of(&self, rank: usize) -> Option<cts_net::fault::CrashPoint> {
        self.crashes
            .iter()
            .find(|s| s.rank == rank)
            .map(|s| s.point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walls_from_spans_sum_per_rank_then_take_the_slowest() {
        use cts_net::span::StageSpan;
        let names = [stages::MAP, stages::RECOVER, stages::REDUCE, "init"];
        let span = |rank: u16, stage: u16, start_ms: u64, end_ms: u64| StageSpan {
            job: 7,
            rank,
            stage,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
        };
        let log = SpanLog {
            names: names.iter().map(|n| n.to_string()).collect(),
            spans: vec![
                span(0, 0, 0, 10),  // rank 0 Map 10 ms
                span(1, 0, 0, 3),   // rank 1 Map 3 ms
                span(0, 2, 10, 15), // rank 0 Reduce 5 ms
                span(1, 1, 3, 7),   // rank 1 Recover 4 ms …
                span(1, 2, 7, 12),  // … + Reduce 5 ms = 9 ms
                span(2, 0, 0, 50),  // rank 2 (crashed) Map 50 ms
                span(0, 3, 15, 99), // a stage outside the engine set
            ],
        };
        let w = WallTimes::from_spans(&log, |rank| rank != 2);
        assert_eq!(w.max.map, Duration::from_millis(10));
        assert_eq!(w.max.reduce, Duration::from_millis(9));
        assert_eq!(w.max.shuffle, Duration::ZERO);
        assert_eq!(w.max.total(), Duration::from_millis(19));
        // Counting the crashed rank too, its Map is the slowest.
        let all = WallTimes::from_spans(&log, |_| true);
        assert_eq!(all.max.map, Duration::from_millis(50));
        // No spans (recording off): every wall reads zero.
        let none = WallTimes::from_spans(&SpanLog::default(), |_| true);
        assert_eq!(none, WallTimes::default());
    }

    #[test]
    fn node_wall_total_sums() {
        let n = NodeWall {
            codegen: Duration::from_millis(1),
            map: Duration::from_millis(2),
            pack_encode: Duration::from_millis(3),
            shuffle: Duration::from_millis(4),
            unpack_decode: Duration::from_millis(5),
            reduce: Duration::from_millis(6),
        };
        assert_eq!(n.total(), Duration::from_millis(21));
    }

    #[test]
    fn recovery_knobs_round_trip() {
        let cfg = EngineConfig::local(4, 2)
            .with_recovery(RecoveryMode::Speculative)
            .with_heartbeat(Duration::from_millis(10))
            .with_idle_timeout(Duration::from_secs(3))
            .with_crash(CrashSpec {
                rank: 2,
                point: cts_net::fault::CrashPoint::MidMap,
            });
        assert_eq!(cfg.recovery, RecoveryMode::Speculative);
        assert_eq!(cfg.heartbeat, Duration::from_millis(10));
        assert_eq!(cfg.idle_timeout, Duration::from_secs(3));
        assert_eq!(
            cfg.crash_point_of(2),
            Some(cts_net::fault::CrashPoint::MidMap)
        );
        assert_eq!(cfg.crash_point_of(1), None);
        assert_eq!("speculative".parse(), Ok(RecoveryMode::Speculative));
        assert_eq!("off".parse(), Ok(RecoveryMode::Off));
        assert!("on".parse::<RecoveryMode>().is_err());
    }
}
