//! The CodedTeraSort-style engine (paper §IV).
//!
//! Six stages, barrier-synchronized:
//!
//! 1. **CodeGen**: every node locally builds the placement, enumerates the
//!    `C(K, r+1)` multicast groups, and "initializes" them (the paper's
//!    `MPI_Comm_split`; our group communicators are member lists, so the
//!    real cost is enumeration — the EC2 cost is modeled).
//! 2. **Map**: each node hashes each of its `C(K-1, r-1)` files, keeping
//!    intermediates per the §IV-B rule.
//! 3. **Encode**: Algorithm 1 — one coded packet per group membership.
//! 4. **Multicast Shuffling**: send-first by default — every node
//!    multicasts all of its packets in schedule order, then drains its
//!    receives, so all `K` NICs work concurrently (the §VI
//!    asynchronous-execution direction).
//!    [`strict_serial_shuffle`](crate::stage::EngineConfig::strict_serial_shuffle)
//!    runs the paper's serial multicast (Fig. 9(b)) instead: groups in
//!    global id order, members taking turns in rank order. Either way the
//!    packets go over the configured
//!    [`ShuffleFabric`](cts_net::fabric::ShuffleFabric): true one-to-many
//!    sends by default, serial-unicast or fanout emulation for the
//!    ablation baselines.
//! 5. **Decode**: Algorithm 2 — received packets are cancelled against
//!    local intermediates and merged.
//! 6. **Reduce**: identical to the uncoded engine's.

use bytes::Bytes;
use cts_core::decode::{DecodeMode, DecodePipeline};
use cts_core::encode::{EncodeScratch, Encoder};
use cts_core::exec::WorkerPool;
use cts_core::groups::MulticastGroups;
use cts_core::intermediate::MapOutputStore;
use cts_core::metrics::Counter;
use cts_core::packet::CodedPacket;
use cts_core::placement::{FileId, PlacementPlan};
use cts_core::solve::mds_parts;
use cts_core::subset::NodeSet;
use cts_net::cluster::{JobBinding, SharedFabric};
use cts_net::fault::CrashPoint;
use cts_net::health::{HealthBoard, HealthConfig, Heartbeat};
use cts_net::message::Tag;
use cts_net::registry::MembershipView;
use cts_netsim::stats::{NodeStats, RunStats};

use crate::error::{EngineError, JobReport, Result};
use crate::recover::{adopt_dead_partitions, alive_sync, CrashPanic, RecoveryAbort};
use crate::stage::{stages, EngineConfig, RecoveryMode, WallTimes};
use crate::uncoded::JobOutcome;
use crate::workload::Workload;

/// Runs `workload` over `input` with the coded engine at redundancy
/// `cfg.r`.
///
/// Builds an ephemeral [`SharedFabric`] and submits the job at
/// [`JobBinding::ROOT`] — the one-shot path and the resident runtime's
/// per-job path are the same code.
///
/// # Errors
/// `BadConfig` for invalid `(K, r)`; transport and protocol failures
/// propagate.
pub fn run_coded<W: Workload>(
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
) -> Result<JobOutcome> {
    // Validate (K, r) before paying for fabric bring-up.
    PlacementPlan::new(cfg.k, cfg.r).map_err(|e| EngineError::BadConfig {
        what: e.to_string(),
    })?;
    let fabric = SharedFabric::build(&cfg.cluster)?;
    run_coded_on(&fabric, JobBinding::ROOT, workload, input, cfg)
}

/// Runs the coded engine as one job on an existing [`SharedFabric`],
/// isolated under `binding`.
///
/// Jobs on nonzero slots live in an 18-bit tag-sequence space
/// ([`Tag::JOB_SEQ_BITS`]), which bounds `C(K, r+1)`; and they cannot use
/// [`RecoveryMode::Speculative`] — the health layer's heartbeats and
/// repair traffic run on raw, unscoped transports and declaring a peer
/// dead would poison every cohabiting job, so recovery is reserved for
/// exclusive (slot-0) fabrics.
///
/// # Errors
/// `BadConfig` for invalid `(K, r)`, world-size mismatch, or the
/// shared-fabric restrictions above; transport and protocol failures
/// propagate.
pub fn run_coded_on<W: Workload>(
    fabric: &SharedFabric,
    binding: JobBinding,
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
) -> Result<JobOutcome> {
    let (k, r) = (cfg.k, cfg.r);
    if k != fabric.k() {
        return Err(EngineError::BadConfig {
            what: format!("job wants K = {k} on a fabric of {} ranks", fabric.k()),
        });
    }
    let plan = PlacementPlan::new(k, r).map_err(|e| EngineError::BadConfig {
        what: e.to_string(),
    })?;
    let groups = MulticastGroups::new(k, r).expect("validated by plan");
    let (tag_bits, tag_space) = if binding.slot == 0 {
        (24, "24-bit tag")
    } else {
        (Tag::JOB_SEQ_BITS, "18-bit job-scoped tag")
    };
    if groups.num_groups() >= 1 << tag_bits {
        return Err(EngineError::BadConfig {
            what: format!(
                "C({k},{}) = {} multicast groups exceed the {tag_space} space",
                r + 1,
                groups.num_groups()
            ),
        });
    }
    if cfg.recovery == RecoveryMode::Speculative
        && (cfg.decode != DecodeMode::Quorum || !cfg.field.supports_quorum() || r < 2)
    {
        return Err(EngineError::BadConfig {
            what: "speculative recovery requires GF(256), quorum decode, and r >= 2 \
                   (the MDS quorum absorbs one dead sender per group)"
                .into(),
        });
    }
    if cfg.recovery == RecoveryMode::Speculative && binding.slot != 0 {
        return Err(EngineError::BadConfig {
            what: "speculative recovery requires an exclusive (slot-0) fabric: \
                   heartbeats and repair traffic are unscoped and would poison \
                   cohabiting jobs"
                .into(),
        });
    }

    // Coordinator role: split the input into N = C(K, r) files and stage
    // each node's file set (zero-copy slices of the shared input buffer).
    let n = plan.num_files();
    if cfg.recovery == RecoveryMode::Speculative && n >= 1 << 16 {
        return Err(EngineError::BadConfig {
            what: format!("{n} files exceed the 16-bit recovery tag space"),
        });
    }
    let files = workload.format().split(&input, n as usize);
    let per_node: Vec<Vec<(FileId, Bytes)>> = (0..k)
        .map(|node| {
            plan.files_of_node(node)
                .map(|fid| (fid, files[fid.0 as usize].clone()))
                .collect()
        })
        .collect();

    let spmd = || {
        fabric.run_job(binding, cfg.cluster.nic, per_node, |comm, my_files| {
            node_main(workload, comm, my_files, cfg)
        })
    };
    let run = if cfg.crashes.is_empty() {
        spmd()?
    } else {
        // Crash injections with recovery off (and exhausted recovery
        // capacity with it on) kill the dying rank's thread with a typed
        // panic payload; the cluster's teardown unblocks everyone else.
        // Downcast the payload back into a structured error — anything
        // unexpected keeps propagating as a genuine panic.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(spmd)) {
            Ok(run) => run?,
            Err(payload) => {
                if let Some(c) = payload.downcast_ref::<CrashPanic>() {
                    return Err(EngineError::RankDied {
                        rank: c.rank,
                        point: c.point,
                    });
                }
                if let Some(a) = payload.downcast_ref::<RecoveryAbort>() {
                    return Err(EngineError::Unrecoverable(a.0.clone()));
                }
                std::panic::resume_unwind(payload);
            }
        }
    };

    let mut outputs: Vec<Option<Vec<u8>>> = (0..k).map(|_| None).collect();
    let mut stats = RunStats::new(k, r);
    stats.num_groups = groups.num_groups();
    let mut finished = vec![false; k];
    let mut adopted_all: Vec<(usize, Vec<u8>)> = Vec::new();
    for (rank, result) in run.results.into_iter().enumerate() {
        match result? {
            NodeOutcome::Finished {
                output,
                adopted,
                stats: node_stats,
            } => {
                outputs[rank] = Some(output);
                stats.per_node[rank] = node_stats;
                finished[rank] = true;
                adopted_all.extend(adopted);
            }
            // A crash-injected rank's slot is filled below by its
            // successor's adopted output; its stats stay default (none of
            // its work survived).
            NodeOutcome::Crashed => {}
        }
    }
    for (rank, output) in adopted_all {
        outputs[rank] = Some(output);
    }
    let outputs: Vec<Vec<u8>> = outputs
        .into_iter()
        .enumerate()
        .map(|(rank, o)| {
            o.ok_or_else(|| EngineError::Protocol {
                what: format!("rank {rank} crashed and no survivor adopted its partition"),
            })
        })
        .collect::<Result<_>>()?;
    Ok(JobOutcome {
        outputs,
        stats,
        trace: run.trace,
        wall: WallTimes::from_spans(&run.spans, |rank| finished[rank]),
        spans: run.spans,
    })
}

fn group_tag(gid: u64) -> Tag {
    Tag::new(Tag::BCAST, (gid & 0x00FF_FFFF) as u32)
}

/// Parses (zero-copy, reusing `packet`'s shell) and decodes one received
/// packet (Algorithm 2), accumulating decode-work stats and completed
/// intermediates.
fn decode_one(
    raw: &Bytes,
    packet: &mut CodedPacket,
    pipeline: &mut DecodePipeline,
    store: &MapOutputStore,
    stats: &mut NodeStats,
    recovered: &mut Vec<(NodeSet, Vec<u8>)>,
    progress: Option<&Counter>,
) -> Result<()> {
    packet.read_wire(raw)?;
    if let Some(c) = progress {
        c.inc();
    }
    // Decode work: XOR `r-1` known segments against the payload plus the
    // final merge — `r × payload` touched bytes, which at scale is the sum
    // of the packet's true segment lengths.
    stats.decode_work_bytes += packet.seg_lens.iter().map(|(_, l)| *l as u64).sum::<u64>();
    if let Some(done) = pipeline.accept(packet, store)? {
        recovered.push(done);
    }
    Ok(())
}

/// What one rank's thread hands back to the driver: a finished partition
/// (plus any partitions it adopted on behalf of dead ranks), or the
/// marker that this rank was crash-injected and recovery carried on
/// without it.
// One value exists per rank thread for the duration of the job — the
// variant size gap costs nothing worth boxing for.
#[allow(clippy::large_enum_variant)]
enum NodeOutcome {
    Finished {
        output: Vec<u8>,
        adopted: Vec<(usize, Vec<u8>)>,
        stats: NodeStats,
    },
    Crashed,
}

type NodeResult = Result<NodeOutcome>;

/// Health-layer state carried by a recovery-mode rank.
struct Recovery {
    board: HealthBoard,
    beat: Heartbeat,
    epoch: u32,
}

impl Recovery {
    fn next_epoch(&mut self) -> u32 {
        let e = self.epoch;
        self.epoch += 1;
        e
    }
}

/// Stage synchronization: plain barriers, or the alive-aware dead-mask
/// exchange when the health layer is running. Every rank walks the same
/// sequence of sync points, so the recovery epochs line up by
/// construction.
enum SyncCtx {
    Barrier,
    Recover(Box<Recovery>),
}

impl SyncCtx {
    fn sync(&mut self, comm: &cts_net::Communicator) -> Result<u128> {
        match self {
            SyncCtx::Barrier => {
                comm.barrier()?;
                Ok(0)
            }
            SyncCtx::Recover(rec) => {
                let epoch = rec.next_epoch();
                alive_sync(comm, &mut rec.board, epoch)
            }
        }
    }
}

/// Fires a configured crash injection, if this is its point. With
/// recovery off the rank dies as a panic (the cluster teardown turns it
/// into a typed fast failure); with recovery on it silences its
/// heartbeat — the only externally observable signal — and returns
/// `true` so the caller exits with [`NodeOutcome::Crashed`], leaving its
/// transport reachable (a fail-stop process, not a severed network).
fn maybe_crash(cfg: &EngineConfig, me: usize, point: CrashPoint, ctx: &mut SyncCtx) -> bool {
    if cfg.crash_point_of(me) != Some(point) {
        return false;
    }
    match ctx {
        SyncCtx::Barrier => std::panic::panic_any(CrashPanic { rank: me, point }),
        SyncCtx::Recover(rec) => {
            rec.beat.stop();
            true
        }
    }
}

/// The send half of the shuffle, shared by every schedule: this rank's
/// own coded packets, multicast one group at a time over the configured
/// fabric. A [`CrashPoint::AfterSends`]`(n)` injection kills the rank
/// after exactly `n` of these multicasts, whichever schedule issues them.
struct OwnSends<'a> {
    comm: &'a cts_net::Communicator,
    cfg: &'a EngineConfig,
    /// Wire frame and header-overhead bytes per owned group id.
    packets: std::collections::HashMap<u64, (Bytes, u64)>,
    sent: u64,
}

impl OwnSends<'_> {
    /// Multicasts the packet for group `gid` to `members` (the root arm
    /// never blocks on receivers). `Ok(true)` means a crash injection
    /// stopped the rank first and it must exit as crashed.
    fn send(
        &mut self,
        gid: u64,
        members: &[usize],
        stats: &mut NodeStats,
        ctx: &mut SyncCtx,
    ) -> Result<bool> {
        let me = self.comm.rank();
        if maybe_crash(self.cfg, me, CrashPoint::AfterSends(self.sent), ctx) {
            return Ok(true);
        }
        let (payload, header) = self
            .packets
            .remove(&gid)
            .expect("one packet per owned group");
        stats.sent_bytes += payload.len() as u64;
        self.comm
            .multicast_with_overhead(me, members, group_tag(gid), Some(payload), header)?;
        self.sent += 1;
        Ok(false)
    }

    /// Fires an `AfterSends` budget at or past the last send, once every
    /// packet is out.
    fn finish(&self, ctx: &mut SyncCtx) -> bool {
        let me = self.comm.rank();
        match self.cfg.crash_point_of(me) {
            Some(point @ CrashPoint::AfterSends(n)) if n >= self.sent => {
                maybe_crash(self.cfg, me, point, ctx)
            }
            _ => false,
        }
    }

    /// Send-first: every owned packet in schedule order, with no receive
    /// in between, so a budget past the last send dies having sent
    /// everything and received nothing.
    fn send_all(
        &mut self,
        schedule: &[(u64, NodeSet, Vec<usize>)],
        stats: &mut NodeStats,
        ctx: &mut SyncCtx,
    ) -> Result<bool> {
        let me = self.comm.rank();
        for (gid, members, member_list) in schedule {
            if members.contains(me) && self.send(*gid, member_list, stats, ctx)? {
                return Ok(true);
            }
        }
        Ok(self.finish(ctx))
    }
}

/// Borrowed inputs `finish_reduce` needs to run the recovery agreement
/// and adoption ahead of the reduce.
struct RecoveryFinish<'a> {
    plan: &'a PlacementPlan,
    my_files: &'a [(FileId, Bytes)],
}

fn node_main<W: Workload>(
    workload: &W,
    comm: &cts_net::Communicator,
    my_files: Vec<(FileId, Bytes)>,
    cfg: &EngineConfig,
) -> NodeResult {
    let k = comm.world_size();
    let r = cfg.r;
    let me = comm.rank();
    let mut stats = NodeStats::default();
    let pool = cfg.worker_pool();
    // Live decode progress: one tick per decoded packet, readable mid-job
    // through the daemon's metric registry (`cts stats`, `/metrics`).
    let decode_ctr = comm
        .metrics()
        .map(|h| h.counter("cts_decode_packets_total"));
    // Recovery mode runs a heartbeat beacon and replaces every barrier
    // with the alive-aware dead-mask sync, so a dead rank can never
    // strand a stage transition.
    let mut ctx = if cfg.recovery == RecoveryMode::Speculative {
        let mut board = HealthBoard::new(me, k, HealthConfig::from_heartbeat(cfg.heartbeat));
        // Liveness transitions feed the runtime's metric registry when one
        // is attached (resident service); standalone runs skip this.
        if let Some(hub) = comm.metrics() {
            board = board.with_transition_counters(
                hub.counter("cts_heartbeat_suspect_total"),
                hub.counter("cts_heartbeat_dead_total"),
            );
        }
        SyncCtx::Recover(Box::new(Recovery {
            board,
            beat: Heartbeat::spawn(comm.transport().clone(), cfg.heartbeat),
            epoch: 0,
        }))
    } else {
        SyncCtx::Barrier
    };

    // ---- CodeGen -------------------------------------------------------
    comm.set_stage(stages::CODEGEN);
    let plan = PlacementPlan::new(k, r).expect("validated by driver");
    let groups = MulticastGroups::new(k, r).expect("validated by driver");
    // Materialize the global schedule: every group with its sorted member
    // list (the paper's MPI_Comm_split loop over all C(K, r+1) groups).
    let schedule: Vec<(u64, NodeSet, Vec<usize>)> = groups
        .iter_groups()
        .map(|(gid, m)| (gid.0, m, m.to_vec()))
        .collect();
    ctx.sync(comm)?;

    // ---- Map -----------------------------------------------------------
    comm.set_stage(stages::MAP);
    let mut store = MapOutputStore::new();
    // Files hash independently: fan the per-file Map out over the worker
    // pool (results come back in file order, so the store contents are
    // identical for any thread count).
    let mapped: Vec<Vec<Vec<u8>>> =
        pool.map(my_files.len(), |i| workload.map_file(&my_files[i].1, k));
    for ((fid, data), intermediates) in my_files.iter().zip(mapped) {
        let file_nodes = plan.nodes_of_file(*fid);
        stats.map_input_bytes += data.len() as u64;
        stats.files_mapped += 1;
        for (t, value) in intermediates.into_iter().enumerate() {
            if plan.keeps_intermediate(me, file_nodes, t) {
                store.insert(t, file_nodes, Bytes::from(value));
            }
        }
    }
    if maybe_crash(cfg, me, CrashPoint::MidMap, &mut ctx) {
        return Ok(NodeOutcome::Crashed);
    }
    ctx.sync(comm)?;

    // ---- Encode (Algorithm 1) -------------------------------------------
    comm.set_stage(stages::PACK_ENCODE);
    // Calibration convention: Encode cost covers serializing/splitting all
    // kept intermediates (the XOR is folded into the calibrated rate).
    stats.pack_bytes = store.total_bytes();
    let encoder = Encoder::with_field(k, r, me, cfg.field).expect("validated by driver");
    // Quorum decode needs MDS-mixed packets, which only GF(256) supports
    // (there is no nontrivial binary MDS code): over GF(2) the quorum
    // engine still polls instead of blocking per sender, but sends the
    // classic packets and needs all of them.
    let quorum = cfg.decode == DecodeMode::Quorum;
    let mds = quorum && cfg.field.supports_quorum();
    // Each packet's wire bytes split into a *scalable* part (the mean
    // segment length — the quantity that grows linearly with input size)
    // and an *overhead* part (the fixed header plus zero-padding, which is
    // a small-scale artifact: at paper scale segments are megabytes and
    // max ≈ mean). The model scales only the scalable part.
    let mut my_packets: std::collections::HashMap<u64, (Bytes, u64)> =
        std::collections::HashMap::new();
    // Groups encode independently: fan Algorithm 1 out over the pool, one
    // warm (scratch, wire buffer) pair per worker so the per-group loop is
    // allocation-free apart from the shareable wire frame itself.
    let owned_groups: Vec<(u64, NodeSet)> = groups
        .groups_of_node(me)
        .map(|(gid, m)| (gid.0, m))
        .collect();
    let encoded: Vec<Result<(u64, Bytes, u64)>> = pool.map_with(
        owned_groups.len(),
        || (EncodeScratch::new(), Vec::new()),
        |(scratch, wire), i| {
            let (gid, m) = owned_groups[i];
            wire.clear();
            let scalable = if mds {
                encoder.encode_group_mds_into(m, &store, scratch)?;
                CodedPacket::write_wire_mds(m, me, &scratch.seg_lens, &scratch.payload, wire);
                // MDS payloads are ≈ total/s (seg_lens carry the r whole
                // reconstruction lengths, each split into s parts).
                scratch.seg_len_sum() / (r as u64 * mds_parts(r + 1) as u64)
            } else {
                encoder.encode_group_into(m, &store, scratch)?;
                CodedPacket::write_wire(m, me, &scratch.seg_lens, &scratch.payload, wire);
                scratch.seg_len_sum() / r as u64
            };
            let overhead = wire.len() as u64 - scalable.min(wire.len() as u64);
            Ok((gid, Bytes::copy_from_slice(wire), overhead))
        },
    );
    for item in encoded {
        let (gid, wire, overhead) = item?;
        my_packets.insert(gid, (wire, overhead));
    }
    if maybe_crash(cfg, me, CrashPoint::MidEncode, &mut ctx) {
        return Ok(NodeOutcome::Crashed);
    }
    ctx.sync(comm)?;

    // ---- Multicast Shuffling ---------------------------------------------
    // Send-first by default (the §VI asynchronous-execution direction):
    // each rank multicasts all of its own packets in schedule order, then
    // drains its expected (group, sender) receives, so no send waits on a
    // receive and every rank's NIC drains at once. `strict_serial_shuffle`
    // keeps the paper's serial multicast (Fig. 9(b)): groups in global id
    // order, members taking turns in rank order, a barrier after each
    // group. With `pipelined_decode`, Algorithm 2 runs inline in drain
    // order; otherwise packets are buffered for the separate Decode stage,
    // as the paper executes.
    comm.set_stage(stages::SHUFFLE);
    let mut pipeline = DecodePipeline::with_field(k, r, me, cfg.field)
        .expect("validated by driver")
        .with_decode(cfg.decode);
    let mut packet_shell = CodedPacket::empty();
    let mut recovered: Vec<(NodeSet, Vec<u8>)> = Vec::new();
    let mut sends = OwnSends {
        comm,
        cfg,
        packets: my_packets,
        sent: 0,
    };
    if quorum {
        // Quorum shuffle: send first like the default schedule, then poll
        // the expected (group, sender) pairs, decoding inline. Each group
        // releases the moment its decode completes — with MDS packets,
        // after any `r − 1` of its `r` sends — so a straggling or dead
        // sender delays nothing but its own groups' last equation.
        // `strict_serial_shuffle` and `pipelined_decode` have no meaning
        // here and are ignored: the quorum loop is inherently pipelined
        // and unordered.
        if sends.send_all(&schedule, &mut stats, &mut ctx)? {
            return Ok(NodeOutcome::Crashed);
        }
        let my_gids: Vec<u64> = schedule
            .iter()
            .filter(|(_, members, _)| members.contains(me))
            .map(|(gid, _, _)| *gid)
            .collect();
        let mut got: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut pending: Vec<(u64, usize)> = schedule
            .iter()
            .filter(|(_, members, _)| members.contains(me))
            .flat_map(|(gid, _, member_list)| {
                member_list
                    .iter()
                    .filter(|&&sender| sender != me)
                    .map(move |&sender| (*gid, sender))
            })
            .collect();
        let mut done_groups: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let expected = pipeline.expected_total();
        let mut last_progress = std::time::Instant::now();
        while (recovered.len() as u64) < expected {
            if let SyncCtx::Recover(rec) = &mut ctx {
                // Drain heartbeats and drop pending receives from ranks
                // declared dead: the quorum needs only r − 1 of each
                // group's r senders, so a single death costs nothing. If
                // any unfinished group no longer has enough live senders
                // left, the job is unrecoverable — abort the whole
                // cluster with a structured report rather than stall.
                rec.board.tick(comm.transport().as_ref());
                let mut dropped = false;
                let mut i = 0;
                while i < pending.len() {
                    if !rec.board.is_alive(pending[i].1) {
                        pending.swap_remove(i);
                        dropped = true;
                    } else {
                        i += 1;
                    }
                }
                if dropped {
                    let mut alive_pending: std::collections::HashMap<u64, usize> =
                        std::collections::HashMap::new();
                    for &(gid, _) in &pending {
                        *alive_pending.entry(gid).or_insert(0) += 1;
                    }
                    let bad: Vec<u64> = my_gids
                        .iter()
                        .copied()
                        .filter(|gid| {
                            !done_groups.contains(gid)
                                && got.get(gid).copied().unwrap_or(0)
                                    + alive_pending.get(gid).copied().unwrap_or(0)
                                    < r - 1
                        })
                        .collect();
                    if !bad.is_empty() {
                        let report = JobReport {
                            dead: MembershipView::new(k, rec.board.dead_mask()).dead_ranks(),
                            unrecoverable_groups: bad,
                            what: format!(
                                "node {me}: group(s) lost more senders than the single-death \
                                 quorum margin tolerates"
                            ),
                        };
                        rec.beat.stop();
                        std::panic::panic_any(RecoveryAbort(report));
                    }
                }
            }
            let mut progressed = false;
            let mut i = 0;
            while i < pending.len() {
                let (gid, sender) = pending[i];
                if done_groups.contains(&gid) {
                    pending.swap_remove(i);
                    continue;
                }
                match comm.try_recv(sender, group_tag(gid))? {
                    Some(payload) => {
                        progressed = true;
                        *got.entry(gid).or_insert(0) += 1;
                        stats.recv_bytes += payload.len() as u64;
                        let before = recovered.len();
                        decode_one(
                            &payload,
                            &mut packet_shell,
                            &mut pipeline,
                            &store,
                            &mut stats,
                            &mut recovered,
                            decode_ctr.as_deref(),
                        )?;
                        if recovered.len() > before {
                            done_groups.insert(gid);
                        }
                        pending.swap_remove(i);
                    }
                    None => i += 1,
                }
            }
            if progressed {
                last_progress = std::time::Instant::now();
            } else if last_progress.elapsed() > cfg.idle_timeout {
                return Err(EngineError::Protocol {
                    what: format!(
                        "node {me}: quorum shuffle stalled with {}/{} groups incomplete",
                        expected - recovered.len() as u64,
                        expected
                    ),
                });
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
        ctx.sync(comm)?;

        // Decode ran inline in the quorum loop: this stage holds only its
        // closing sync.
        comm.set_stage(stages::UNPACK_DECODE);
        ctx.sync(comm)?;
        if maybe_crash(cfg, me, CrashPoint::PreReduce, &mut ctx) {
            return Ok(NodeOutcome::Crashed);
        }
        let fin = RecoveryFinish {
            plan: &plan,
            my_files: &my_files,
        };
        return finish_reduce(
            workload,
            comm,
            &pool,
            store,
            recovered,
            stats,
            &mut ctx,
            Some(fin),
        );
    }
    let strict = cfg.strict_serial_shuffle;
    if !strict && sends.send_all(&schedule, &mut stats, &mut ctx)? {
        return Ok(NodeOutcome::Crashed);
    }
    let mut received: Vec<Bytes> = Vec::new();
    for (gid, members, member_list) in &schedule {
        if members.contains(me) {
            for &sender in member_list {
                if sender != me {
                    let payload = comm.multicast(sender, member_list, group_tag(*gid), None)?;
                    stats.recv_bytes += payload.len() as u64;
                    if cfg.pipelined_decode {
                        decode_one(
                            &payload,
                            &mut packet_shell,
                            &mut pipeline,
                            &store,
                            &mut stats,
                            &mut recovered,
                            decode_ctr.as_deref(),
                        )?;
                    } else {
                        received.push(payload);
                    }
                } else if strict && sends.send(*gid, member_list, &mut stats, &mut ctx)? {
                    return Ok(NodeOutcome::Crashed);
                }
            }
        }
        if strict {
            comm.barrier()?;
        }
    }
    if strict && sends.finish(&mut ctx) {
        return Ok(NodeOutcome::Crashed);
    }
    ctx.sync(comm)?;

    // ---- Decode (Algorithm 2) --------------------------------------------
    comm.set_stage(stages::UNPACK_DECODE);
    if pool.threads() > 1 && received.len() > 1 {
        // Packets decode independently (Algorithm 2 is per-packet XOR
        // cancellation); only the final segment assembly is sequential.
        // The fan-out runs in *waves*: each wave decodes a bounded batch
        // (packets parse zero-copy into per-worker shells, accumulators
        // come from a per-worker sharded checkout of the pipeline's pool),
        // then assembles it, returning the completed groups' buffers to
        // the pool before the next wave draws from it. Receive order is
        // group-major, so a wave's completions refill the pool for the
        // next one — steady-state waves reuse buffers instead of
        // allocating one segment per packet — and results return in
        // receive order, so the outcome matches the serial path byte for
        // byte.
        let decoder = pipeline.decoder().clone();
        let wave = (pool.threads() * 16).max(64);
        for batch_start in (0..received.len()).step_by(wave) {
            let batch = &received[batch_start..(batch_start + wave).min(received.len())];
            let per_worker = batch.len().div_ceil(pool.threads());
            let segments: Vec<Result<(u64, cts_core::decode::DecodedSegment)>> = {
                let decoder = &decoder;
                pool.map_with(
                    batch.len(),
                    || (CodedPacket::empty(), pipeline.segment_shard(per_worker)),
                    |(shell, shard), i| {
                        shell.read_wire(&batch[i])?;
                        let work: u64 = shell.seg_lens.iter().map(|(_, l)| *l as u64).sum();
                        // Under process-wide lease contention a worker may
                        // cover more than `per_worker` packets: top the
                        // shard back up (one lock per refill) instead of
                        // falling through to the pool on every packet.
                        if shard.pooled() == 0 {
                            shard.refill(per_worker);
                        }
                        let mut acc = shard.get();
                        let info = decoder.decode_packet_into(shell, &store, &mut acc)?;
                        Ok((
                            work,
                            cts_core::decode::DecodedSegment {
                                file: info.file,
                                sender: info.sender,
                                position: info.position,
                                data: acc,
                            },
                        ))
                    },
                )
            };
            for item in segments {
                let (work, seg) = item?;
                stats.decode_work_bytes += work;
                if let Some(c) = &decode_ctr {
                    c.inc();
                }
                if let Some(done) = pipeline.accept_segment(seg)? {
                    recovered.push(done);
                }
            }
        }
    } else {
        for raw in &received {
            decode_one(
                raw,
                &mut packet_shell,
                &mut pipeline,
                &store,
                &mut stats,
                &mut recovered,
                decode_ctr.as_deref(),
            )?;
        }
    }
    if pipeline.in_flight() != 0 || recovered.len() as u64 != pipeline.expected_total() {
        return Err(EngineError::Protocol {
            what: format!(
                "node {me}: recovered {}/{} intermediates with {} incomplete",
                recovered.len(),
                pipeline.expected_total(),
                pipeline.in_flight()
            ),
        });
    }
    ctx.sync(comm)?;

    if maybe_crash(cfg, me, CrashPoint::PreReduce, &mut ctx) {
        return Ok(NodeOutcome::Crashed);
    }
    finish_reduce(
        workload, comm, &pool, store, recovered, stats, &mut ctx, None,
    )
}

/// The Reduce stage, shared by the barrier-on-all and quorum shuffle
/// paths: merge locally mapped and decoded pieces in ascending file order
/// for a deterministic concatenation, then reduce.
///
/// In recovery mode this is also where speculative re-execution happens:
/// the pre-reduce alive-sync fixes the canonical dead set, survivors
/// rebuild each dead rank's partition on its successor
/// ([`adopt_dead_partitions`]), under the `Recover` stage whose span
/// [`WallTimes::from_spans`] folds into the Reduce wall.
#[allow(clippy::too_many_arguments)]
fn finish_reduce<W: Workload>(
    workload: &W,
    comm: &cts_net::Communicator,
    pool: &WorkerPool,
    mut store: MapOutputStore,
    recovered: Vec<(NodeSet, Vec<u8>)>,
    mut stats: NodeStats,
    ctx: &mut SyncCtx,
    recovery: Option<RecoveryFinish<'_>>,
) -> NodeResult {
    let me = comm.rank();
    let k = comm.world_size();
    let mut adopted: Vec<(usize, Vec<u8>)> = Vec::new();
    if let SyncCtx::Recover(rec) = &mut *ctx {
        let fin = recovery.expect("recovery mode implies the quorum path");
        comm.set_stage(stages::RECOVER);
        let epoch = rec.next_epoch();
        let agreed = alive_sync(comm, &mut rec.board, epoch)?;
        if agreed != 0 {
            let membership = MembershipView::new(k, agreed);
            adopted = adopt_dead_partitions(
                workload,
                comm,
                fin.plan,
                &membership,
                fin.my_files,
                &store,
                pool,
                &mut stats,
            )?;
        }
    }
    comm.set_stage(stages::REDUCE);
    let mut pieces: Vec<(u64, Bytes)> = store
        .take_for_target(me)
        .into_iter()
        .map(|(f, b)| (f.bits(), b))
        .collect();
    pieces.extend(
        recovered
            .into_iter()
            .map(|(f, v)| (f.bits(), Bytes::from(v))),
    );
    pieces.sort_unstable_by_key(|(bits, _)| *bits);
    let total: usize = pieces.iter().map(|(_, b)| b.len()).sum();
    let mut partition_data = Vec::with_capacity(total);
    for (_, b) in &pieces {
        partition_data.extend_from_slice(b);
    }
    stats.reduce_input_bytes = partition_data.len() as u64;
    let output = workload.reduce_par(me, &partition_data, pool);
    ctx.sync(comm)?;

    Ok(NodeOutcome::Finished {
        output,
        adopted,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uncoded::run_uncoded;
    use crate::verify::run_sequential;
    use crate::workload::InputFormat;

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
                .map(|i| ((i * 163 + 29) % 241) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn coded_matches_sequential_k4_r2() {
        let input = sample_input(1200);
        let outcome = run_coded(&ByteSort, input.clone(), &EngineConfig::local(4, 2)).unwrap();
        assert_eq!(outcome.outputs, run_sequential(&ByteSort, &input, 4));
    }

    #[test]
    fn coded_matches_uncoded_across_k_r() {
        let input = sample_input(2000);
        for (k, r) in [(3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (6, 3)] {
            let coded = run_coded(&ByteSort, input.clone(), &EngineConfig::local(k, r)).unwrap();
            let uncoded =
                run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(k, 1)).unwrap();
            assert_eq!(coded.outputs, uncoded.outputs, "k={k} r={r}");
        }
    }

    #[test]
    fn r_equals_k_needs_no_shuffle() {
        let input = sample_input(800);
        let outcome = run_coded(&ByteSort, input.clone(), &EngineConfig::local(4, 4)).unwrap();
        assert_eq!(outcome.stats.shuffle_bytes(), 0);
        assert_eq!(outcome.stats.num_groups, 0);
        assert_eq!(outcome.outputs, run_sequential(&ByteSort, &input, 4));
    }

    #[test]
    fn comm_load_drops_r_times() {
        // Large enough that the 31-byte packet headers are noise next to
        // the payloads.
        let input = sample_input(120_000);
        let k = 6;
        let uncoded = run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(k, 1)).unwrap();
        let base_load = uncoded.stats.comm_load(input.len() as u64);
        for r in [2usize, 3] {
            let coded = run_coded(&ByteSort, input.clone(), &EngineConfig::local(k, r)).unwrap();
            let load = coded.stats.comm_load(input.len() as u64);
            let expected = cts_core::theory::coded_comm_load(r, k);
            // Real data: small deviations from the uniform-hash ideal plus
            // packet headers.
            assert!(
                (load - expected).abs() / expected < 0.25,
                "k={k} r={r}: load {load} vs theory {expected}"
            );
            // And the r× reduction vs. the uncoded baseline holds.
            let gain = base_load / load;
            assert!(gain > 0.7 * r as f64, "gain {gain} at r={r}");
        }
    }

    #[test]
    fn stats_count_groups_and_files() {
        let input = sample_input(1500);
        let outcome = run_coded(&ByteSort, input.clone(), &EngineConfig::local(5, 2)).unwrap();
        assert_eq!(outcome.stats.num_groups, 10); // C(5,3)
        for n in &outcome.stats.per_node {
            assert_eq!(n.files_mapped, 4); // C(4,1)
        }
        // Map input is r× the uncoded share in total.
        let total_mapped = outcome.stats.total(|n| n.map_input_bytes);
        assert_eq!(total_mapped, 2 * input.len() as u64);
    }

    #[test]
    fn coded_works_over_tcp() {
        let input = sample_input(900);
        let outcome = run_coded(&ByteSort, input.clone(), &EngineConfig::tcp(4, 2)).unwrap();
        assert_eq!(outcome.outputs, run_sequential(&ByteSort, &input, 4));
    }

    #[test]
    fn strict_serial_gives_same_answer() {
        let input = sample_input(1000);
        let mut cfg = EngineConfig::local(4, 2);
        cfg.strict_serial_shuffle = true;
        let a = run_coded(&ByteSort, input.clone(), &cfg).unwrap();
        let b = run_coded(&ByteSort, input, &EngineConfig::local(4, 2)).unwrap();
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn rejects_invalid_r() {
        let err = run_coded(&ByteSort, Bytes::new(), &EngineConfig::local(4, 5)).unwrap_err();
        assert!(matches!(err, EngineError::BadConfig { .. }));
    }

    #[test]
    fn pipelined_decode_matches_staged_decode() {
        let input = sample_input(2_500);
        let staged = run_coded(&ByteSort, input.clone(), &EngineConfig::local(5, 2)).unwrap();
        let pipelined = run_coded(
            &ByteSort,
            input,
            &EngineConfig::local(5, 2).with_pipelined_decode(),
        )
        .unwrap();
        assert_eq!(staged.outputs, pipelined.outputs);
        // Identical traffic and work accounting; only the wall-clock
        // attribution moves (decode inside the shuffle window).
        assert_eq!(
            staged.stats.total(|n| n.decode_work_bytes),
            pipelined.stats.total(|n| n.decode_work_bytes)
        );
        assert_eq!(
            staged.stats.shuffle_bytes(),
            pipelined.stats.shuffle_bytes()
        );
        assert!(
            pipelined.wall.max.unpack_decode
                < staged
                    .wall
                    .max
                    .unpack_decode
                    .max(std::time::Duration::from_micros(1))
                    * 50
        );
    }

    #[test]
    fn quorum_decode_matches_all_decode() {
        use cts_core::field::FieldKind;
        let input = sample_input(2200);
        for field in FieldKind::ALL {
            for (k, r) in [(4, 2), (5, 3), (4, 1), (5, 4)] {
                let cfg = EngineConfig::local(k, r).with_field(field);
                let all = run_coded(&ByteSort, input.clone(), &cfg).unwrap();
                let quorum =
                    run_coded(&ByteSort, input.clone(), &cfg.clone().decode_quorum()).unwrap();
                assert_eq!(all.outputs, quorum.outputs, "k={k} r={r} field={field}");
                // Traffic accounting stays sane: one multicast per group
                // membership either way.
                assert_eq!(all.stats.num_groups, quorum.stats.num_groups);
            }
        }
    }

    #[test]
    fn quorum_decode_works_over_tcp_and_threads() {
        use cts_core::field::FieldKind;
        let input = sample_input(1500);
        let reference = run_sequential(&ByteSort, &input, 4);
        let tcp = run_coded(
            &ByteSort,
            input.clone(),
            &EngineConfig::tcp(4, 3)
                .with_field(FieldKind::Gf256)
                .decode_quorum(),
        )
        .unwrap();
        assert_eq!(tcp.outputs, reference);
        let threaded = run_coded(
            &ByteSort,
            input,
            &EngineConfig::local(4, 3)
                .with_field(FieldKind::Gf256)
                .decode_quorum()
                .with_threads(4),
        )
        .unwrap();
        assert_eq!(threaded.outputs, reference);
    }

    #[test]
    fn speculative_recovery_matches_the_healthy_run() {
        use cts_core::field::FieldKind;
        use cts_net::fault::CrashSpec;
        let input = sample_input(3000);
        let healthy_cfg = EngineConfig::local(6, 3)
            .with_field(FieldKind::Gf256)
            .decode_quorum();
        let healthy = run_coded(&ByteSort, input.clone(), &healthy_cfg).unwrap();
        for point in [
            CrashPoint::MidMap,
            CrashPoint::MidEncode,
            CrashPoint::AfterSends(2),
            CrashPoint::PreReduce,
        ] {
            let cfg = healthy_cfg
                .clone()
                .with_recovery(RecoveryMode::Speculative)
                .with_heartbeat(std::time::Duration::from_millis(5))
                .with_crash(CrashSpec { rank: 2, point });
            let wounded = run_coded(&ByteSort, input.clone(), &cfg).unwrap();
            assert_eq!(wounded.outputs, healthy.outputs, "crash at {point}");
        }
    }

    #[test]
    fn recovery_off_fails_fast_with_the_crash_identity() {
        use cts_core::field::FieldKind;
        use cts_net::fault::CrashSpec;
        let input = sample_input(1500);
        let cfg = EngineConfig::local(5, 2)
            .with_field(FieldKind::Gf256)
            .decode_quorum()
            .with_idle_timeout(std::time::Duration::from_secs(2))
            .with_crash(CrashSpec {
                rank: 3,
                point: CrashPoint::MidMap,
            });
        let err = run_coded(&ByteSort, input, &cfg).unwrap_err();
        assert_eq!(
            err,
            EngineError::RankDied {
                rank: 3,
                point: CrashPoint::MidMap
            }
        );
    }

    #[test]
    fn two_deaths_exhaust_recovery_with_a_structured_report() {
        use cts_core::field::FieldKind;
        use cts_net::fault::CrashSpec;
        let input = sample_input(1500);
        let cfg = EngineConfig::local(5, 2)
            .with_field(FieldKind::Gf256)
            .decode_quorum()
            .with_recovery(RecoveryMode::Speculative)
            .with_heartbeat(std::time::Duration::from_millis(5))
            .with_crash(CrashSpec {
                rank: 1,
                point: CrashPoint::MidMap,
            })
            .with_crash(CrashSpec {
                rank: 4,
                point: CrashPoint::MidMap,
            });
        let err = run_coded(&ByteSort, input, &cfg).unwrap_err();
        match err {
            EngineError::Unrecoverable(report) => {
                assert_eq!(report.dead, vec![1, 4]);
                assert!(!report.unrecoverable_groups.is_empty());
            }
            other => panic!("expected Unrecoverable, got {other}"),
        }
    }

    #[test]
    fn speculative_recovery_requires_quorum_gf256_and_redundancy() {
        let input = sample_input(500);
        for cfg in [
            EngineConfig::local(4, 2).with_recovery(RecoveryMode::Speculative),
            EngineConfig::local(4, 2)
                .with_field(cts_core::field::FieldKind::Gf256)
                .with_recovery(RecoveryMode::Speculative),
            EngineConfig::local(4, 1)
                .with_field(cts_core::field::FieldKind::Gf256)
                .decode_quorum()
                .with_recovery(RecoveryMode::Speculative),
        ] {
            let err = run_coded(&ByteSort, input.clone(), &cfg).unwrap_err();
            assert!(matches!(err, EngineError::BadConfig { .. }), "{cfg:?}");
        }
    }

    #[test]
    fn trace_records_multicasts_once() {
        let input = sample_input(1200);
        let outcome = run_coded(&ByteSort, input, &EngineConfig::local(4, 2)).unwrap();
        use cts_net::trace::EventKind;
        let multicasts = outcome
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Multicast)
            .count();
        // C(4,3) groups × 3 senders each.
        assert_eq!(multicasts, 12);
        // Every multicast reaches exactly r = 2 receivers.
        assert!(outcome
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Multicast)
            .all(|e| e.fanout() == 2));
    }
}
