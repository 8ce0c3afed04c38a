//! Pod-partitioned coded execution — a working implementation of the
//! paper's §VI *scalable coding* direction.
//!
//! The `K` nodes split into `K/g` disjoint pods of `g` nodes. Each pod
//! owns `1/(K/g)` of the input, placed redundantly *within the pod* as
//! `C(g, r)` files on `r`-subsets of pod members. Shuffling then has two
//! parts:
//!
//! 1. **in-pod coded multicast** — the standard CodedTeraSort exchange,
//!    run independently per pod over pod-local multicast groups (total
//!    groups: `(K/g)·C(g, r+1)` instead of `C(K, r+1)`);
//! 2. **cross-pod uncoded unicast** — intermediate values destined to
//!    nodes outside the pod carry no exploitable side information, so the
//!    file's lowest-ranked holder unicasts them directly.
//!
//! Communication load: `(g/K)(1/r)(1−r/g) + (1−g/K)`
//! ([`cts_core::theory::pod_comm_load`]); CodeGen shrinks by up to
//! `C(K, r+1) / ((K/g)·C(g, r+1))` — the tradeoff the
//! `ablation_scalable_coding` bench quantifies.

use bytes::{BufMut, Bytes, BytesMut};
use cts_core::decode::DecodePipeline;
use cts_core::encode::Encoder;
use cts_core::groups::MulticastGroups;
use cts_core::intermediate::MapOutputStore;
use cts_core::packet::CodedPacket;
use cts_core::placement::{FileId, PlacementPlan};
use cts_core::subset::NodeSet;
use cts_net::cluster::run_spmd_with_inputs;
use cts_net::message::Tag;
use cts_netsim::stats::{NodeStats, RunStats};

use crate::error::{EngineError, Result};
use crate::stage::{stages, EngineConfig, WallTimes};
use crate::uncoded::JobOutcome;
use crate::workload::Workload;

/// Runs `workload` with pod-partitioned coding: pods of `pod_size` nodes,
/// redundancy `cfg.r` within each pod.
///
/// The pod engine always uses barrier-on-all decode regardless of
/// `cfg.decode`: in-pod groups are small and rack-local, so the quorum
/// machinery's MDS payload inflation (`total/(r−1)` instead of
/// `total/r` per packet) buys nothing there — stragglers are a
/// cross-rack phenomenon, and the flat engine's quorum mode covers it.
///
/// # Errors
/// `BadConfig` unless `pod_size` divides `cfg.k` and `cfg.r < pod_size`.
pub fn run_coded_pods<W: Workload>(
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
    pod_size: usize,
) -> Result<JobOutcome> {
    let (k, r, g) = (cfg.k, cfg.r, pod_size);
    if g == 0 || k == 0 || !k.is_multiple_of(g) {
        return Err(EngineError::BadConfig {
            what: format!("pod size {g} must divide K = {k}"),
        });
    }
    if r == 0 || r >= g {
        return Err(EngineError::BadConfig {
            what: format!("need 1 <= r < pod size, got r = {r}, g = {g}"),
        });
    }
    if cfg.recovery != crate::stage::RecoveryMode::Off {
        // The pod engine's cross-pod exchange has no health layer yet;
        // recovery is a flat coded-engine feature for now.
        return Err(EngineError::BadConfig {
            what: "the pod-scoped engine does not support failure recovery; \
                   use the flat coded engine"
                .into(),
        });
    }
    let num_pods = k / g;
    let local_plan = PlacementPlan::new(g, r).expect("validated");
    let local_groups = MulticastGroups::new(g, r).expect("validated");
    if num_pods as u64 * local_groups.num_groups() >= 1 << 20 {
        return Err(EngineError::BadConfig {
            what: "too many pod groups for the tag space".into(),
        });
    }

    // Coordinator: pod p owns input slice p, split into C(g, r) files.
    let pod_slices = workload.format().split(&input, num_pods);
    let files_per_pod = local_plan.num_files() as usize;
    let pod_files: Vec<Vec<Bytes>> = pod_slices
        .iter()
        .map(|slice| workload.format().split(slice, files_per_pod))
        .collect();
    // Node n (pod p, local l) receives its local files.
    let per_node: Vec<Vec<(FileId, Bytes)>> = (0..k)
        .map(|node| {
            let (pod, local) = (node / g, node % g);
            local_plan
                .files_of_node(local)
                .map(|fid| (fid, pod_files[pod][fid.0 as usize].clone()))
                .collect()
        })
        .collect();

    let run = run_spmd_with_inputs(&cfg.cluster, per_node, |comm, my_files| {
        pod_node_main(workload, comm, my_files, cfg, g)
    })?;

    let mut outputs = Vec::with_capacity(k);
    let mut stats = RunStats::new(k, r);
    stats.num_groups = num_pods as u64 * local_groups.num_groups();
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

/// Fixed tag for cross-pod unicast traffic (FIFO per channel keeps the
/// stream ordered; receivers know the exact message counts).
fn cross_pod_tag() -> Tag {
    Tag::new(Tag::APP, 0x00C0DE)
}

fn pod_bcast_tag(pod: usize, local_gid: u64, groups_per_pod: u64) -> Tag {
    Tag::new(
        Tag::BCAST,
        (pod as u64 * groups_per_pod + local_gid) as u32 & 0x00FF_FFFF,
    )
}

/// Global node set of a pod-local set.
fn globalize(local: NodeSet, pod: usize, g: usize) -> NodeSet {
    NodeSet::from_bits(local.bits() << (pod * g))
}

type NodeResult = Result<(Vec<u8>, NodeStats)>;

fn pod_node_main<W: Workload>(
    workload: &W,
    comm: &cts_net::Communicator,
    my_files: Vec<(FileId, Bytes)>,
    cfg: &EngineConfig,
    g: usize,
) -> NodeResult {
    let k = comm.world_size();
    let r = cfg.r;
    let me = comm.rank();
    let my_pod = me / g;
    let my_local = me % g;
    let mut stats = NodeStats::default();

    // ---- CodeGen: pod-local plan + groups -------------------------------
    comm.set_stage(stages::CODEGEN);
    let plan = PlacementPlan::new(g, r).expect("validated");
    let groups = MulticastGroups::new(g, r).expect("validated");
    let groups_per_pod = groups.num_groups();
    let schedule: Vec<(u64, NodeSet, Vec<usize>)> = groups
        .iter_groups()
        .map(|(gid, m)| {
            let global = globalize(m, my_pod, g);
            (gid.0, global, global.to_vec())
        })
        .collect();
    comm.barrier()?;

    // ---- Map -------------------------------------------------------------
    // Keep rule, pod flavor:
    //  * in-pod target t: standard rule on the local plan;
    //  * out-pod target t: kept only by the file's lowest-ranked holder
    //    (the designated cross-pod sender).
    comm.set_stage(stages::MAP);
    let mut store = MapOutputStore::new(); // keyed by *global* file sets
    let mut cross_outbox: Vec<(u64, usize, Bytes)> = Vec::new(); // (file bits, target, data)
    for (fid, data) in &my_files {
        let local_nodes = plan.nodes_of_file(*fid);
        let global_nodes = globalize(local_nodes, my_pod, g);
        let is_min_holder = global_nodes.min() == Some(me);
        stats.map_input_bytes += data.len() as u64;
        stats.files_mapped += 1;
        let intermediates = workload.map_file(data, k);
        for (t, value) in intermediates.into_iter().enumerate() {
            if t / g == my_pod {
                if plan.keeps_intermediate(my_local, local_nodes, t % g) {
                    store.insert(t % g, global_nodes, Bytes::from(value));
                }
            } else if is_min_holder {
                cross_outbox.push((global_nodes.bits(), t, Bytes::from(value)));
            }
        }
    }
    comm.barrier()?;

    // ---- Encode (in-pod packets) -----------------------------------------
    comm.set_stage(stages::PACK_ENCODE);
    stats.pack_bytes = store.total_bytes()
        + cross_outbox
            .iter()
            .map(|(_, _, d)| d.len() as u64)
            .sum::<u64>();
    // The encoder works over local ids; adapt the store view.
    let local_store = LocalView {
        inner: &store,
        pod: my_pod,
        g,
    };
    let encoder = Encoder::with_field(g, r, my_local, cfg.field).expect("validated");
    let mut my_packets: std::collections::HashMap<u64, (Bytes, u64)> =
        std::collections::HashMap::new();
    let mut scratch = cts_core::encode::EncodeScratch::new();
    let mut wire_buf: Vec<u8> = Vec::new();
    for (gid, m) in groups.groups_of_node(my_local) {
        encoder.encode_group_into(m, &local_store, &mut scratch)?;
        wire_buf.clear();
        CodedPacket::write_wire(
            m,
            my_local,
            &scratch.seg_lens,
            &scratch.payload,
            &mut wire_buf,
        );
        let scalable = scratch.seg_len_sum() / r as u64;
        let wire = Bytes::copy_from_slice(&wire_buf);
        let overhead = wire.len() as u64 - scalable.min(wire.len() as u64);
        my_packets.insert(gid.0, (wire, overhead));
    }
    // Frame the cross-pod messages: [file bits u64][payload].
    let mut framed_cross: Vec<(usize, Bytes)> = Vec::with_capacity(cross_outbox.len());
    cross_outbox.sort_by_key(|(bits, t, _)| (*bits, *t));
    for (bits, t, data) in cross_outbox {
        let mut buf = BytesMut::with_capacity(8 + data.len());
        buf.put_u64_le(bits);
        buf.put_slice(&data);
        framed_cross.push((t, buf.freeze()));
    }
    comm.barrier()?;

    // ---- Shuffle: in-pod coded multicast, then cross-pod unicast -------
    // Send-first, like the flat engines: each phase pushes all of this
    // node's own messages before draining its receives, so the NICs work
    // concurrently. `strict_serial_shuffle` keeps the paper's turn-taking
    // schedule instead (senders in rank order, plus a barrier per
    // cross-pod turn). Receives drain in schedule order either way.
    comm.set_stage(stages::SHUFFLE);
    let strict = cfg.strict_serial_shuffle;
    let mut send_packet = |gid: u64, member_list: &[usize], stats: &mut NodeStats| -> Result<()> {
        let (payload, header) = my_packets.remove(&gid).expect("one packet per owned group");
        stats.sent_bytes += payload.len() as u64;
        let tag = pod_bcast_tag(my_pod, gid, groups_per_pod);
        comm.multicast_with_overhead(me, member_list, tag, Some(payload), header)?;
        Ok(())
    };
    let mine = schedule
        .iter()
        .filter(|(_, members, _)| members.contains(me));
    if !strict {
        for (gid, _, member_list) in mine.clone() {
            send_packet(*gid, member_list, &mut stats)?;
        }
    }
    let mut received_packets: Vec<Bytes> = Vec::new();
    for (gid, _, member_list) in mine {
        let tag = pod_bcast_tag(my_pod, *gid, groups_per_pod);
        for &sender in member_list {
            if sender != me {
                let payload = comm.multicast(sender, member_list, tag, None)?;
                stats.recv_bytes += payload.len() as u64;
                received_packets.push(payload);
            } else if strict {
                send_packet(*gid, member_list, &mut stats)?;
            }
        }
    }
    comm.barrier()?;

    // Cross-pod phase: every node computes every sender's outbound counts
    // so receivers know how many messages to expect.
    let min_holder_files_per_node = |node: usize| -> u64 {
        let local = node % g;
        plan.files_of_node(local)
            .filter(|fid| plan.nodes_of_file(*fid).min() == Some(local))
            .count() as u64
    };
    let mut send_cross = |stats: &mut NodeStats| -> Result<()> {
        for (t, payload) in framed_cross.drain(..) {
            stats.sent_bytes += payload.len() as u64;
            comm.send(t, cross_pod_tag(), payload)?;
        }
        Ok(())
    };
    if !strict {
        send_cross(&mut stats)?;
    }
    let mut received_cross: Vec<Bytes> = Vec::new();
    for sender in 0..k {
        if sender == me {
            if strict {
                send_cross(&mut stats)?;
            }
        } else if sender / g != my_pod {
            // Each out-pod min-holder sends one message per (file, me).
            for _ in 0..min_holder_files_per_node(sender) {
                let payload = comm.recv(sender, cross_pod_tag())?;
                stats.recv_bytes += payload.len() as u64;
                received_cross.push(payload);
            }
        }
        if strict {
            comm.barrier()?;
        }
    }
    comm.barrier()?;

    // ---- Decode -----------------------------------------------------------
    comm.set_stage(stages::UNPACK_DECODE);
    let mut pipeline = DecodePipeline::with_field(g, r, my_local, cfg.field).expect("validated");
    let mut packet = CodedPacket::empty();
    let mut recovered: Vec<(u64, Bytes)> = Vec::new(); // (global file bits, data)
    for raw in &received_packets {
        packet.read_wire(raw)?;
        stats.decode_work_bytes += packet.seg_lens.iter().map(|(_, l)| *l as u64).sum::<u64>();
        if let Some((local_file, data)) = pipeline.accept(&packet, &local_store)? {
            recovered.push((globalize(local_file, my_pod, g).bits(), Bytes::from(data)));
        }
    }
    if pipeline.in_flight() != 0 || recovered.len() as u64 != pipeline.expected_total() {
        return Err(EngineError::Protocol {
            what: format!(
                "pod node {me}: recovered {}/{} in-pod intermediates",
                recovered.len(),
                pipeline.expected_total()
            ),
        });
    }
    // Unframe the cross-pod messages.
    for raw in &received_cross {
        if raw.len() < 8 {
            return Err(EngineError::Protocol {
                what: "cross-pod frame shorter than its header".into(),
            });
        }
        stats.unpack_bytes += raw.len() as u64 - 8;
        let bits = u64::from_le_bytes(raw[..8].try_into().expect("8 bytes"));
        recovered.push((bits, raw.slice(8..)));
    }
    comm.barrier()?;

    // ---- Reduce -----------------------------------------------------------
    comm.set_stage(stages::REDUCE);
    let mut pieces: Vec<(u64, Bytes)> = store
        .take_for_target(my_local)
        .into_iter()
        .map(|(f, b)| (f.bits(), b))
        .collect();
    pieces.extend(recovered);
    pieces.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.len().cmp(&b.1.len())));
    let total: usize = pieces.iter().map(|(_, b)| b.len()).sum();
    let mut partition_data = Vec::with_capacity(total);
    for (_, b) in &pieces {
        partition_data.extend_from_slice(b);
    }
    stats.reduce_input_bytes = partition_data.len() as u64;
    let output = workload.reduce(me, &partition_data);
    comm.barrier()?;

    Ok((output, stats))
}

/// Adapter exposing the pod-global store under pod-local node ids, as the
/// encoder/decoder (which run on the local plan) expect.
struct LocalView<'a> {
    inner: &'a MapOutputStore,
    pod: usize,
    g: usize,
}

impl cts_core::intermediate::IntermediateSource for LocalView<'_> {
    fn intermediate(&self, target: usize, file: NodeSet) -> Option<&[u8]> {
        self.inner
            .intermediate(target, globalize(file, self.pod, self.g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uncoded::run_uncoded;
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
                .map(|i| ((i * 193 + 7) % 233) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn pods_match_uncoded_output() {
        let input = sample_input(4_000);
        for (k, r, g) in [
            (4usize, 1usize, 2usize),
            (6, 2, 3),
            (8, 1, 4),
            (8, 3, 4),
            (9, 2, 3),
        ] {
            let pods =
                run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(k, r), g).unwrap();
            let unc = run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(k, 1)).unwrap();
            assert_eq!(pods.outputs, unc.outputs, "k={k} r={r} g={g}");
        }
    }

    #[test]
    fn single_pod_equals_flat_coded() {
        // g = K degenerates... g must exceed r, and with one pod the
        // cross-pod phase is empty: identical to flat coded output.
        let input = sample_input(2_000);
        let pods = run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(5, 2), 5).unwrap();
        let flat = crate::coded::run_coded(&ByteSort, input, &EngineConfig::local(5, 2)).unwrap();
        assert_eq!(pods.outputs, flat.outputs);
        assert_eq!(pods.stats.num_groups, flat.stats.num_groups);
    }

    #[test]
    fn group_count_shrinks() {
        let input = sample_input(3_000);
        let pods = run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(8, 2), 4).unwrap();
        // 2 pods × C(4,3) = 8 groups, vs flat C(8,3) = 56.
        assert_eq!(pods.stats.num_groups, 8);
        let flat = crate::coded::run_coded(&ByteSort, input, &EngineConfig::local(8, 2)).unwrap();
        assert_eq!(flat.stats.num_groups, 56);
    }

    #[test]
    fn comm_load_matches_pod_theory() {
        let input = sample_input(120_000);
        let (k, r, g) = (8usize, 2usize, 4usize);
        let pods = run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(k, r), g).unwrap();
        let load = pods.stats.comm_load(input.len() as u64);
        let expected = cts_core::theory::pod_comm_load(r, k, g);
        assert!(
            (load - expected).abs() / expected < 0.15,
            "measured {load} vs theory {expected}"
        );
    }

    #[test]
    fn rejects_bad_pod_parameters() {
        let input = sample_input(100);
        assert!(run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(6, 2), 4).is_err());
        assert!(run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(6, 3), 3).is_err());
        assert!(run_coded_pods(&ByteSort, input, &EngineConfig::local(6, 0), 3).is_err());
    }

    #[test]
    fn strict_serial_matches() {
        let input = sample_input(2_000);
        let mut cfg = EngineConfig::local(6, 2);
        cfg.strict_serial_shuffle = true;
        let a = run_coded_pods(&ByteSort, input.clone(), &cfg, 3).unwrap();
        let b = run_coded_pods(&ByteSort, input, &EngineConfig::local(6, 2), 3).unwrap();
        assert_eq!(a.outputs, b.outputs);
    }
}
