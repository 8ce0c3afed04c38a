//! Per-layer probes of the traced run. Each times calls into one crate's
//! public functions from outside, on the workload's own configuration, and
//! checks what the calls return.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cts_core::decode::{DecodeMode, DecodePipeline};
use cts_core::encode::{EncodeScratch, Encoder};
use cts_core::field::FieldKind;
use cts_core::gf256;
use cts_core::groups::MulticastGroups;
use cts_core::intermediate::MapOutputStore;
use cts_core::packet::CodedPacket;
use cts_core::placement::PlacementPlan;
use cts_mapreduce::Workload;
use cts_net::cluster::{run_spmd, ClusterConfig};
use cts_net::Tag;
use cts_terasort::{teragen, TeraSortWorkload};
use serde::json::Value;

use crate::oneshot::OneShot;
use crate::util::{median, ms};
use crate::Outcome;

const MIB: usize = 1 << 20;

/// Median of `reps` timings of `f`, which returns the bytes it processed;
/// the result is bytes per second.
fn rate(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let bytes = f();
            bytes as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// `cts-net`: p50 time of one `Communicator::multicast` of the workload's
/// mean coded-packet size to `r` peers, and the throughput of large
/// `send`s, both via `run_spmd` on the workload's cluster configuration.
pub fn net(
    out: &mut Outcome,
    cluster: &ClusterConfig,
    r: usize,
    packet_bytes: usize,
    quick: bool,
) -> Result<(), String> {
    let calls: u32 = if quick { 50 } else { 400 };
    let payload = Bytes::from(vec![0x5A; packet_bytes.max(1)]);
    let members: Vec<usize> = (0..=r).collect();
    let run = run_spmd(cluster, |comm| -> Result<Vec<f64>, String> {
        let me = comm.rank();
        let mut times = Vec::new();
        if me > r {
            return Ok(times);
        }
        for i in 0..calls {
            let data = (me == 0).then(|| payload.clone());
            let t = Instant::now();
            let got = comm
                .multicast(0, &members, Tag::app(i), data)
                .map_err(|e| e.to_string())?;
            if me == 0 {
                times.push(t.elapsed().as_secs_f64() * 1e6);
            } else if got != payload {
                return Err(format!("rank {me} received a corrupt multicast"));
            }
        }
        Ok(times)
    })
    .map_err(|e| format!("multicast probe: {e}"))?;
    let mut root_times = Vec::new();
    for result in run.results {
        root_times.extend(result?);
    }
    out.metrics
        .set("net.multicast_us", median(&root_times), "us");

    let shaped = cluster.nic.is_some_and(|n| n.rate_bytes_per_sec.is_some());
    let (chunk, total) = match (quick, shaped) {
        (true, _) => (128 * 1024, MIB),
        (false, true) => (MIB, 4 * MIB),
        (false, false) => (MIB, 64 * MIB),
    };
    let payload = Bytes::from(
        (0..chunk)
            .map(|i| (i * 31 % 251) as u8)
            .collect::<Vec<u8>>(),
    );
    let sends = (total / chunk) as u32;
    let run = run_spmd(cluster, |comm| -> Result<Option<Duration>, String> {
        comm.barrier().map_err(|e| e.to_string())?;
        let t = Instant::now();
        match comm.rank() {
            0 => {
                for i in 0..sends {
                    comm.send(1, Tag::app(i), payload.clone())
                        .map_err(|e| e.to_string())?;
                }
                Ok(None)
            }
            1 => {
                for i in 0..sends {
                    let got = comm.recv(0, Tag::app(i)).map_err(|e| e.to_string())?;
                    if got != payload {
                        return Err("rank 1 received a corrupt unicast".into());
                    }
                }
                Ok(Some(t.elapsed()))
            }
            _ => Ok(None),
        }
    })
    .map_err(|e| format!("unicast probe: {e}"))?;
    let mut elapsed = None;
    for result in run.results {
        elapsed = elapsed.or(result?);
    }
    let elapsed = elapsed.ok_or("unicast probe: receiver reported no time")?;
    out.metrics.set(
        "net.unicast_mb_per_s",
        total as f64 / 1e6 / elapsed.as_secs_f64(),
        "MB/s",
    );
    out.note(
        "net_probe",
        Value::object([
            ("multicast_bytes", Value::UInt(packet_bytes.max(1) as u64)),
            ("multicast_calls", Value::UInt(u64::from(calls))),
            ("unicast_chunk_bytes", Value::UInt(chunk as u64)),
            ("unicast_total_bytes", Value::UInt(total as u64)),
        ]),
    );
    Ok(())
}

/// `cts-terasort` kernels: `Workload::map_file` over rank 0's files and
/// `Workload::reduce` over partition 0, on the workload's own input.
pub fn terasort(out: &mut Outcome, input: &Bytes, k: usize, r: usize, quick: bool) {
    let w = TeraSortWorkload::range(k);
    let plan = PlacementPlan::new(k, r).expect("workload (K, r) is valid");
    let files = w.format().split(input, plan.num_files() as usize);
    let mine: Vec<&Bytes> = plan
        .files_of_node(0)
        .map(|f| &files[f.0 as usize])
        .collect();
    let reps = if quick { 2 } else { 5 };
    let map_rate = rate(reps, || {
        mine.iter()
            .map(|f| {
                black_box(w.map_file(f, k));
                f.len()
            })
            .sum()
    });
    out.metrics
        .set("terasort.map_mb_per_s", map_rate / 1e6, "MB/s");

    let partition: Vec<u8> = files
        .iter()
        .flat_map(|f| w.map_file(f, k).swap_remove(0))
        .collect();
    let reduce_rate = rate(reps, || {
        black_box(w.reduce(0, &partition));
        partition.len()
    });
    out.metrics
        .set("terasort.reduce_mb_per_s", reduce_rate / 1e6, "MB/s");
}

/// Bytes of the last-level cache, from sysfs (32 MiB if unknown).
fn llc_bytes() -> usize {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .filter_map(|i| std::fs::read_to_string(dir.join(format!("index{i}/size"))).ok())
        .filter_map(|s| {
            let s = s.trim();
            let (num, mul) = match s.chars().last() {
                Some('K') => (&s[..s.len() - 1], 1024),
                Some('M') => (&s[..s.len() - 1], MIB),
                _ => (s, 1),
            };
            num.parse::<usize>().ok().map(|n| n * mul)
        })
        .max()
        .unwrap_or(32 * MIB)
}

/// `cts-core`: group + `Encoder` construction at K=16, r=3; GF(256)
/// `Encoder` and quorum `DecodePipeline` over one rank's `sort_cpu`
/// intermediates; and the active `gf256::add_scaled_slice` kernel on
/// buffers well past the caches.
pub fn core(out: &mut Outcome, seed: u64, quick: bool) -> Result<(), String> {
    let err = |e: cts_core::CodedError| e.to_string();
    let codegen: Vec<f64> = (0..if quick { 5 } else { 30 })
        .map(|_| {
            let t = Instant::now();
            let groups = MulticastGroups::new(16, 3).expect("K=16, r=3 is valid");
            let encoder = Encoder::with_field(16, 3, 0, FieldKind::Gf256).expect("valid");
            let schedule: Vec<(u64, Vec<usize>)> = groups
                .iter_groups()
                .map(|(gid, m)| (gid.0, m.to_vec()))
                .collect();
            black_box((encoder, schedule));
            ms(t.elapsed())
        })
        .collect();
    out.metrics.set("core.codegen_ms", median(&codegen), "ms");

    let sc = OneShot::sort_cpu(quick);
    let (k, r) = (sc.k, sc.r);
    let input = teragen::generate(sc.records, seed);
    let w = TeraSortWorkload::range(k);
    let plan = PlacementPlan::new(k, r).map_err(err)?;
    let files = w.format().split(&input, plan.num_files() as usize);
    let mapped: Vec<Vec<Bytes>> = files
        .iter()
        .map(|f| w.map_file(f, k).into_iter().map(Bytes::from).collect())
        .collect();
    drop(files);
    let stores: Vec<MapOutputStore> = (0..k)
        .map(|node| {
            let mut store = MapOutputStore::new();
            for fid in plan.files_of_node(node) {
                let file = plan.nodes_of_file(fid);
                for (t, value) in mapped[fid.0 as usize].iter().enumerate() {
                    if plan.keeps_intermediate(node, file, t) {
                        store.insert(t, file, value.clone());
                    }
                }
            }
            store
        })
        .collect();
    let groups = MulticastGroups::new(k, r).map_err(err)?;
    let reps = if quick { 2 } else { 5 };

    let encoder = Encoder::with_field(k, r, 0, FieldKind::Gf256).map_err(err)?;
    let mut scratch = EncodeScratch::new();
    let mut encode_err = None;
    let encode_rate = rate(reps, || {
        let mut bytes = 0;
        for (_, m) in groups.groups_of_node(0) {
            if let Err(e) = encoder.encode_group_mds_into(m, &stores[0], &mut scratch) {
                encode_err = Some(e.to_string());
            }
            bytes += scratch.seg_len_sum() as usize;
            black_box(&scratch.payload);
        }
        bytes
    });
    if let Some(e) = encode_err {
        return Err(format!("encode probe: {e}"));
    }
    out.metrics
        .set("core.encode_mb_per_s", encode_rate / 1e6, "MB/s");

    // Rank 0's incoming packets, encoded by each peer from its own store.
    let mut wires = Vec::new();
    for (_, m) in groups.groups_of_node(0) {
        for sender in m.iter().filter(|&s| s != 0) {
            let enc = Encoder::with_field(k, r, sender, FieldKind::Gf256).map_err(err)?;
            enc.encode_group_mds_into(m, &stores[sender], &mut scratch)
                .map_err(err)?;
            let mut wire = Vec::new();
            CodedPacket::write_wire_mds(m, sender, &scratch.seg_lens, &scratch.payload, &mut wire);
            wires.push(Bytes::from(wire));
        }
    }
    let mut decode_err = None;
    let decode_rate = rate(reps, || {
        let mut pipeline = DecodePipeline::with_field(k, r, 0, FieldKind::Gf256)
            .expect("valid (K, r)")
            .with_decode(DecodeMode::Quorum);
        let mut packet = CodedPacket::empty();
        let mut recovered = 0;
        for raw in &wires {
            let step = packet
                .read_wire(raw)
                .and_then(|()| pipeline.accept(&packet, &stores[0]));
            match step {
                Ok(Some((file, value))) => {
                    let want = plan
                        .file_of_nodes(file)
                        .map(|fid| &mapped[fid.0 as usize][0]);
                    if want.map_or(true, |want| *want != value) {
                        decode_err =
                            Some("decoded intermediate differs from the mapped one".into());
                    }
                    recovered += value.len();
                }
                Ok(None) => {}
                Err(e) => decode_err = Some(e.to_string()),
            }
        }
        if recovered == 0 {
            decode_err = Some("decode recovered nothing".into());
        }
        recovered
    });
    if let Some(e) = decode_err {
        return Err(format!("decode probe: {e}"));
    }
    out.metrics
        .set("core.decode_mb_per_s", decode_rate / 1e6, "MB/s");
    drop((stores, mapped, wires, input));

    // Four times the last-level cache, capped so the probe stays small on
    // hosts that report a very large shared cache.
    let llc = llc_bytes();
    let half = if quick {
        4 * MIB
    } else {
        (2 * llc).min(128 * MIB)
    };
    let src: Vec<u8> = (0..half)
        .map(|i| (i.wrapping_mul(131) >> 3) as u8)
        .collect();
    let mut dst = vec![0u8; half];
    let gf_rate = rate(reps, || {
        gf256::add_scaled_slice(&mut dst, &src, 0x57);
        black_box(&dst);
        half
    });
    out.metrics
        .set("core.gf256_gb_per_s", gf_rate / 1e9, "GB/s");
    out.note(
        "gf256_probe",
        Value::object([
            ("llc_bytes", Value::UInt(llc as u64)),
            ("src_bytes", Value::UInt(half as u64)),
            ("dst_bytes", Value::UInt(half as u64)),
        ]),
    );
    Ok(())
}
