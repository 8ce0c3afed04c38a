//! One stage clock: the per-stage walls an engine reports
//! (`JobOutcome::wall`, which feeds `cts_stage_seconds` and perfbench)
//! must be exactly what its stage spans (`JobOutcome::spans`, which feed
//! `--timeline`, TIMELINE and `cts stats`' per-job rows) say, for every
//! engine. Each rank closes one span per stage, so a stage's wall is the
//! longest of its ranks' spans.

use std::time::Duration;

use coded_terasort::mapreduce::stage::{stages, NodeWall};
use coded_terasort::prelude::*;

/// Asserts `outcome.wall.max` agrees with the spans for every stage in
/// `expected`, and that each of the `k` ranks closed one span per stage.
fn assert_walls_match_spans(
    engine: &str,
    outcome: &coded_terasort::mapreduce::uncoded::JobOutcome,
    k: usize,
    expected: &[&str],
) {
    let log = &outcome.spans;
    assert_eq!(log.stages_in_order(), expected, "{engine}: stage order");
    let mut walls: NodeWall = outcome.wall.max;
    for &stage in expected {
        let durs = log.stage_durations_ns(stage);
        assert_eq!(durs.len(), k, "{engine}: one {stage} span per rank");
        let slowest = Duration::from_nanos(*durs.iter().max().unwrap());
        let wall = *walls.stage_mut(stage).unwrap();
        assert_eq!(wall, slowest, "{engine}: {stage} wall vs spans");
        assert!(!wall.is_zero(), "{engine}: {stage} wall is zero");
    }
}

#[test]
fn engine_walls_equal_the_slowest_rank_span_per_stage() {
    let input = teragen::generate(3_000, 15);
    let coded_stages = [
        stages::CODEGEN,
        stages::MAP,
        stages::PACK_ENCODE,
        stages::SHUFFLE,
        stages::UNPACK_DECODE,
        stages::REDUCE,
    ];

    let coded = run_coded(
        &TeraSortWorkload::range(4),
        input.clone(),
        &EngineConfig::local(4, 2),
    )
    .unwrap();
    assert_walls_match_spans("coded", &coded, 4, &coded_stages);

    let uncoded = run_uncoded(
        &TeraSortWorkload::range(4),
        input.clone(),
        &EngineConfig::local(4, 1),
    )
    .unwrap();
    assert_walls_match_spans("uncoded", &uncoded, 4, &coded_stages[1..]);
    assert!(uncoded.wall.max.codegen.is_zero());

    let pods = run_coded_pods(
        &TeraSortWorkload::range(6),
        input,
        &EngineConfig::local(6, 1),
        3,
    )
    .unwrap();
    assert_walls_match_spans("pods", &pods, 6, &coded_stages);
}

#[test]
fn recording_off_leaves_no_spans_and_zero_walls() {
    let mut cfg = EngineConfig::local(3, 2);
    cfg.cluster = cfg.cluster.with_trace(false);
    let outcome = run_coded(
        &TeraSortWorkload::range(3),
        teragen::generate(600, 16),
        &cfg,
    )
    .unwrap();
    assert!(outcome.spans.spans.is_empty());
    assert_eq!(outcome.wall.max.total(), Duration::ZERO);
}
