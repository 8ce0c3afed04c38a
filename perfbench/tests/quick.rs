//! Runs every workload in quick mode through the benchmark's own command
//! line, untraced and traced, and checks the result line against the
//! metric lists in the repository's `BENCHMARK.json`.

use std::process::Command;

/// Metric names listed under `section` in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cts-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("spawn the benchmark");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn every_workload_reports_every_listed_metric() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(end_to_end.iter().any(|m| m == "setup_s"));
    let all = ["sort_cpu", "shuffle_k16", "service_mix"];
    for workload in listed("workloads") {
        assert!(
            all.contains(&workload.as_str()),
            "unknown workload {workload}"
        );
    }
    for workload in all {
        for (trace, names) in [("0", &end_to_end), ("1", &per_layer)] {
            let stdout = run(workload, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\":true,\"attempted\":"),
                "{workload}: {last}"
            );
            assert!(last.contains("\"failed\":0,"), "{workload}: {last}");
            for name in names.iter() {
                assert!(
                    last.contains(&format!("\"{name}\":{{\"value\":")),
                    "{workload} --trace {trace} lacks {name}"
                );
            }
            assert!(stdout.contains("\"profile\":"), "environment block missing");
            if trace == "1" {
                assert!(
                    stdout.contains("\"layer_check\":"),
                    "{workload}: no layer check"
                );
                assert!(
                    stdout.contains("\"reconcile_engine\":"),
                    "{workload}: no reconciliation"
                );
            }
        }
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_cts-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("spawn the benchmark");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
