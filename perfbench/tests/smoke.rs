//! Smoke run of every workload, untraced and traced: each run must pass
//! its correctness gate and print every metric `BENCHMARK.json` names,
//! with its unit, on the last line of standard output.
//!
//! Slow (it boots the paper-scale repository several times); run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::stream::Workload;
use serde_json::Value;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn expected(manifest: &Value, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .into_iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn workdir() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("smoke directory is creatable");
    dir
}

fn smoke(workload: &str, trace: u8, want: &[(String, String)]) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "2",
            "--trace",
            &trace.to_string(),
        ])
        .current_dir(workdir())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result
        .get("attempted")
        .and_then(Value::as_u64)
        .is_some_and(|n| n >= 1));
    let metrics = result.get("metrics").expect("metrics");
    let emitted = metrics.keys().expect("metrics is an object");
    assert_eq!(
        emitted.len(),
        want.len(),
        "{workload}: exactly the declared metrics"
    );
    for (name, unit) in want {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: {name} unit"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{workload}: {name} value"
        );
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let manifest = manifest();
    let end_to_end = expected(&manifest, "end_to_end");
    let per_layer = expected(&manifest, "per_layer");
    let declared: Vec<String> = manifest
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .into_iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    // Every workload the program knows, including any BENCHMARK.json
    // leaves out, must still run clean and print the declared metrics.
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert!(
        declared.iter().all(|d| workloads.contains(d)),
        "BENCHMARK.json names an unknown workload"
    );
    for w in &workloads {
        smoke(w, 0, &end_to_end);
        smoke(w, 1, &per_layer);
    }
}
