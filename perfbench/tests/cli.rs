//! The command line: usage errors exit 2 with one line, and the metric
//! catalog matches `BENCHMARK.json`.

use perfbench::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use perfbench::workloads::Workload;
use serde::Value;
use std::process::Command;

fn usage_error(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    assert_eq!(
        stderr.lines().count(),
        1,
        "{args:?}: one-line error, got {stderr:?}"
    );
    assert!(
        stderr.contains(needle),
        "{args:?}: {stderr:?} lacks {needle:?}"
    );
}

#[test]
fn usage_errors_exit_2_with_one_line() {
    usage_error(&[], "--workload is required");
    usage_error(
        &["--workload", "fig9", "--seed", "1"],
        "unknown workload `fig9`",
    );
    usage_error(&["--workload", "fig8_paper"], "--seed is required");
    usage_error(
        &["--workload", "fig8_paper", "--seed", "-1"],
        "--seed wants",
    );
    usage_error(
        &["--workload", "fig8_paper", "--seed", "1", "--trace", "0"],
        "--seconds is required",
    );
    usage_error(
        &[
            "--workload",
            "fig8_paper",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        "--trace wants 0 or 1",
    );
    usage_error(
        &["--workload", "fig8_paper", "--seed", "1", "--seconds", "0"],
        "--seconds wants",
    );
    usage_error(
        &[
            "--workload",
            "fig8_paper",
            "--seed",
            "1",
            "--frobnicate",
            "1",
        ],
        "unknown flag `--frobnicate`",
    );
    usage_error(
        &["--workload", "fig8_paper", "--seed"],
        "--seed needs a value",
    );
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn assert_catalog(benchmark: &Value, section: &str, catalog: &[MetricDef]) {
    let listed = benchmark
        .get(section)
        .and_then(Value::as_seq)
        .expect(section);
    let names: Vec<&str> = listed.iter().map(|m| str_field(m, "name")).collect();
    let expected: Vec<&str> = catalog.iter().map(|d| d.name).collect();
    assert_eq!(names, expected, "{section} names");
    for (m, d) in listed.iter().zip(catalog) {
        assert_eq!(str_field(m, "unit"), d.unit, "{} unit", d.name);
        let better = if d.better == Better::Lower {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(str_field(m, "better"), better, "{} direction", d.name);
    }
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_catalog(&benchmark, "end_to_end", END_TO_END);
    assert_catalog(&benchmark, "per_layer", PER_LAYER);
    let workloads = benchmark
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("workloads");
    let names: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for m in benchmark
        .get("end_to_end")
        .and_then(Value::as_seq)
        .expect("end_to_end")
    {
        let bound = match m.get("bound") {
            Some(Value::F64(b)) => *b,
            other => panic!("bound: {other:?}"),
        };
        assert!(
            bound > 0.0 && bound <= 0.10,
            "{} bound {bound}",
            str_field(m, "name")
        );
    }
}
