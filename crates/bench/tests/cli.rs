//! `repro_bench` accepts only the run flags it uses; the others fail at
//! startup instead of being silently ignored. A baseline it cannot gate
//! against fails at startup too, before any sweep runs.

use std::process::Command;

#[test]
fn unused_run_flags_are_rejected() {
    for args in [
        &["--devices", "modern"][..],
        &["--shards", "8"],
        &["--trace-dir", "tr"],
        &["--trace-mem-budget", "16"],
        &["--progress"],
    ] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_repro_bench")).args(args).output().expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(err.contains("is not supported"), "{args:?}: {err}");
    }
}

/// Run `repro_bench --threads 1 --baseline` on `contents`; the run must
/// fail at startup with `expect` and the regeneration hint on stderr.
fn assert_baseline_rejected(name: &str, contents: &str, expect: &str) {
    let dir = std::env::temp_dir().join(format!("repro-bench-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("BENCH_sim.json");
    std::fs::write(&path, contents).expect("write baseline");
    let out = Command::new(env!("CARGO_BIN_EXE_repro_bench"))
        .current_dir(&dir)
        .args(["--threads", "1", "--baseline"])
        .arg(&path)
        .output()
        .expect("run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{name}: must fail");
    assert!(err.contains(expect) && err.contains("regenerate BENCH_sim.json"), "{name}: {err}");
    assert!(out.stdout.is_empty(), "{name}: no sweep may run before the check");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn junk_shaped_baseline_fails_loudly() {
    assert_baseline_rejected(
        "junk",
        r#"{"threads": 1, "scale": 16, "sweeps": "not a list"}"#,
        "does not parse as the current report shape",
    );
}

#[test]
fn baseline_from_another_thread_count_fails_loudly() {
    let committed = include_str!("../../../BENCH_sim.json");
    let at_seven = committed.replacen("\"threads\": 1,", "\"threads\": 7,", 1);
    assert_ne!(at_seven, committed, "the committed baseline records threads: 1");
    assert_baseline_rejected("threads7", &at_seven, "recorded at threads=7/scale=16");
}
