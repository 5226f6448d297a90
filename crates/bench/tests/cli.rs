//! `repro_bench` accepts only the run flags it uses; the others fail at
//! startup instead of being silently ignored.

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
