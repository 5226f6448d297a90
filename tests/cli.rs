//! End-to-end tests of the `mio` command-line tool: generate → analyze →
//! translate → simulate over real files.

use std::process::Command;

fn mio(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mio"))
        .args(args)
        .output()
        .expect("run mio");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("mio-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn help_and_apps_work() {
    let (out, _, ok) = mio(&["help"]);
    assert!(ok);
    assert!(out.contains("USAGE"));
    let (out, _, ok) = mio(&["apps"]);
    assert!(ok);
    for app in ["bvi", "ccm", "forma", "gcm", "les", "venus", "upw"] {
        assert!(out.contains(app), "apps output missing {app}");
    }
}

#[test]
fn unknown_commands_fail_cleanly() {
    let (_, err, ok) = mio(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
    let (_, err, ok) = mio(&["generate", "nonesuch"]);
    assert!(!ok);
    assert!(err.contains("unknown app"));
    let (_, err, ok) = mio(&["analyze", "/definitely/not/a/file"]);
    assert!(!ok);
    assert!(err.contains("not a file") || err.contains("No such file"));
}

#[test]
fn generate_analyze_roundtrip() {
    let path = tmp("ccm.trace");
    let (_, err, ok) = mio(&["generate", "ccm", "--scale", "16", "--seed", "9", "-o", &path]);
    assert!(ok, "generate failed: {err}");
    assert!(err.contains("generated ccm"));

    let (out, _, ok) = mio(&["analyze", &path]);
    assert!(ok);
    assert!(out.contains("MB/s"));
    assert!(out.contains("sequential"));
    assert!(out.contains("data-swap"));

    // Determinism: regenerating with the same seed produces an identical
    // file.
    let path2 = tmp("ccm2.trace");
    mio(&["generate", "ccm", "--scale", "16", "--seed", "9", "-o", &path2]);
    let a = std::fs::read(&path).unwrap();
    let b = std::fs::read(&path2).unwrap();
    assert_eq!(a, b, "same seed must produce byte-identical traces");
}

#[test]
fn translate_then_simulate() {
    let logical = tmp("upw.trace");
    let physical = tmp("upw-phys.trace");
    mio(&["generate", "upw", "--scale", "8", "-o", &logical]);
    let (_, err, ok) = mio(&["translate", &logical, "-o", &physical]);
    assert!(ok, "translate failed: {err}");
    assert!(err.contains("amplification"));

    let (out, err, ok) = mio(&["simulate", &logical, "--cache", "16"]);
    assert!(ok, "simulate failed: {err}");
    assert!(out.contains("utilization"));
    assert!(out.contains("I/Os"));

    // Policy and tier switches parse.
    let (out, _, ok) = mio(&["simulate", &logical, "--cache", "ssd", "--policy", "sprite"]);
    assert!(ok);
    assert!(out.contains("ssd tier"));
    let (out, _, ok) = mio(&["simulate", &logical, "--cache", "none", "--cpus", "2"]);
    assert!(ok);
    assert!(out.contains("2 CPUs"));
}

/// Exit code and stderr of one `mio` run.
fn mio_status(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mio")).args(args).output().expect("run mio");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unwritable_json_path_exits_2_without_panicking() {
    let (code, err) =
        mio_status(&["sim", "--quick", "--fig8-point", "32:4096", "--json", "/nonexistent/x.json"]);
    assert_eq!(code, Some(2), "stderr: {err}");
    assert!(err.contains("mio: /nonexistent/x.json: "), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn unwritable_dfg_out_still_writes_the_figure_8_json() {
    let json = tmp("dfg-fail-fig8.json");
    let _ = std::fs::remove_file(&json);
    let (code, err) =
        mio_status(&["sim", "--quick", "--dfg-out", "/nonexistent/d.json", "--json", &json]);
    assert_eq!(code, Some(2), "stderr: {err}");
    assert!(err.contains("mio: /nonexistent/d.json: "), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
    assert!(std::path::Path::new(&json).exists(), "Figure 8 JSON written before the DFG error");
}

#[test]
fn run_subcommands_reject_bad_flags_with_exit_2() {
    for args in [
        &["sim", "--threads", "0"][..],
        &["sim", "--quick", "--bogus"],
        &["tables", "--trace-dir", "--quick"],
        &["claims", "--devices", "bogus"],
        &["sim", "--quick", "--json"],
    ] {
        let (code, err) = mio_status(args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn serve_rejects_timeline_flags() {
    let sock = tmp("timeline-reject.sock");
    for flag in [["--timeline", "1000000"], ["--timeline-out", "tl.json"]] {
        let (code, err) = mio_status(&["serve", "--socket", &sock, flag[0], flag[1]]);
        assert_eq!(code, Some(2), "{flag:?}: {err}");
        assert!(err.contains("never sample"), "{flag:?}: {err}");
    }
    assert!(!std::path::Path::new(&sock).exists(), "rejected before binding");
}
