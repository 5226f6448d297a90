//! Every workload's library entry point, run at a tiny size, checks its
//! outputs and reports every catalogued metric; a tampered golden digest
//! fails the run.

use experiments::modern::DeviceEra;
use experiments::Scale;
use perfbench::check::{Golden, GOLDEN_SEED};
use perfbench::metrics::{RunReport, END_TO_END, PER_LAYER};
use perfbench::spans::SpanLog;
use perfbench::workloads::campaign::CampaignShape;
use perfbench::workloads::fig8::{self, Fig8Spec};
use perfbench::workloads::serve::ServeMix;
use perfbench::workloads::{self, RunOptions};
use std::path::PathBuf;

fn options(name: &str, seed: u64, traced: bool) -> RunOptions {
    let run_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).expect("create run dir");
    RunOptions {
        seed,
        seconds: 0.3,
        spans: SpanLog::new(traced),
        run_dir,
        golden: Golden::committed(),
        daemon_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

fn tiny_fig8() -> Fig8Spec {
    Fig8Spec {
        era: DeviceEra::Era1991,
        blocks: vec![4096],
        sizes_mb: vec![4, 64],
        scale: Scale(256),
        seeds: 2,
    }
}

fn tiny_campaign() -> CampaignShape {
    CampaignShape {
        groups: 2,
        procs: 8,
        scale: Scale(512),
        shared_file_every: 4,
        mem_budget: 1 << 20,
        seeds: 2,
    }
}

fn tiny_serve() -> ServeMix {
    ServeMix {
        fig8_scale: 256,
        blocks: vec![4096],
        sizes_mb: vec![4, 64],
        fig8_seeds_per_epoch: 1,
        campaign: CampaignShape {
            groups: 2,
            procs: 4,
            scale: Scale(512),
            shared_file_every: 16,
            mem_budget: 0,
            seeds: 1,
        },
        campaigns_per_epoch: 1,
        seed_pool: 2,
        reference_checks: 4,
    }
}

fn assert_clean(report: &RunReport, traced: bool) {
    assert_eq!(report.failed, 0, "no operation may fail");
    assert!(report.attempted > 0);
    assert_eq!(report.catalog, if traced { PER_LAYER } else { END_TO_END });
    assert_eq!(
        report.missing(),
        Vec::<&str>::new(),
        "every metric measured"
    );
    assert!(report.correct());
    assert_eq!(report.exit_code(), 0);
    let line = report.json_line();
    let v: serde::Value = serde_json::from_str(&line).expect("result line is JSON");
    let metrics = v
        .get("metrics")
        .and_then(serde::Value::as_map)
        .expect("metrics object");
    assert_eq!(metrics.len(), report.catalog.len());
}

#[test]
fn fig8_tiny_runs_clean_untraced_and_traced() {
    for traced in [false, true] {
        let opts = options("fig8", 3, traced);
        assert_clean(&fig8::run(&tiny_fig8(), "fig8_paper", &opts), traced);
        if traced {
            let spans: serde::Value =
                serde_json::from_str(&opts.spans.chrome_json()).expect("span file is JSON");
            let events = spans
                .get("traceEvents")
                .and_then(serde::Value::as_seq)
                .expect("traceEvents");
            assert!(events.len() > 10, "a traced run records spans");
        }
    }
}

#[test]
fn campaign_tiny_runs_clean_untraced_and_traced() {
    for traced in [false, true] {
        let opts = options("campaign", 3, traced);
        assert_clean(&workloads::campaign::run(&tiny_campaign(), &opts), traced);
    }
}

#[test]
fn serve_tiny_runs_clean_untraced_and_traced() {
    for traced in [false, true] {
        let opts = options("serve", 3, traced);
        assert_clean(&workloads::serve::run(&tiny_serve(), &opts), traced);
    }
}

#[test]
fn a_tampered_golden_digest_fails_the_run() {
    let spec = tiny_fig8();
    let mut opts = options("golden", GOLDEN_SEED, false);
    assert_clean(&fig8::run(&spec, "fig8_paper", &opts), false);

    let key = spec.points(GOLDEN_SEED)[0].key.clone();
    opts.golden
        .insert("fig8_paper", &key, 0x0123_4567_89ab_cdef);
    let report = fig8::run(&spec, "fig8_paper", &opts);
    assert!(
        report.failed > 0,
        "the tampered point fails every repetition"
    );
    assert!(!report.correct());
    assert_ne!(report.exit_code(), 0);
    assert!(report.json_line().starts_with("{\"correct\":false,"));
}
