//! `perfbench`: see the library docs and `README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//! perfbench golden                 # print golden/seed42.txt afresh
//! perfbench serve-daemon --socket PATH   # the serve_mixed daemon child
//! ```

use perfbench::check::Golden;
use perfbench::metrics::RunReport;
use perfbench::spans::SpanLog;
use perfbench::workloads::{RunOptions, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Where runs keep scratch files and span logs, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload fig8_paper|fig8_modern|campaign_streamed|serve_mixed --seed N --seconds S [--trace 0|1]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve-daemon") => daemon(&args[1..]),
        Some("golden") => golden(),
        _ => bench(&args),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Flag values by name; every flag takes one value.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument `{flag}`; {USAGE}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {USAGE}"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(f, _)| *f == name)
        .map(|(_, v)| *v)
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    if let Some((f, _)) = flags
        .iter()
        .find(|(f, _)| !["--workload", "--seed", "--seconds", "--trace"].contains(f))
    {
        return Err(format!("unknown flag `{f}`; {USAGE}"));
    }
    let name =
        flag(&flags, "--workload").ok_or_else(|| format!("--workload is required; {USAGE}"))?;
    let workload =
        Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`; {USAGE}"))?;
    let seed = flag(&flags, "--seed").ok_or_else(|| format!("--seed is required; {USAGE}"))?;
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("--seed wants a non-negative integer, got `{seed}`"))?;
    let seconds =
        flag(&flags, "--seconds").ok_or_else(|| format!("--seconds is required; {USAGE}"))?;
    let seconds = seconds
        .parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0 && *s <= 120.0)
        .ok_or_else(|| format!("--seconds wants a number in (0, 120], got `{seconds}`"))?;
    let traced = match flag(&flags, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace wants 0 or 1, got `{t}`")),
    };

    // The program's defaults, not whatever the caller's environment
    // configures, are what the benchmark measures; scratch files stay
    // under the run directory. No threads exist yet.
    for (key, _) in std::env::vars() {
        if key.starts_with("MILLER_") || key == "RAYON_NUM_THREADS" {
            std::env::remove_var(key);
        }
    }
    let run_dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    std::env::set_var(
        "TMPDIR",
        std::fs::canonicalize(&run_dir).unwrap_or_else(|_| run_dir.clone()),
    );

    let opts = RunOptions {
        seed,
        seconds,
        spans: SpanLog::new(traced),
        run_dir: run_dir.clone(),
        golden: Golden::committed(),
        daemon_exe: std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?,
    };
    let report = perfbench::run(workload, &opts);
    let _ = std::fs::remove_dir_all(&run_dir);
    if traced {
        let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{seed}.json", workload.name()));
        match std::fs::write(&path, opts.spans.chrome_json()) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                opts.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: write {}: {e}", path.display()),
        }
    }
    Ok(finish(&report))
}

fn finish(report: &RunReport) -> ExitCode {
    let missing = report.missing();
    if !missing.is_empty() {
        eprintln!("perfbench: not measured: {}", missing.join(", "));
    }
    print!("{}", report.table());
    println!("{}", report.json_line());
    ExitCode::from(report.exit_code())
}

/// `serve-daemon --socket PATH`: `serve::serve` configured as
/// `mio serve --socket PATH --workers 2 --cache-cap 64` configures it.
fn daemon(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    let socket = flag(&flags, "--socket").ok_or("serve-daemon needs --socket")?;
    serve::serve(&serve::ServeOptions {
        endpoint: serve::Endpoint::Unix(PathBuf::from(socket)),
        engine: serve::EngineConfig {
            workers: perfbench::workloads::serve::WORKERS,
            max_inflight: 256,
            result_cache: perfbench::workloads::serve::CACHE_CAP,
            store: experiments::StoreConfig::default(),
        },
        drain_timeout: Duration::from_secs(30),
    })?;
    eprintln!(
        "{}{}",
        perfbench::workloads::serve::DAEMON_PEAK_HEAP,
        perfbench::heap::peak_bytes()
    );
    Ok(ExitCode::SUCCESS)
}

fn golden() -> Result<ExitCode, String> {
    let dir = PathBuf::from(OUT_DIR).join(format!("golden-{}", std::process::id()));
    let g = perfbench::golden_digests(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    print!("{}", g.render());
    Ok(ExitCode::SUCCESS)
}
