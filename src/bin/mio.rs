//! `mio` — command-line front end to the Miller-1991 reproduction.
//!
//! ```text
//! mio apps                                   list the calibrated applications
//! mio generate venus [--seed 42] [--scale 8] [-o venus.trace]
//! mio analyze venus.trace                    §5-style characterization
//! mio translate venus.trace [-o phys.trace]  logical -> physical expansion
//! mio simulate a.trace b.trace [--cache 128|ssd|none]
//!              [--policy behind|through|sprite] [--no-readahead] [--cpus 1]
//! mio tables|figures|sim|claims|ablations [--quick] [--json out.json]
//!                                            reproduce the paper's exhibits
//! mio serve --socket mio.sock [--workers N] ...    simulation-as-a-service
//! mio submit --socket mio.sock --fig8-point 32:4096 [--json out.json]
//! mio stats --socket mio.sock [--prom]             daemon metrics
//! ```
//!
//! Traces are the paper's compressed ASCII format; `-` means stdout.
//!
//! The five reproduction subcommands (`tables`, `figures`, `sim`,
//! `claims`, `ablations`) parse one [`RunConfig`] (threads, shards,
//! trace store, device era, progress, timeline and profile outputs),
//! build one [`TraceStore`] from it, and end on one finish path:
//! `--json` write, profile export, timeline export. Any error exits 2.
//!
//! `serve` turns the one-shot repro workloads into a long-running
//! daemon (JSON lines over a Unix or TCP socket) with a warm trace
//! store, request dedup/coalescing, and fair queueing; `submit` is the
//! matching client. A served response is byte-identical to the
//! corresponding one-shot `mio sim --json` output at any worker
//! count — CI `cmp`s them.

use experiments::ablations::{all_ablations, render_ablations};
use experiments::claims::{all_claims, render_claims};
use experiments::config::{take_flag, take_switch};
use experiments::extras::{amdahl_table, compression_table, render_amdahl, render_compression};
use experiments::figures::{fig3, fig4, fig6, fig7, fig8, render_fig8, two_venus_report};
use experiments::nplus1::{nplus1, render_nplus1};
use experiments::tables::{render_table1, render_table2, table1};
use experiments::{
    modern_comparison, par_sweep, render_modern, run_campaign_in, CampaignSpec, DeviceEra,
    RunConfig,
};
use miller_core::{
    analyze_sequentiality, classify_trace, detect_cycles, measure_amplification,
    measure_compression, paper_targets, read_trace, translate_to_physical, write_trace, AppKind,
    AppSummary, CacheConfig, CacheTier, FsConfig, FsLayout, IoClass, Scale, SimConfig, Simulation,
    Trace, TraceStore, WritePolicy, ALL_APPS,
};
use serde::Serialize;
use sim_core::units::MB;
use std::io::BufReader;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mio: {msg}");
            eprintln!("run `mio help` for usage");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") => {
            print!("{}", HELP);
            Ok(())
        }
        Some("apps") => cmd_apps(),
        Some("generate") => cmd_generate(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("translate") => cmd_translate(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("tables") => cmd_tables(&args[1..]),
        Some("figures") => cmd_figures(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        Some("claims") => cmd_claims(&args[1..]),
        Some("ablations") => cmd_ablations(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

const HELP: &str = "\
mio — Miller 1991 supercomputer I/O reproduction

USAGE:
  mio apps
  mio generate <app> [--seed N] [--scale K] [-o FILE]
  mio analyze <FILE>
  mio translate <FILE> [-o FILE]
  mio simulate <FILE>... [--cache MB|ssd|none] [--policy behind|through|sprite]
               [--no-readahead] [--cpus N]
  mio tables     [--quick] [--json FILE] [RUN OPTIONS]   Tables 1-2, compression, Amdahl
  mio figures    [--quick] [--json FILE] [RUN OPTIONS]   Figures 3-4
  mio sim        [--quick] [--json FILE] [RUN OPTIONS]   Figures 6-8 and the n+1 rule
                 [--fig8-point MB:BLOCK | --campaign GxP | --dfg-out FILE]
  mio claims     [--quick] [--json FILE] [RUN OPTIONS]   the section 6 claims C1-C5
  mio ablations  [--quick] [--json FILE] [RUN OPTIONS]   design-choice ablations
  mio serve  (--socket PATH | --tcp ADDR) [--workers N] [--max-inflight N]
             [--cache-cap N] [--drain-timeout SECS] [--threads N] [--shards N]
             [--trace-dir DIR] [--trace-mem-budget MB] [--profile PATH] [--progress]
  mio submit (--socket PATH | --tcp ADDR)
             (--fig8-point MB:BLOCK [--quick] | --campaign GxP [--shards N]
              | --stats | --shutdown)
             [--scale K] [--seed N] [--client NAME] [--json FILE]
  mio stats  (--socket PATH | --tcp ADDR) [--prom]

RUN OPTIONS (each flag's environment default in parentheses):
  --threads N             sweep threads (MILLER_THREADS, RAYON_NUM_THREADS; all cores)
  --shards N              sharded-engine threads (MILLER_SHARDS; 1)
  --trace-dir DIR         trace spill and cache directory (MILLER_TRACE_DIR)
  --trace-mem-budget MB   resident trace budget (MILLER_TRACE_MEM_BUDGET; unbounded)
  --devices ERA           paper, 1991 or modern (MILLER_DEVICES; paper)
  --progress              sweep heartbeat on stderr (MILLER_PROGRESS)
  --timeline NS           gauge sample interval, simulated ns (MILLER_TIMELINE)
  --timeline-out FILE     timeline JSON output (MILLER_TIMELINE_OUT)
  --profile FILE          Perfetto trace output (MILLER_PROFILE)
  --profile-capacity N    flight-recorder events (MILLER_PROFILE_CAPACITY; 1048576)
Same options + same seed => byte-identical --json output at any --threads or --shards.
";

fn cmd_apps() -> Result<(), String> {
    println!("{:<7} {:>8} {:>9} {:>9} {:>7}", "app", "cpu(s)", "totIO(MB)", "MB/s", "R/W");
    for kind in ALL_APPS {
        let t = paper_targets(kind);
        println!(
            "{:<7} {:>8.0} {:>9.0} {:>9.2} {:>7.2}",
            kind.name(),
            t.cpu_secs,
            t.total_io_mb,
            t.mb_per_sec,
            t.rw_data_ratio
        );
    }
    Ok(())
}

fn cmd_generate(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let seed = take_flag(&mut args, "--seed")?
        .map(|v| v.parse::<u64>().map_err(|_| "bad --seed".to_string()))
        .transpose()?
        .unwrap_or(42);
    let scale = take_flag(&mut args, "--scale")?
        .map(|v| v.parse::<u32>().map_err(|_| "bad --scale".to_string()))
        .transpose()?
        .unwrap_or(1);
    let out = take_flag(&mut args, "-o")?;
    let name = args.first().ok_or("generate needs an application name")?;
    let kind = AppKind::from_name(name)
        .ok_or_else(|| format!("unknown app `{name}` (try `mio apps`)"))?;
    let trace = TraceStore::new().artifact(kind, 1, seed, Scale(scale)).trace();
    write_out(&trace, out.as_deref())?;
    eprintln!(
        "generated {}: {} records, {:.1} MB of I/O",
        kind.name(),
        trace.io_count(),
        trace.total_bytes() as f64 / MB as f64
    );
    Ok(())
}

fn read_in(path: &str) -> Result<Trace, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    read_trace(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
}

fn write_out(trace: &Trace, path: Option<&str>) -> Result<(), String> {
    match path {
        None | Some("-") => {
            let stdout = std::io::stdout();
            write_trace(trace, stdout.lock()).map_err(|e| e.to_string())
        }
        Some(p) => {
            let f = std::fs::File::create(p).map_err(|e| format!("{p}: {e}"))?;
            write_trace(trace, std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
            eprintln!("wrote {p}");
            Ok(())
        }
    }
}

fn cmd_analyze(rest: &[String]) -> Result<(), String> {
    let path = rest.first().ok_or("analyze needs a trace file")?;
    let trace = read_in(path)?;
    let s = AppSummary::from_trace(&trace);
    println!(
        "records {}  cpu {:.1}s  wall {:.1}s  data {:.1} MB  total I/O {:.1} MB",
        s.num_ios, s.cpu_secs, s.wall_secs, s.data_mb, s.total_io_mb
    );
    println!(
        "rates: {:.2} MB/s, {:.1} IOs/s  avg request {:.1} KB  R/W {:.2}  files {}",
        s.mb_per_sec, s.ios_per_sec, s.avg_io_kb, s.rw_data_ratio, s.files_touched
    );
    let seq = analyze_sequentiality(&trace);
    println!(
        "sequential {:.1}%  same-size {:.1}%  modal-size {:.1}%",
        seq.sequential_fraction() * 100.0,
        seq.same_size_fraction() * 100.0,
        seq.modal_size_fraction() * 100.0
    );
    let cycles = detect_cycles(&trace, sim_core::SimDuration::from_secs(1));
    match cycles.period_bins {
        Some(p) => println!(
            "cycles: period {p}s (strength {:.2}), {} peaks, spacing CV {:.2}",
            cycles.strength, cycles.peaks, cycles.peak_spacing_cv
        ),
        None => println!("cycles: none detected"),
    }
    let classes = classify_trace(&trace);
    println!(
        "taxonomy: required {:.1}%  checkpoint {:.1}%  data-swap {:.1}%",
        classes.fraction_of(IoClass::Required) * 100.0,
        classes.fraction_of(IoClass::Checkpoint) * 100.0,
        classes.fraction_of(IoClass::DataSwap) * 100.0
    );
    let comp = measure_compression(&trace).map_err(|e| e.to_string())?;
    println!(
        "format: {:.1} bytes/record ({:.0}% smaller than fixed binary)",
        comp.bytes_per_record(),
        comp.savings_vs_binary() * 100.0
    );
    Ok(())
}

fn cmd_translate(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let out = take_flag(&mut args, "-o")?;
    let path = args.first().ok_or("translate needs a trace file")?;
    let trace = read_in(path)?;
    let mut layout = FsLayout::new(FsConfig::default());
    let mixed = translate_to_physical(&trace, &mut layout);
    let amp = measure_amplification(&mixed);
    write_out(&mixed, out.as_deref())?;
    eprintln!(
        "translated: {} records ({:.3}x data amplification, {:.2}% metadata)",
        mixed.io_count(),
        amp.data_amplification(),
        amp.metadata_fraction() * 100.0
    );
    Ok(())
}

fn cmd_simulate(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let cache = take_flag(&mut args, "--cache")?.unwrap_or_else(|| "32".to_string());
    let policy = take_flag(&mut args, "--policy")?.unwrap_or_else(|| "behind".to_string());
    let cpus = take_flag(&mut args, "--cpus")?
        .map(|v| v.parse::<usize>().map_err(|_| "bad --cpus".to_string()))
        .transpose()?
        .unwrap_or(1);
    let no_ra = take_switch(&mut args, "--no-readahead");
    if args.is_empty() {
        return Err("simulate needs at least one trace file".into());
    }

    let mut config = match cache.as_str() {
        "none" => SimConfig::uncached(),
        "ssd" => SimConfig::ssd(),
        mb => {
            let mb: u64 = mb.parse().map_err(|_| "bad --cache (MB|ssd|none)".to_string())?;
            SimConfig { cache: Some(CacheConfig::buffered(mb * MB)), ..Default::default() }
        }
    };
    config.n_cpus = cpus;
    if let Some(c) = config.cache.as_mut() {
        c.read_ahead = !no_ra;
        c.write_policy = match policy.as_str() {
            "behind" => WritePolicy::WriteBehind,
            "through" => WritePolicy::WriteThrough,
            "sprite" => WritePolicy::sprite(),
            other => return Err(format!("unknown --policy `{other}`")),
        };
    }
    let tier = config.tier;
    let mut sim = Simulation::new(config);
    for (i, path) in args.iter().enumerate() {
        let trace = read_in(path)?;
        sim.add_process((i + 1) as u32, path.clone(), &trace)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let r = sim.run();
    println!(
        "wall {:.1}s  idle {:.1}s  utilization {:.1}%  ({} CPU{}, cache {}{})",
        r.wall_secs(),
        r.idle_secs(),
        r.utilization() * 100.0,
        r.n_cpus,
        if r.n_cpus == 1 { "" } else { "s" },
        cache,
        if tier == CacheTier::Ssd { " [ssd tier]" } else { "" },
    );
    println!(
        "cache: hit ratio {:.1}%  RA hits {}  dirty evictions {}",
        r.cache.hit_ratio() * 100.0,
        r.cache.readahead_hit_blocks,
        r.cache.dirty_evictions
    );
    println!(
        "disks: {} reads / {} writes, {:.1} MB total",
        r.disk_totals.reads,
        r.disk_totals.writes,
        r.disk_totals.total_bytes() as f64 / MB as f64
    );
    for p in &r.processes {
        println!(
            "  {}: cpu {:.1}s  blocked {:.1}s  {} I/Os  finished at {:.1}s",
            p.name,
            p.cpu_used.as_secs_f64(),
            p.blocked_time.as_secs_f64(),
            p.ios_issued,
            p.finished_at.as_secs_f64()
        );
    }
    Ok(())
}

/// What every reproduction subcommand shares: the run configuration,
/// the one trace store built from it, the `--quick` scale and the
/// `--json` output path.
struct Run {
    cfg: RunConfig,
    store: TraceStore,
    scale: Scale,
    json: Option<String>,
}

impl Run {
    /// Consume the shared flags from `args`.
    fn parse(args: &mut Vec<String>) -> Result<Run, String> {
        let cfg = RunConfig::from_args(args)?;
        let scale = if take_switch(args, "--quick") { Scale(8) } else { Scale::FULL };
        let json = take_flag(args, "--json")?;
        let store = TraceStore::with_config(cfg.store.clone());
        Ok(Run { cfg, store, scale, json })
    }

    /// Reject whatever `cmd` did not consume, then start profiling.
    fn start(&self, cmd: &str, args: &[String]) -> Result<(), String> {
        if let Some(stray) = args.first() {
            return Err(format!("{cmd}: unexpected argument `{stray}`"));
        }
        self.cfg.start_profile();
        Ok(())
    }

    /// The one finish path: write `report` to `--json` (pretty-printed,
    /// no trailing newline), then export the profile and the timelines.
    /// Only a failed `--json` write fails the run.
    fn finish(&self, report: &impl Serialize) -> Result<(), String> {
        let written = match &self.json {
            None => Ok(()),
            Some(path) => serde_json::to_string_pretty(report)
                .map_err(|e| format!("serialize report: {e}"))
                .and_then(|text| std::fs::write(path, text).map_err(|e| format!("{path}: {e}")))
                .map(|()| eprintln!("wrote {path}")),
        };
        self.cfg.finish_observers();
        written
    }
}

fn cmd_tables(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let run = Run::parse(&mut args)?;
    run.start("tables", &args)?;
    let result = table1(&run.store, &run.cfg, run.scale, 42);
    println!("{}", render_table1(&result));
    println!("{}", render_table2(&result));
    println!("{}", render_compression(&compression_table(&run.store, run.scale, 42)));
    println!("{}", render_amdahl(&amdahl_table(&run.store, run.scale, 42)));
    run.finish(&result)
}

fn cmd_figures(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let run = Run::parse(&mut args)?;
    run.start("figures", &args)?;
    let figs = vec![fig3(&run.store, run.scale, 42), fig4(&run.store, run.scale, 42)];
    for (label, fig) in ["Figure 3", "Figure 4"].iter().zip(&figs) {
        println!(
            "{label}: {} — mean {:.1} MB/s, peak {:.1} MB/s, {} peaks (spacing CV {:.2})",
            fig.app,
            fig.mean_mb_per_s,
            fig.peak_mb_per_s,
            fig.cycles.peaks,
            fig.cycles.peak_spacing_cv
        );
        if let Some(p) = fig.cycles.period_bins {
            println!("dominant cycle period: {} s (autocorrelation {:.2})", p, fig.cycles.strength);
        }
        println!("{}", fig.plot);
    }
    run.finish(&figs)
}

fn cmd_claims(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let run = Run::parse(&mut args)?;
    run.start("claims", &args)?;
    let report = all_claims(&run.store, &run.cfg, run.scale, 42);
    println!("{}", render_claims(&report));
    run.finish(&report)
}

fn cmd_ablations(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let run = Run::parse(&mut args)?;
    run.start("ablations", &args)?;
    let report = all_ablations(&run.store, &run.cfg, run.scale, 42);
    println!("{}", render_ablations(&report));
    run.finish(&report)
}

/// Parse `--campaign GROUPSxPROCS` (e.g. `1000x10`).
fn parse_campaign(raw: &str) -> Result<(usize, usize), String> {
    let (groups, procs) = raw
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("--campaign wants GROUPSxPROCS (e.g. 1000x10), got `{raw}`"))?;
    let groups: usize = groups
        .trim()
        .parse()
        .map_err(|_| format!("--campaign group count must be an integer, got `{groups}`"))?;
    let procs: usize = procs
        .trim()
        .parse()
        .map_err(|_| format!("--campaign process count must be an integer, got `{procs}`"))?;
    if groups == 0 || procs == 0 {
        return Err("--campaign counts must be positive".into());
    }
    Ok((groups, procs))
}

/// Parse `--fig8-point MB:BLOCK` (e.g. `32:4096`).
fn parse_fig8_point(raw: &str) -> Result<(u64, u64), String> {
    let (mb, block) = raw
        .split_once(':')
        .ok_or_else(|| format!("--fig8-point wants MB:BLOCK, got `{raw}`"))?;
    let mb: u64 = mb
        .trim()
        .parse()
        .map_err(|_| format!("--fig8-point cache size must be an integer MB, got `{mb}`"))?;
    let block: u64 = block
        .trim()
        .parse()
        .map_err(|_| format!("--fig8-point block size must be an integer, got `{block}`"))?;
    if mb == 0 || block == 0 {
        return Err("--fig8-point sizes must be positive".into());
    }
    Ok((mb, block))
}

/// `mio sim`: Figures 6–8 and the n+1 rule, or one of the narrower runs
/// the flags select (checked in this order):
///
/// * `--devices modern` — the Figure 8 sweep rerun on 2026 hardware
///   beside the 1991 run, plus a small sharded cluster run; `--json`
///   writes the `ModernComparison`.
/// * `--campaign GROUPSxPROCS` — a cluster-scale campaign on `--shards`
///   engine threads; `--json` writes the `ClusterReport`.
/// * `--fig8-point MB:BLOCK` — one Figure 8 point; `--json` writes its
///   `SimReport` (what `mio serve` answers for the same point).
/// * otherwise the full set; `--json` writes the Figure 8 sweep, and
///   `--dfg-out PATH` also writes the directly-follows analysis of the
///   figure traces (JSON at PATH, Graphviz next to it).
fn cmd_sim(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let run = Run::parse(&mut args)?;
    let fig8_point =
        take_flag(&mut args, "--fig8-point")?.map(|r| parse_fig8_point(&r)).transpose()?;
    let campaign = take_flag(&mut args, "--campaign")?.map(|r| parse_campaign(&r)).transpose()?;
    let dfg_out = take_flag(&mut args, "--dfg-out")?;
    run.start("sim", &args)?;
    let (store, cfg, scale) = (&run.store, &run.cfg, run.scale);

    if cfg.devices == DeviceEra::Era2026 {
        let c = modern_comparison(store, cfg, scale, 42);
        print!("{}", render_modern(&c));
        return run.finish(&c);
    }

    if let Some((groups, procs)) = campaign {
        let mut spec = CampaignSpec::datacenter(groups, procs);
        spec.timeline_ns = cfg.timeline_ns;
        let report = run_campaign_in(store, &spec, cfg.shards);
        println!(
            "campaign {groups}x{procs} on {} shard(s): {} processes, {} I/Os, \
             {} epochs, {} remote ops ({} MB), utilization {:.1}%, hit ratio {:.3}",
            cfg.shards,
            report.total_processes,
            report.ios_issued,
            report.epochs,
            report.remote_ops,
            report.remote_bytes / MB,
            report.utilization() * 100.0,
            report.cache.hit_ratio(),
        );
        return run.finish(&report);
    }

    if let Some((mb, block)) = fig8_point {
        // Through the sweep harness (a 1-point sweep) so a profiled run
        // carries a host worker track alongside the simulated-process
        // tracks — the trace then demonstrates both clock domains.
        let mut reports = par_sweep(cfg.threads, cfg.progress, &[(mb, block)], |&(mb, block)| {
            two_venus_report(
                store,
                cfg.timeline_ns,
                mb * MB,
                block,
                true,
                WritePolicy::WriteBehind,
                scale,
                42,
            )
        });
        let r = reports.pop().expect("one sweep point");
        println!(
            "fig8 point {mb} MB / {block} B blocks: idle {:.1}s, utilization {:.1}%, hit ratio {:.3}",
            r.idle_secs(),
            r.utilization() * 100.0,
            r.cache.hit_ratio()
        );
        println!(
            "obs: ctx switches {}, sync blocks {}, idle transitions {}, wheel inserts {}, \
             cascades {}, hinted probes {}, unhinted {}, disk seeks {}, sequential {}",
            r.obs.scheduler.context_switches,
            r.obs.scheduler.sync_blocks,
            r.obs.scheduler.idle_transitions,
            r.obs.timing_wheel.inserts,
            r.obs.timing_wheel.cascades,
            r.obs.cache.hinted_index_probes,
            r.obs.cache.unhinted_index_probes,
            r.obs.disks.seeks,
            r.obs.disks.sequential_accesses,
        );
        return run.finish(&r);
    }

    for (label, fig) in
        [("Figure 6", fig6(store, cfg, scale, 42)), ("Figure 7", fig7(store, cfg, scale, 42))]
    {
        println!(
            "{label}: 2 x venus, {} MB cache — idle {:.1}s, utilization {:.1}%, disk-traffic CV {:.2}",
            fig.cache_mb,
            fig.idle_secs,
            fig.utilization * 100.0,
            fig.disk_burstiness_cv
        );
        println!("{}", fig.plot);
    }
    let f8 = fig8(store, cfg, scale, 42);
    println!("{}", render_fig8(&f8));
    println!("{}", render_nplus1(&nplus1(cfg, &[1, 2, 4], scale, 42)));
    // A failed DFG analysis must not cost the Figure 8 output: finish
    // first, then report the DFG error.
    let dfg = dfg_out.map_or(Ok(()), |path| {
        let subjects = experiments::dfg::figure_subjects(42);
        let report = experiments::dfg::dfg_for_subjects(store, cfg.threads, &subjects, scale)
            .map_err(|e| format!("dfg analysis: {e}"))?;
        let dot = experiments::dfg::write_dfg_outputs(&report, std::path::Path::new(&path))
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "dfg: {} process graph(s), {} ops folded — wrote {path} and {}",
            report.processes.len(),
            report.total_events,
            dot.display()
        );
        Ok(())
    });
    run.finish(&f8)?;
    dfg
}

/// Parse the `--socket`/`--tcp` pair shared by `serve` and `submit`.
fn take_endpoint(args: &mut Vec<String>) -> Result<serve::Endpoint, String> {
    let socket = take_flag(args, "--socket")?;
    let tcp = take_flag(args, "--tcp")?;
    match (socket, tcp) {
        (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive".into()),
        (Some(p), None) => Ok(serve::Endpoint::Unix(p.into())),
        (None, Some(a)) => Ok(serve::Endpoint::Tcp(a)),
        (None, None) => Err("need --socket PATH or --tcp ADDR".into()),
    }
}

fn parse_count(v: Option<String>, flag: &str, default: usize) -> Result<usize, String> {
    v.map(|s| s.parse::<usize>().map_err(|_| format!("bad {flag}")))
        .transpose()
        .map(|n| n.unwrap_or(default))
}

fn cmd_serve(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    // Served runs never sample: a timeline belongs to one run, and a
    // daemon's runs would pile up in the process-wide timeline store.
    if let Some(flag) = args.iter().find(|a| *a == "--timeline" || *a == "--timeline-out") {
        return Err(format!("serve: {flag} is not supported; served runs never sample"));
    }
    // The run configuration applies to the daemon as it does to the
    // one-shot subcommands: --threads sizes the worker pool, the trace
    // flags configure the warm store, --profile records the daemon.
    let cfg = RunConfig::from_args(&mut args)?;
    let endpoint = take_endpoint(&mut args).map_err(|e| format!("serve: {e}"))?;
    let workers = parse_count(take_flag(&mut args, "--workers")?, "--workers", cfg.threads)?;
    let max_inflight = parse_count(take_flag(&mut args, "--max-inflight")?, "--max-inflight", 256)?;
    let cache_cap = parse_count(take_flag(&mut args, "--cache-cap")?, "--cache-cap", 512)?;
    let drain_secs = parse_count(take_flag(&mut args, "--drain-timeout")?, "--drain-timeout", 30)?;
    if let Some(stray) = args.first() {
        return Err(format!("serve: unexpected argument `{stray}`"));
    }
    if workers == 0 {
        return Err("serve: --workers must be at least 1".into());
    }
    cfg.start_profile();
    serve::serve(&serve::ServeOptions {
        endpoint,
        engine: serve::EngineConfig {
            workers,
            max_inflight,
            result_cache: cache_cap,
            store: cfg.store.clone(),
        },
        drain_timeout: std::time::Duration::from_secs(drain_secs as u64),
    })?;
    // Part of graceful shutdown: the flight recorder flushes after the
    // drain, so a SIGINT'd daemon still leaves a complete timeline.
    if let Some(path) = &cfg.profile {
        obs::finish_profile(path);
    }
    Ok(())
}

/// Build the request body from the `submit` flags. `--quick` mirrors
/// `mio sim --quick` (scale 8); campaign scale defaults to 16 like
/// `CampaignSpec::datacenter`, so served responses line up with the
/// one-shot run byte for byte.
fn submit_body(args: &mut Vec<String>) -> Result<serve::RequestBody, String> {
    let quick = take_switch(args, "--quick");
    let scale = take_flag(args, "--scale")?
        .map(|v| v.parse::<u32>().map_err(|_| "bad --scale".to_string()))
        .transpose()?;
    let seed = take_flag(args, "--seed")?
        .map(|v| v.parse::<u64>().map_err(|_| "bad --seed".to_string()))
        .transpose()?
        .unwrap_or(42);
    let shards = parse_count(take_flag(args, "--shards")?, "--shards", 1)?;
    let fig8 = take_flag(args, "--fig8-point")?;
    let campaign = take_flag(args, "--campaign")?;
    let stats = take_switch(args, "--stats");
    let shutdown = take_switch(args, "--shutdown");
    let chosen =
        [fig8.is_some(), campaign.is_some(), stats, shutdown].iter().filter(|b| **b).count();
    if chosen != 1 {
        return Err(
            "submit needs exactly one of --fig8-point, --campaign, --stats, --shutdown".into()
        );
    }
    if let Some(raw) = fig8 {
        let (cache_mb, block) = parse_fig8_point(&raw)?;
        return Ok(serve::RequestBody::Fig8Point(serve::Fig8PointSpec {
            cache_mb,
            block,
            scale: scale.unwrap_or(if quick { 8 } else { 1 }),
            seed,
        }));
    }
    if let Some(raw) = campaign {
        let (groups, procs) = parse_campaign(&raw)?;
        let mut spec = serve::CampaignPointSpec::datacenter(groups, procs, shards);
        if let Some(k) = scale {
            spec.scale = k;
        }
        spec.seed = seed;
        return Ok(serve::RequestBody::Campaign(spec));
    }
    if stats {
        return Ok(serve::RequestBody::Stats);
    }
    Ok(serve::RequestBody::Shutdown)
}

fn cmd_submit(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let endpoint = take_endpoint(&mut args).map_err(|e| format!("submit: {e}"))?;
    let json = take_flag(&mut args, "--json")?;
    let client = take_flag(&mut args, "--client")?;
    let body = submit_body(&mut args)?;
    if let Some(stray) = args.first() {
        return Err(format!("submit: unexpected argument `{stray}`"));
    }
    // No flag of its own: `--shards` here is the request's. The
    // heartbeat echo follows the environment default alone.
    let progress = RunConfig::from_args(&mut Vec::new())?.progress;
    let resp = serve::submit_once(&endpoint, &serve::Request { id: 1, client, body }, progress)?;
    match resp.event.as_str() {
        "done" => {
            if resp.cached == Some(true) {
                eprintln!("mio submit: served from warm state (cache/coalesce)");
            }
            match resp.result {
                Some(serde::Value::Null) | None => {
                    eprintln!("mio submit: ok");
                }
                Some(value) => {
                    // Same bytes as `mio sim --json`: pretty-printed,
                    // no trailing newline, so CI can `cmp` the files.
                    let text = serde_json::to_string_pretty(&value)
                        .map_err(|e| format!("serialize result: {e}"))?;
                    match json.as_deref() {
                        None | Some("-") => println!("{text}"),
                        Some(path) => {
                            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
                            eprintln!("wrote {path}");
                        }
                    }
                }
            }
            Ok(())
        }
        "error" => Err(resp.error.unwrap_or_else(|| "server reported an error".into())),
        other => Err(format!("unexpected terminal event `{other}`")),
    }
}

/// `mio stats`: fetch the daemon's statistics — deterministic JSON by
/// default, or the Prometheus text exposition of its RED metrics with
/// `--prom` (queue-wait and service-time histograms, per-client request
/// counters, cache/coalesce ratios).
fn cmd_stats(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let endpoint = take_endpoint(&mut args).map_err(|e| format!("stats: {e}"))?;
    let prom = take_switch(&mut args, "--prom");
    if let Some(stray) = args.first() {
        return Err(format!("stats: unexpected argument `{stray}`"));
    }
    let body = if prom { serve::RequestBody::Metrics } else { serve::RequestBody::Stats };
    let resp =
        serve::submit_once(&endpoint, &serve::Request { id: 1, client: None, body }, false)?;
    match resp.event.as_str() {
        "done" => match resp.result {
            // The Metrics payload is the exposition body itself; print
            // it verbatim (it is newline-terminated).
            Some(serde::Value::Str(text)) => {
                print!("{text}");
                Ok(())
            }
            Some(value) => {
                let text = serde_json::to_string_pretty(&value)
                    .map_err(|e| format!("serialize stats: {e}"))?;
                println!("{text}");
                Ok(())
            }
            None => Err("stats response carried no payload".into()),
        },
        "error" => Err(resp.error.unwrap_or_else(|| "server reported an error".into())),
        other => Err(format!("unexpected terminal event `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn take_flag_extracts_value_and_removes_both_tokens() {
        let mut args = argv("venus --seed 9 -o out.trace");
        assert_eq!(take_flag(&mut args, "--seed").unwrap(), Some("9".into()));
        assert_eq!(take_flag(&mut args, "-o").unwrap(), Some("out.trace".into()));
        assert_eq!(args, argv("venus"));
        assert_eq!(take_flag(&mut args, "--scale").unwrap(), None);
    }

    #[test]
    fn take_flag_rejects_missing_value() {
        let mut args = argv("venus --seed");
        assert!(take_flag(&mut args, "--seed").is_err());
    }

    #[test]
    fn take_switch_removes_token() {
        let mut args = argv("a.trace --no-readahead --cache 16");
        assert!(take_switch(&mut args, "--no-readahead"));
        assert!(!take_switch(&mut args, "--no-readahead"));
        assert_eq!(args, argv("a.trace --cache 16"));
    }

    #[test]
    fn run_dispatches_unknown_commands_to_error() {
        assert!(run(&argv("bogus")).is_err());
        assert!(run(&argv("help")).is_ok());
        assert!(run(&argv("apps")).is_ok());
    }

    #[test]
    fn stats_requires_an_endpoint_and_rejects_strays() {
        assert!(run(&argv("stats")).is_err());
        assert!(run(&argv("stats --prom")).is_err());
        assert!(run(&argv("stats --socket a.sock --bogus")).is_err());
    }

    #[test]
    fn take_endpoint_requires_exactly_one_transport() {
        assert!(take_endpoint(&mut argv("--workers 2")).is_err());
        assert!(take_endpoint(&mut argv("--socket a.sock --tcp 127.0.0.1:1")).is_err());
        assert_eq!(
            take_endpoint(&mut argv("--socket a.sock")).unwrap(),
            serve::Endpoint::Unix("a.sock".into())
        );
        assert_eq!(
            take_endpoint(&mut argv("--tcp 127.0.0.1:7070")).unwrap(),
            serve::Endpoint::Tcp("127.0.0.1:7070".into())
        );
    }

    #[test]
    fn submit_body_matches_the_one_shot_binaries() {
        // --quick must land on `mio sim`'s Scale(8); campaign defaults
        // must be CampaignSpec::datacenter's (scale 16, seed 42).
        let body = submit_body(&mut argv("--fig8-point 32:4096 --quick")).unwrap();
        assert_eq!(
            body,
            serve::RequestBody::Fig8Point(serve::Fig8PointSpec {
                cache_mb: 32,
                block: 4096,
                scale: 8,
                seed: 42,
            })
        );
        let body = submit_body(&mut argv("--campaign 24x16 --shards 4")).unwrap();
        assert_eq!(
            body,
            serve::RequestBody::Campaign(serve::CampaignPointSpec::datacenter(24, 16, 4))
        );
        assert_eq!(submit_body(&mut argv("--stats")).unwrap(), serve::RequestBody::Stats);
        assert_eq!(submit_body(&mut argv("--shutdown")).unwrap(), serve::RequestBody::Shutdown);
    }

    #[test]
    fn submit_body_rejects_ambiguous_or_missing_requests() {
        assert!(submit_body(&mut argv("")).is_err());
        assert!(submit_body(&mut argv("--stats --shutdown")).is_err());
        assert!(submit_body(&mut argv("--fig8-point 32x4096")).is_err());
        assert!(submit_body(&mut argv("--campaign 24:16")).is_err());
    }
}
