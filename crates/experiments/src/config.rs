//! The run configuration: every knob that changes how a run executes or
//! what it records, parsed once at the command line and passed down.
//!
//! The simulated machine itself (cache, blocks, devices, seed) is what a
//! run computes over; this config only says how many threads compute it,
//! where traces live, and which observers watch. Same config + same seed
//! ⇒ identical result bytes, at any thread or shard count.
//!
//! | flag | default |
//! |---|---|
//! | `--threads N` | available cores |
//! | `--shards N` | 1 |
//! | `--trace-dir PATH` | per-process temp dir |
//! | `--trace-mem-budget MB` | unbounded |
//! | `--devices paper\|1991\|modern` | `paper` |
//! | `--progress` | off |
//! | `--timeline NS` | off |
//! | `--timeline-out PATH` | none |
//! | `--profile PATH` | none |
//! | `--profile-capacity N` | 1 Mi events |
//!
//! The flags are the only spelling: the process environment is never
//! read, and a malformed flag is an error.

use crate::modern::DeviceEra;
use crate::trace_store::StoreConfig;

/// How one run executes and what it records. Build it with
/// [`RunConfig::from_args`] at the edge; library code only reads it.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Sweep worker threads (see [`crate::par_sweep()`]).
    pub threads: usize,
    /// Sharded-engine worker threads for campaigns and the modern
    /// cluster run. Reports are identical at any count.
    pub shards: usize,
    /// Trace-store memory budget and spill directory.
    pub store: StoreConfig,
    /// Device era for `mio sim`: the paper's Y-MP or the 2026 rerun.
    pub devices: DeviceEra,
    /// Throttled sweep heartbeat on stderr.
    pub progress: bool,
    /// Gauge-timeline sample interval in simulated nanoseconds, copied
    /// into every `SimConfig` the run builds.
    pub timeline_ns: Option<u64>,
    /// Where the collected timelines go as standalone JSON.
    pub timeline_out: Option<String>,
    /// Where the Perfetto trace goes; `Some` turns span recording on.
    pub profile: Option<String>,
    /// Flight-recorder ring size in events.
    pub profile_capacity: Option<usize>,
}

impl Default for RunConfig {
    /// Every default from the table in the module docs.
    fn default() -> RunConfig {
        RunConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shards: 1,
            store: StoreConfig::default(),
            devices: DeviceEra::Era1991,
            progress: false,
            timeline_ns: None,
            timeline_out: None,
            profile: None,
            profile_capacity: None,
        }
    }
}

const MB: usize = 1024 * 1024;

fn positive(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

fn era(raw: &str) -> Option<DeviceEra> {
    match raw.trim() {
        "paper" | "1991" => Some(DeviceEra::Era1991),
        "modern" => Some(DeviceEra::Era2026),
        _ => None,
    }
}

fn budget(raw: &str) -> Option<usize> {
    positive(raw).and_then(|mb| mb.checked_mul(MB))
}

/// Remove `flag` and its value from `args`. A missing value, or one that
/// is itself a flag (`--trace-dir --quick`), is an error.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    match args.get(i + 1) {
        Some(v) if !v.trim().is_empty() && !v.starts_with("--") => {
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
        Some(v) => Err(format!("{flag} needs a value, got `{v}`")),
        None => Err(format!("{flag} needs a value")),
    }
}

/// Remove the bare switch `flag` from `args`, reporting whether it was
/// there.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let found = args.iter().position(|a| a == flag);
    if let Some(i) = found {
        args.remove(i);
    }
    found.is_some()
}

/// Parse an optional flag value with `parse`, naming what it wants on
/// failure.
fn take_parsed<T>(
    args: &mut Vec<String>,
    flag: &str,
    wants: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    take_flag(args, flag)?
        .map(|raw| parse(&raw).ok_or_else(|| format!("{flag} needs {wants}, got `{raw}`")))
        .transpose()
}

impl RunConfig {
    /// Consume every run-configuration flag from `args`, leaving the
    /// rest for the caller. Unset flags keep [`RunConfig::default`].
    pub fn from_args(args: &mut Vec<String>) -> Result<RunConfig, String> {
        let mut cfg = RunConfig::default();
        let count = "a positive integer";
        if let Some(n) = take_parsed(args, "--threads", count, positive)? {
            cfg.threads = n;
        }
        if let Some(n) = take_parsed(args, "--shards", count, positive)? {
            cfg.shards = n;
        }
        if let Some(dir) = take_flag(args, "--trace-dir")? {
            cfg.store.spill_dir = Some(dir.into());
        }
        if let Some(b) = take_parsed(args, "--trace-mem-budget", "a positive MB count", budget)? {
            cfg.store.mem_budget = Some(b);
        }
        if let Some(e) = take_parsed(args, "--devices", "one of paper|1991|modern", era)? {
            cfg.devices = e;
        }
        cfg.progress = take_switch(args, "--progress");
        if let Some(ns) =
            take_parsed(args, "--timeline", "a positive nanosecond interval", positive)?
        {
            cfg.timeline_ns = Some(ns as u64);
        }
        if let Some(p) = take_flag(args, "--timeline-out")? {
            cfg.timeline_out = Some(p);
        }
        if let Some(p) = take_flag(args, "--profile")? {
            cfg.profile = Some(p);
        }
        if let Some(c) =
            take_parsed(args, "--profile-capacity", "a positive event count", positive)?
        {
            cfg.profile_capacity = Some(c);
        }
        Ok(cfg)
    }

    /// Size the flight recorder, then turn span recording on when a
    /// profile was asked for. Call before the first simulation: the first
    /// capacity wins.
    pub fn start_profile(&self) {
        if let Some(c) = self.profile_capacity {
            obs::init(c);
        }
        if self.profile.is_some() {
            obs::set_enabled(true);
        }
    }

    /// Export the profile and the timelines this config asked for.
    /// Export failures are reported on stderr, never fatal: a missing
    /// trace must not fail the run that produced the results.
    pub fn finish_observers(&self) {
        if let Some(path) = &self.profile {
            obs::finish_profile(path);
        }
        if let Some(path) = &self.timeline_out {
            obs::finish_timelines(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> (Result<RunConfig, String>, Vec<String>) {
        let mut args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let cfg = RunConfig::from_args(&mut args);
        (cfg, args)
    }

    #[test]
    fn every_flag_rejects_bad_values() {
        let numeric =
            ["--threads", "--shards", "--trace-mem-budget", "--timeline", "--profile-capacity"];
        let paths = ["--trace-dir", "--timeline-out", "--profile"];
        let mut cases: Vec<String> = Vec::new();
        for flag in numeric.iter().chain(&paths).chain(&["--devices"]) {
            cases.push(format!("--quick {flag}"));
            cases.push(format!("{flag} --quick"));
        }
        for flag in numeric {
            cases.push(format!("{flag} 0"));
            cases.push(format!("{flag} lots"));
            cases.push(format!("{flag} -3"));
        }
        cases.push("--devices bogus".into());
        for case in &cases {
            let (cfg, _) = parse(case);
            assert!(cfg.is_err(), "`{case}` must be rejected");
        }
        // A blank value cannot come from `split_whitespace`; build argv
        // by hand so every value-taking flag sees one.
        for flag in numeric.iter().chain(&paths).chain(&["--devices"]) {
            for blank in ["", "  "] {
                let mut args = vec![flag.to_string(), blank.to_string()];
                assert!(
                    RunConfig::from_args(&mut args).is_err(),
                    "`{flag} {blank:?}` must be rejected"
                );
            }
        }
    }

    #[test]
    fn flags_are_consumed_and_typed() {
        let (cfg, rest) = parse(
            "--quick --threads 3 --shards 4 --trace-dir tr --trace-mem-budget 2 --devices modern \
             --progress --timeline 1000000 --timeline-out tl.json --profile p.json \
             --profile-capacity 64 --json out.json",
        );
        let cfg = cfg.expect("well-formed");
        assert_eq!(rest, ["--quick", "--json", "out.json"]);
        assert_eq!((cfg.threads, cfg.shards), (3, 4));
        assert_eq!(cfg.store.spill_dir.as_deref(), Some(std::path::Path::new("tr")));
        assert_eq!(cfg.store.mem_budget, Some(2 * MB));
        assert_eq!(cfg.devices, DeviceEra::Era2026);
        assert!(cfg.progress);
        assert_eq!(cfg.timeline_ns, Some(1_000_000));
        assert_eq!(cfg.timeline_out.as_deref(), Some("tl.json"));
        assert_eq!(cfg.profile.as_deref(), Some("p.json"));
        assert_eq!(cfg.profile_capacity, Some(64));
        let (cfg, _) = parse("--devices 1991");
        assert_eq!(cfg.expect("1991 is the paper era").devices, DeviceEra::Era1991);
    }
}
