//! The memory/I-O tradeoff that shaped the traced programs (§2.2, §3).
//!
//! UNICOS queued batch jobs by memory footprint, so "turnaround time is
//! shortest for the application which requires the least main memory.
//! Programmers take advantage of this by structuring their program to
//! use smaller in-memory data structures while staging data to/from SSD
//! or disk." gcm kept everything in memory (tiny I/O); venus went to the
//! other extreme (tiny memory, huge I/O); ccm sat in between.
//!
//! This example builds one climate-model computation at three in-memory
//! array sizes and shows the resulting I/O demand, Amdahl balance, and
//! solo CPU utilization at a fixed cache — the whole §3 story in one
//! table.
//!
//! ```text
//! cargo run --release --example memory_tradeoff
//! ```

use miller_core::render::{num, pct, TextTable};
use miller_core::{
    generate, AmdahlReport, AppSpec, AppSummary, CampaignBuilder, CycleDef, FileDef, SweepOrder,
    Synchrony, YMP_DEFAULT_MIPS,
};
use sim_core::units::MB;
use sim_core::SimDuration;
use workload::LatencyModel;

/// One computation, parameterized by how much of its 192 MB problem
/// lives in memory. What doesn't fit is staged through the file system
/// every cycle.
fn climate_model(name: &str, in_memory_mb: u64) -> AppSpec {
    let problem_mb: u64 = 192;
    let staged = problem_mb.saturating_sub(in_memory_mb);
    let cycles = 40;
    AppSpec {
        name: name.to_string(),
        pid: 1,
        files: vec![FileDef::new(1, (staged.max(1)) * MB, "/scratch/model/staged")],
        cpu_time: SimDuration::from_secs(120),
        init_read: (8 * MB, 512 * 1024, 1),
        final_write: (8 * MB, 512 * 1024, 1),
        cycles,
        cycle: CycleDef {
            // Each cycle reads and rewrites the staged slice once.
            read_bytes: staged * MB,
            write_bytes: staged * MB,
            read_io: 512 * 1024,
            write_io: 512 * 1024,
            order: SweepOrder::Sequential,
            interleave_run: 1,
            sweep_cpu_frac: 0.5,
        },
        checkpoint: None,
        sync: Synchrony::Sync,
        latency: LatencyModel::ymp_disk(),
        compute_jitter: 0.05,
    }
}

fn main() {
    println!(
        "One 192 MB climate computation, three memory footprints\n\
         (the §2.2 queue game: less memory = shorter queue = more I/O):\n"
    );
    let mut t = TextTable::new(&[
        "variant", "memory MB", "staged MB/cycle", "MB/s", "Amdahl ratio", "solo util @32MB",
    ]);
    for (name, mem) in [("gcm-like", 192u64), ("ccm-like", 128), ("venus-like", 16)] {
        let spec = climate_model(name, mem);
        let trace = generate(&spec, 7);
        let summary = AppSummary::from_trace(&trace);
        let amdahl = AmdahlReport::of(&summary, YMP_DEFAULT_MIPS);
        let sim = CampaignBuilder::buffered_mb(32).trace(name, trace).run();
        t.row(vec![
            name.to_string(),
            mem.to_string(),
            num((192 - mem.min(192)) as f64),
            num(summary.mb_per_sec),
            num(amdahl.balance_ratio),
            pct(sim.utilization()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "The memory-rich variant barely touches the file system and runs\n\
         the CPU flat out; the memory-starved variant demands tens of MB/s\n\
         (past Amdahl's balance point of {:.0} MB/s for a {:.0}-MIPS CPU)\n\
         and stalls on staging unless the buffer hierarchy absorbs it —\n\
         which is exactly why the paper's SSD result matters.\n",
        YMP_DEFAULT_MIPS / 8.0,
        YMP_DEFAULT_MIPS
    );
}
