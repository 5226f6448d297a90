//! The §2.2 multiprogramming rule of thumb: "n+1 jobs resident in main
//! memory will keep n processors busy, given a typical supercomputer
//! workload" (citing the X-MP workload study [8]).
//!
//! We sweep the number of CPUs and the number of resident typical jobs
//! and report utilization. The shape to reproduce: with j = n jobs the
//! CPUs starve whenever all jobs block at once; j = n+1 recovers most of
//! the lost capacity; further jobs add little.

use crate::config::RunConfig;
use crate::render::{pct, TextTable};
use crate::runner::Scale;
use iosim::{SimConfig, Simulation};
use iotrace::{Direction, IoEvent, Trace};
use serde::{Deserialize, Serialize};
use sim_core::units::KB;
use sim_core::{SimDuration, SimRng, SimTime};
use std::sync::Arc;

/// One (CPUs, jobs) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NPlusOnePoint {
    /// CPUs simulated.
    pub cpus: usize,
    /// Jobs resident.
    pub jobs: usize,
    /// CPU utilization across all CPUs.
    pub utilization: f64,
    /// Idle CPU-seconds.
    pub idle_secs: f64,
}

/// The sweep result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NPlusOneResult {
    /// All measured points.
    pub points: Vec<NPlusOnePoint>,
}

impl NPlusOneResult {
    /// Utilization at (cpus, jobs), if measured.
    pub fn at(&self, cpus: usize, jobs: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.cpus == cpus && p.jobs == jobs)
            .map(|p| p.utilization)
    }

    /// The rule itself: for every CPU count measured, n+1 jobs must
    /// recover at least `frac` of the utilization gap between n jobs and
    /// full capacity.
    pub fn rule_holds(&self, frac: f64) -> bool {
        let cpus: std::collections::BTreeSet<usize> =
            self.points.iter().map(|p| p.cpus).collect();
        cpus.into_iter().all(|n| {
            match (self.at(n, n), self.at(n, n + 1)) {
                (Some(u_n), Some(u_n1)) => u_n1 >= u_n + frac * (1.0 - u_n) - 1e-9,
                _ => true,
            }
        })
    }
}

/// A "typical supercomputer job" in the §2.2 sense: its data array fits
/// in memory, so it computes most of the time and blocks only for
/// occasional disk I/O (checkpoint-grade duty cycle ≈ 85 %). The rule of
/// thumb explicitly assumes this shape — venus-class staging jobs need
/// far more than one spare job per CPU.
fn typical_job(pid: u32, seed: u64, scale: Scale) -> Trace {
    let mut rng = SimRng::new(seed ^ (pid as u64) << 8);
    let mut t = Trace::new();
    let mut wall = SimTime::ZERO;
    let n_ios = (400 / scale.0.max(1)).max(40);
    for i in 0..n_ios as u64 {
        // ~200 ms of compute (jittered to desynchronize the fleet), then
        // one 256 KB read that costs ~40 ms at the disk.
        let gap = SimDuration::from_ticks(rng.jitter(20_000.0, 0.4).round() as u64);
        wall += gap;
        t.push(IoEvent::logical(
            Direction::Read,
            pid,
            1,
            i * 256 * KB,
            256 * KB,
            wall,
            gap,
        ));
        wall += SimDuration::from_millis(40);
    }
    t
}

/// Run the sweep: CPUs ∈ `cpu_counts`, jobs ∈ {n, n+1, n+2} for each n,
/// each job a "typical" (mostly in-memory) program. Points fan out over
/// [`crate::par_sweep::par_sweep`]; each point's job traces derive only
/// from `(seed, job index)`, so results are identical to a serial run.
///
/// Job `j`'s trace is the same at every grid point, so the fleet is
/// generated once up front and every point replays the shared slices.
pub fn nplus1(cfg: &RunConfig, cpu_counts: &[usize], scale: Scale, seed: u64) -> NPlusOneResult {
    let mut grid: Vec<(usize, usize)> = Vec::new();
    for &cpus in cpu_counts {
        for jobs in [cpus, cpus + 1, cpus + 2] {
            grid.push((cpus, jobs));
        }
    }
    let max_jobs = grid.iter().map(|&(_, jobs)| jobs).max().unwrap_or(0);
    let fleet: Vec<Arc<[IoEvent]>> = (0..max_jobs)
        .map(|j| {
            let pid = (j + 1) as u32;
            typical_job(pid, seed + j as u64, scale).events().copied().collect()
        })
        .collect();
    let points = crate::par_sweep::par_sweep(cfg.threads, cfg.progress, &grid, |&(cpus, jobs)| {
        // No cache: every read pays the disk, giving the steady ~85 %
        // duty cycle the rule presumes.
        let mut config = SimConfig { timeline_ns: cfg.timeline_ns, ..SimConfig::uncached() };
        config.n_cpus = cpus;
        // Enough spindles that the disks never serialize the fleet.
        config.n_disks = 16;
        let mut sim = Simulation::new(config);
        for (j, events) in fleet.iter().take(jobs).enumerate() {
            let pid = (j + 1) as u32;
            sim.add_process_shared(pid, format!("job#{pid}"), events.clone())
                .expect("valid process");
        }
        let r = sim.run();
        NPlusOnePoint {
            cpus,
            jobs,
            utilization: r.utilization(),
            idle_secs: r.idle_secs(),
        }
    });
    NPlusOneResult { points }
}

/// Render the sweep as a table.
pub fn render_nplus1(r: &NPlusOneResult) -> String {
    let mut t = TextTable::new(&["CPUs", "jobs", "utilization", "idle CPU-s"]);
    for p in &r.points {
        t.row(vec![
            p.cpus.to_string(),
            p.jobs.to_string(),
            pct(p.utilization),
            format!("{:.1}", p.idle_secs),
        ]);
    }
    format!(
        "n+1 rule (§2.2): typical (in-memory) jobs vs CPUs\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_plus_one_recovers_utilization() {
        let r = nplus1(&RunConfig::default(), &[1, 2], Scale(16), 31);
        assert_eq!(r.points.len(), 6);
        // The extra job must close most of the utilization gap.
        assert!(r.rule_holds(0.5), "points: {:#?}", r.points);
        // And n+1 jobs reach high absolute utilization.
        for n in [1usize, 2] {
            let u = r.at(n, n + 1).unwrap();
            assert!(u > 0.9, "cpus {n}: n+1 jobs give only {u:.3}");
        }
        // And utilization grows monotonically with jobs for fixed CPUs.
        for n in [1usize, 2] {
            let u: Vec<f64> = (n..=n + 2).map(|j| r.at(n, j).unwrap()).collect();
            assert!(u[1] >= u[0] - 1e-9 && u[2] >= u[1] - 1e-9, "cpus {n}: {u:?}");
        }
    }

    #[test]
    fn render_contains_all_points() {
        let r = nplus1(&RunConfig::default(), &[1], Scale(16), 31);
        let text = render_nplus1(&r);
        assert!(text.contains("n+1 rule"));
        assert_eq!(text.lines().count(), 6); // title + header + rule + 3 rows
    }
}
