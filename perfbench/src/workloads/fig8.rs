//! `fig8_paper` and `fig8_modern`: the Figure 8 cache sweep, one point
//! at a time on one thread against a warm in-memory trace store.
//!
//! Every point replays two venus processes (trace seeds `s` and `s + 1`)
//! behind a read-ahead, write-behind cache. `fig8_paper` runs the paper's
//! 14-point grid on Y-MP disks; `fig8_modern` runs the 7 cache sizes at
//! 4 KB blocks on the 2026 tiered hierarchy with the 500x CPU. The wheel
//! and cache code is the same in both, so a storage-model change shows
//! on `fig8_modern` and nothing on `fig8_paper`. One sweep covers the grid
//! for several trace seeds derived from the run seed: the host cost of a
//! point depends on its trace, and averaging several keeps a run's
//! figures from hanging on one seed's trace. Both sweeps hold 56 points,
//! enough for a tail percentile with ten points beyond it (p75).

use super::{
    point_invariants, trace_keys, trace_seed, Point, Proc, RunOptions, Sample, Setup, Steps, Window,
};
use crate::check::Checker;
use crate::metrics::{RunReport, END_TO_END, PER_LAYER};
use crate::spans::SpanId;
use buffer_cache::WritePolicy;
use experiments::modern::{era_config, DeviceEra};
use experiments::{Scale, TraceStore};
use std::time::Instant;
use workload::AppKind;

const MB: u64 = 1024 * 1024;

/// The Figure 8 cache sizes, MB.
pub const FIG8_SIZES_MB: [u64; 7] = [4, 8, 16, 32, 64, 128, 256];

/// One sweep's shape.
#[derive(Debug, Clone)]
pub struct Fig8Spec {
    /// Device and CPU era.
    pub era: DeviceEra,
    /// Cache block sizes, bytes.
    pub blocks: Vec<u64>,
    /// Cache sizes, MB.
    pub sizes_mb: Vec<u64>,
    /// Trace scale divisor.
    pub scale: Scale,
    /// Trace seeds per sweep (see [`trace_seed`]).
    pub seeds: usize,
}

impl Fig8Spec {
    /// `fig8_paper`: 7 sizes x 4/8 KB blocks on paper disks, scale 16.
    pub fn paper() -> Fig8Spec {
        Fig8Spec {
            era: DeviceEra::Era1991,
            blocks: vec![4096, 8192],
            sizes_mb: FIG8_SIZES_MB.to_vec(),
            scale: Scale(16),
            seeds: 4,
        }
    }

    /// `fig8_modern`: 7 sizes x 4 KB blocks on the 2026 hierarchy, scale
    /// 16, for eight trace seeds, so a sweep has as many points as
    /// `fig8_paper`'s.
    pub fn modern() -> Fig8Spec {
        Fig8Spec {
            era: DeviceEra::Era2026,
            blocks: vec![4096],
            seeds: 8,
            ..Fig8Spec::paper()
        }
    }

    /// The sweep's points for run seed `seed`: the grid for each trace seed.
    pub fn points(&self, seed: u64) -> Vec<Point> {
        (0..self.seeds)
            .flat_map(|k| {
                let s = trace_seed(seed, k);
                fig8_jobs(&self.blocks, &self.sizes_mb)
                    .into_iter()
                    .map(move |(mb, block)| fig8_point(self.era, mb, block, self.scale, s))
            })
            .collect()
    }
}

/// The Figure 8 parameter grid, (cache MB, block): every cache size at
/// every block size, block-major like the paper's figure.
pub fn fig8_jobs(blocks: &[u64], sizes_mb: &[u64]) -> Vec<(u64, u64)> {
    blocks
        .iter()
        .flat_map(|&b| sizes_mb.iter().map(move |&mb| (mb, b)))
        .collect()
}

/// One Figure 8 point: two venus copies (trace seeds `seed`, `seed + 1`)
/// behind a read-ahead, write-behind cache of `mb` MB in `block`-byte
/// blocks — the configuration `two_venus_report_in` and the serving
/// daemon build, on the devices of `era`.
pub fn fig8_point(era: DeviceEra, mb: u64, block: u64, scale: Scale, seed: u64) -> Point {
    let mut config = era_config(era, mb * MB);
    let c = config.cache.as_mut().expect("buffered config has a cache");
    c.block_size = block;
    c.read_ahead = true;
    c.write_policy = WritePolicy::WriteBehind;
    let venus = |pid: u32, seed: u64| Proc {
        pid,
        name: format!("venus#{pid}"),
        kind: AppKind::Venus,
        seed,
    };
    Point {
        key: format!("{mb}MB/{block}B/scale{}/seed{seed}", scale.0),
        config,
        procs: vec![venus(1, seed), venus(2, seed + 1)],
        scale,
    }
}

/// Run one fig8 workload: set up (a fresh store, generating every trace
/// the sweep replays), then sweep until the window closes, repeating the
/// set-up as [`Setup`] spreads it. A traced run adds the per-layer
/// analyses.
pub fn run(spec: &Fig8Spec, name: &'static str, opts: &RunOptions) -> RunReport {
    let points = spec.points(opts.seed);
    let keys = trace_keys(&points);
    let spans = &opts.spans;
    let mut checker = Checker::new(name, opts.seed, &opts.golden);

    let mut setup = Setup::new(|_, steps: &mut Steps, _: &mut Checker, _| {
        let store = TraceStore::new();
        for &(kind, pid, seed, scale) in &keys {
            steps.time(|| store.events(kind, pid, seed, scale));
        }
        store
    });
    let store = setup.rep(spans, &mut checker);
    let expected: Vec<u64> = points.iter().map(|p| p.events(&store)).collect();

    let mut window = Window::default();
    let t0 = Instant::now();
    let mut id = 0u64;
    while window.units.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds {
        if setup.due(t0.elapsed().as_secs_f64(), opts.seconds) {
            drop(setup.rep(spans, &mut checker));
        }
        let sweep = spans.open("sweep", SpanId::NONE, window.units.len() as u64);
        let mut unit = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            let kernel_s = window.kernel.run();
            let span = spans.open("point", sweep, id);
            let r = p.run(&store, spans, span, id);
            spans.close(span);
            unit.push(Sample {
                latency_s: r.total().as_secs_f64(),
                ios: r.ios(),
                kernel_s,
            });
            checker.check(
                &p.key,
                crate::check::fnv1a(r.json.as_bytes()),
                point_invariants(&r.report, expected[i]),
            );
            id += 1;
        }
        window.units.push(unit);
        spans.close(sweep);
    }
    while setup.due(f64::INFINITY, opts.seconds) {
        drop(setup.rep(spans, &mut checker));
    }
    let peak_store_mb = store.footprint().peak_bytes as f64 / MB as f64;

    if !opts.traced() {
        let values = window.end_to_end(&setup, Some(crate::heap::peak_bytes()));
        return RunReport {
            attempted: checker.attempted,
            failed: checker.failed,
            catalog: END_TO_END,
            values,
        };
    }
    let mut values = window.traced();
    values.extend(crate::layers::single_node(&points, &store, spans));
    values.extend(crate::layers::traces(&keys, &opts.run_dir, spans));
    values.set("trace_store.peak_mb", peak_store_mb);
    values.extend(crate::layers::obs_overhead(&points, &store, spans, 3));
    values.extend(crate::layers::bypassed(&crate::layers::SHARDED));
    values.extend(crate::layers::bypassed(&crate::layers::SERVE));
    RunReport {
        attempted: checker.attempted,
        failed: checker.failed,
        catalog: PER_LAYER,
        values,
    }
}
