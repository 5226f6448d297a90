//! The parallel harness must be a pure speedup: fanning a sweep out
//! over worker threads may not change a single byte of any result.
//!
//! Each test runs the same parameter grid twice — once through
//! [`experiments::serial_sweep`], once through [`experiments::par_sweep`]
//! — with identical seeds, and compares the serialized reports
//! byte-for-byte. Simulations are deterministic functions of their
//! (config, seed) inputs, so any divergence here means the harness
//! leaked scheduling order into the results.

use experiments::figures::fig8_config;
use experiments::{
    ablations, app_processes, par_sweep, scaled_spec, serial_sweep, simulation, RunConfig, Scale,
    TraceStore, VENUS_PAIR,
};
use iosim::{SimConfig, SimReport, Simulation};
use workload::generate;

const MB: u64 = 1024 * 1024;

/// The Figure 6/8-style grid: two venus copies vs cache size and block
/// size. Small scale keeps the test quick; the code path is identical
/// to the full-scale sweep.
fn grid() -> Vec<(u64, u64)> {
    let mut jobs = Vec::new();
    for &block in &[4096u64, 8192] {
        for &mb in &[4u64, 16, 32] {
            jobs.push((mb, block));
        }
    }
    jobs
}

/// One grid point replayed from `store`, sampling a gauge timeline on
/// a `timeline_ns` grid when set.
fn run_point(
    store: &TraceStore,
    timeline_ns: Option<u64>,
) -> impl Fn(&(u64, u64)) -> SimReport + Sync + '_ {
    move |&(mb, block)| {
        let config = SimConfig { timeline_ns, ..fig8_config(mb * MB, block) };
        simulation(store, config, &VENUS_PAIR, Scale(32), 42).run()
    }
}

#[test]
fn parallel_sweep_matches_serial_byte_for_byte() {
    let jobs = grid();
    let store = TraceStore::new();
    let serial = serial_sweep(&jobs, run_point(&store, None));
    let parallel = par_sweep(4, false, &jobs, run_point(&store, None));
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(parallel.iter()).enumerate() {
        let s_json = serde_json::to_string(s).expect("serialize serial report");
        let p_json = serde_json::to_string(p).expect("serialize parallel report");
        assert_eq!(
            s_json, p_json,
            "sweep point {i} ({:?}) diverges between serial and parallel runs",
            jobs[i]
        );
    }
}

#[test]
fn parallel_sweep_is_stable_across_repeat_runs() {
    let jobs = grid();
    let store = TraceStore::new();
    let a = par_sweep(4, false, &jobs, run_point(&store, None));
    let cold = store.footprint();
    let b = par_sweep(4, false, &jobs, run_point(&store, None));
    let a_json = serde_json::to_string(&a).expect("serialize");
    let b_json = serde_json::to_string(&b).expect("serialize");
    assert_eq!(a_json, b_json, "repeat parallel sweeps must be byte-identical");
    // The warm sweep replays what the cold one memoized: it generates
    // no trace, so the store's entries, events and bytes are unchanged.
    assert_eq!(store.footprint(), cold, "a warm sweep must generate no trace");
}

/// The two-venus run with traces generated *fresh* at every call and
/// copied in through `add_process`, bypassing the memoizing
/// [`TraceStore`] entirely — the pre-store code path, kept here as the
/// reference the store must match byte-for-byte.
fn fresh_two_venus_run(config: SimConfig, scale: Scale, seed: u64) -> SimReport {
    let mut sim = Simulation::new(config);
    for (kind, pid, seed) in app_processes(&VENUS_PAIR, seed) {
        let trace = generate(&scaled_spec(kind, pid, scale), seed);
        sim.add_process(pid, format!("{}#{pid}", kind.name()), &trace).expect("valid process");
    }
    sim.run()
}

fn fresh_point(&(mb, block): &(u64, u64)) -> SimReport {
    fresh_two_venus_run(fig8_config(mb * MB, block), Scale(32), 42)
}

#[test]
fn memoized_store_matches_fresh_generation_at_one_thread() {
    let jobs = grid();
    let fresh = serial_sweep(&jobs, fresh_point);
    let memoized = serial_sweep(&jobs, run_point(&TraceStore::new(), None));
    for (i, (f, m)) in fresh.iter().zip(memoized.iter()).enumerate() {
        let f_json = serde_json::to_string(f).expect("serialize fresh report");
        let m_json = serde_json::to_string(m).expect("serialize memoized report");
        assert_eq!(
            f_json, m_json,
            "sweep point {i} ({:?}) diverges between fresh and memoized traces",
            jobs[i]
        );
    }
}

#[test]
fn memoized_store_matches_fresh_generation_at_n_threads() {
    let jobs = grid();
    let fresh = serial_sweep(&jobs, fresh_point);
    // A cold store exercises concurrent first-request memoization inside
    // the parallel sweep; a second sweep over the same store then
    // re-checks the warm path.
    let store = TraceStore::new();
    let memoized_cold = par_sweep(4, false, &jobs, run_point(&store, None));
    let memoized_warm = par_sweep(4, false, &jobs, run_point(&store, None));
    let fresh_json = serde_json::to_string(&fresh).expect("serialize");
    assert_eq!(
        fresh_json,
        serde_json::to_string(&memoized_cold).expect("serialize"),
        "cold-store parallel sweep diverges from fresh serial generation"
    );
    assert_eq!(
        fresh_json,
        serde_json::to_string(&memoized_warm).expect("serialize"),
        "warm-store parallel sweep diverges from fresh serial generation"
    );
}

#[test]
fn ablations_match_fresh_generation() {
    // The quantum ablation builds its simulations from store-shared
    // slices; rebuild the same three runs with freshly generated traces
    // and compare the serialized sweeps byte-for-byte.
    let (scale, seed) = (Scale(32), 21);
    let memoized =
        ablations::quantum_ablation(&TraceStore::new(), &RunConfig::default(), scale, seed);
    let quanta = [1u64, 16, 100];
    let fresh_points = serial_sweep(&quanta, |&ms| {
        let mut config = SimConfig::buffered(32 * MB);
        config.sched.quantum = sim_core::SimDuration::from_millis(ms);
        let r = fresh_two_venus_run(config, scale, seed);
        (r.idle_secs(), r.utilization(), r.wall_secs())
    });
    assert_eq!(memoized.points.len(), fresh_points.len());
    for (m, (idle, util, wall)) in memoized.points.iter().zip(fresh_points) {
        assert_eq!(m.idle_secs.to_bits(), idle.to_bits(), "{}", m.variant);
        assert_eq!(m.utilization.to_bits(), util.to_bits(), "{}", m.variant);
        assert_eq!(m.wall_secs.to_bits(), wall.to_bits(), "{}", m.variant);
    }
}

/// A timeline belongs to one run's config, not to the process: a fig8
/// point sampled on a 1 ms grid and one not sampled at all, run at the
/// same time on two threads of one process, both serialize exactly like
/// a plain run.
#[test]
fn concurrent_runs_with_and_without_a_timeline_match_a_plain_run() {
    let store = TraceStore::new();
    let point = (32, 4096);
    let json = |timeline_ns| {
        serde_json::to_string_pretty(&run_point(&store, timeline_ns)(&point))
            .expect("serialize report")
    };
    let plain = json(None);
    let (sampled, unsampled) = std::thread::scope(|scope| {
        let sampled = scope.spawn(|| json(Some(1_000_000)));
        let unsampled = scope.spawn(|| json(None));
        (sampled.join().expect("sampled run"), unsampled.join().expect("unsampled run"))
    });
    assert!(!obs::timeline::drain().is_empty(), "the 1 ms run sampled a timeline");
    assert_eq!(sampled, plain, "the sampled run's report moved");
    assert_eq!(unsampled, plain, "the unsampled run's report moved");
}
