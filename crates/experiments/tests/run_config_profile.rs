//! `--profile` and `--profile-capacity` reach the flight recorder through
//! `RunConfig`. The recorder and its enabled switch are process-wide, so
//! this check lives in its own test binary.

use experiments::RunConfig;

#[test]
fn profile_flags_size_the_ring_and_turn_recording_on() {
    assert!(!obs::enabled(), "recording must start disabled");
    let mut args: Vec<String> =
        ["--quick", "--profile-capacity", "8", "--profile", "p.json", "--json", "x"]
            .map(String::from)
            .into();
    let cfg = RunConfig::from_args(&mut args).expect("well-formed");
    assert_eq!(args, ["--quick", "--json", "x"], "both flags are consumed");
    assert_eq!(cfg.profile.as_deref(), Some("p.json"));
    assert_eq!(cfg.profile_capacity, Some(8));

    cfg.start_profile();
    assert!(obs::enabled(), "--profile turns recording on");
    let track = obs::register_track(obs::Domain::Sim, "ring");
    for i in 0..20 {
        obs::complete(track, "op", i, 1, None);
    }
    let s = obs::summary();
    assert_eq!(s.capacity, 8, "--profile-capacity sizes the ring");
    assert_eq!((s.recorded, s.dropped), (8, 12), "the ring holds 8 events");
    obs::set_enabled(false);
}
