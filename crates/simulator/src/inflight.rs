//! Background fetches whose data is still in flight, indexed by file.
//!
//! Read-ahead and asynchronous demand fetches proceed while their
//! process runs on; a later request that overlaps one waits for its data
//! (§6.1). Only a fetch of the request's own file can overlap it, so the
//! fetches are kept per file and a request scans its file's list alone,
//! however many other fetches the group has in flight.

use rustc_hash::FxHashMap;
use sim_core::{SimDuration, SimTime};

/// Blocks `first..=last` of one file, whose data arrives at `ready`.
#[derive(Debug, Clone, Copy)]
struct Range {
    first: u64,
    last: u64,
    ready: SimTime,
}

/// In-flight fetches as disjoint block ranges per file. A new mark
/// overrides older ones block for block, like a per-block map from
/// block to arrival time. Expired ranges are dropped when their file is
/// next waited on. A file's emptied list stays in the map with its
/// capacity, so marking and waiting allocate nothing once warmed up.
#[derive(Debug, Default)]
pub(crate) struct InFlight {
    files: FxHashMap<u32, Vec<Range>>,
}

impl InFlight {
    /// How long a request at `now` for blocks `first..=last` of `file`
    /// waits for in-flight data: until the latest overlapping arrival.
    /// `now` must never decrease across calls.
    pub(crate) fn wait(&mut self, now: SimTime, file: u32, first: u64, last: u64) -> SimDuration {
        let Some(list) = self.files.get_mut(&file) else { return SimDuration::ZERO };
        let mut wait = SimDuration::ZERO;
        let mut i = 0;
        while i < list.len() {
            let e = list[i];
            // An expired range can never contribute a wait again.
            if e.ready <= now {
                list.swap_remove(i);
                continue;
            }
            if e.first <= last && first <= e.last {
                wait = wait.max(e.ready.saturating_since(now));
            }
            i += 1;
        }
        wait
    }

    /// Record blocks `first..=last` of `file` as arriving at `ready`,
    /// trimming them out of the file's older ranges first.
    pub(crate) fn mark(&mut self, file: u32, first: u64, last: u64, ready: SimTime) {
        let list = self.files.entry(file).or_default();
        let mut i = 0;
        while i < list.len() {
            let e = list[i];
            if e.first <= last && first <= e.last {
                let left = (e.first < first).then(|| Range { last: first - 1, ..e });
                let right = (e.last > last).then(|| Range { first: last + 1, ..e });
                match (left, right) {
                    (Some(l), Some(r)) => {
                        list[i] = l;
                        list.push(r);
                        i += 1;
                    }
                    (Some(part), None) | (None, Some(part)) => {
                        list[i] = part;
                        i += 1;
                    }
                    (None, None) => {
                        list.swap_remove(i);
                    }
                }
            } else {
                i += 1;
            }
        }
        list.push(Range { first, last, ready });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Four files: two of one process, one of another, one shared.
    const FILES: [u32; 4] = [1, 2, 0x1_0001, 0x8003];

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Mark `len` blocks from `first` of file `file` as arriving
        /// `delay` ticks from now.
        Mark { file: usize, first: u64, len: u64, delay: u64 },
        /// Wait on `len` blocks from `first` of file `file`.
        Wait { file: usize, first: u64, len: u64 },
        /// Let `ticks` pass, expiring ranges.
        Advance { ticks: u64 },
    }

    /// Positions stay inside 64 blocks so ranges overlap, nest and
    /// split often; short delays make many ranges expire between marks.
    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..FILES.len(), 0u64..40, 1u64..16, 0u64..60)
                .prop_map(|(file, first, len, delay)| Op::Mark { file, first, len, delay }),
            (0..FILES.len(), 0u64..40, 1u64..16, 0u64..6)
                .prop_map(|(file, first, len, delay)| Op::Mark { file, first, len, delay }),
            (0..FILES.len(), 0u64..40, 1u64..24).prop_map(|(file, first, len)| Op::Wait {
                file,
                first,
                len
            }),
            (0u64..20).prop_map(|ticks| Op::Advance { ticks }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every wait equals the one a per-block map from `(file,
        /// block)` to arrival time gives, where a later mark overrides.
        #[test]
        fn waits_match_a_per_block_model(
            files in 1usize..=FILES.len(),
            ops in proptest::collection::vec(arb_op(), 1..80),
        ) {
            // The case's files: the first `files` of `FILES`.
            let file_id = |i: usize| FILES[i % files];
            let mut real = InFlight::default();
            let mut model: HashMap<(u32, u64), SimTime> = HashMap::new();
            let mut now = SimTime::ZERO;
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Mark { file, first, len, delay } => {
                        let ready = now + SimDuration::from_ticks(delay);
                        real.mark(file_id(file), first, first + len - 1, ready);
                        for b in first..first + len {
                            model.insert((file_id(file), b), ready);
                        }
                    }
                    Op::Wait { file, first, len } => {
                        let got = real.wait(now, file_id(file), first, first + len - 1);
                        let want = (first..first + len)
                            .filter_map(|b| model.get(&(file_id(file), b)))
                            .map(|r| r.saturating_since(now))
                            .max()
                            .unwrap_or(SimDuration::ZERO);
                        prop_assert_eq!(got, want, "wait at step {}", step);
                    }
                    Op::Advance { ticks } => now += SimDuration::from_ticks(ticks),
                }
            }
        }
    }
}
