//! Output checks: FNV-1a digests of report JSON, compared against the
//! first repetition of the same input in a run and, for seed
//! [`GOLDEN_SEED`], against the digests committed in `golden/`.

use std::collections::{BTreeMap, HashMap};

/// The seed the committed golden digests were recorded at.
pub const GOLDEN_SEED: u64 = 42;

const COMMITTED: &str = include_str!("../golden/seed42.txt");

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Golden digests keyed by (workload, input key).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden {
    entries: BTreeMap<(String, String), u64>,
}

impl Golden {
    /// The digests committed in `golden/seed42.txt`.
    pub fn committed() -> Golden {
        Golden::parse(COMMITTED).expect("committed golden file parses")
    }

    /// Parse `workload key hex-digest` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut g = Golden::default();
        for line in text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let mut parts = line.split_whitespace();
            let (Some(w), Some(k), Some(d), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("golden line `{line}`: want `workload key digest`"));
            };
            let d = u64::from_str_radix(d, 16).map_err(|e| format!("golden line `{line}`: {e}"))?;
            g.entries.insert((w.to_string(), k.to_string()), d);
        }
        Ok(g)
    }

    /// The golden digest of `key` under `workload`, if committed.
    pub fn get(&self, workload: &str, key: &str) -> Option<u64> {
        self.entries
            .get(&(workload.to_string(), key.to_string()))
            .copied()
    }

    /// Record a digest.
    pub fn insert(&mut self, workload: &str, key: &str, digest: u64) {
        self.entries
            .insert((workload.to_string(), key.to_string()), digest);
    }

    /// The file format [`Golden::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# FNV-1a digests of compact report JSON at seed {GOLDEN_SEED}.\n\
             # Regenerate with `perfbench golden > golden/seed42.txt`.\n"
        );
        for ((w, k), d) in &self.entries {
            out.push_str(&format!("{w} {k} {d:016x}\n"));
        }
        out
    }
}

/// Operation counts and failures of one run. Every simulated point,
/// campaign or request is one operation; one fails when its invariants
/// break, when its digest differs from the first repetition of the same
/// input, or (at the golden seed) from the committed digest.
#[derive(Debug)]
pub struct Checker {
    workload: &'static str,
    golden: Option<Golden>,
    reference: HashMap<String, u64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
}

/// Failures printed to stderr before the rest are only counted.
const REPORTED_FAILURES: u64 = 5;

impl Checker {
    /// A checker for `workload` run at `seed`; `golden` applies only at
    /// [`GOLDEN_SEED`].
    pub fn new(workload: &'static str, seed: u64, golden: &Golden) -> Checker {
        Checker {
            workload,
            golden: (seed == GOLDEN_SEED).then(|| golden.clone()),
            reference: HashMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one operation on input `key` whose output hashed to
    /// `digest`; `invariants` carries any broken invariant. Returns
    /// whether the operation passed.
    pub fn check(&mut self, key: &str, digest: u64, invariants: Result<(), String>) -> bool {
        self.attempted += 1;
        let first = *self.reference.entry(key.to_string()).or_insert(digest);
        let golden = self.golden.as_ref().and_then(|g| g.get(self.workload, key));
        let problem = match invariants {
            Err(e) => Some(e),
            Ok(()) if digest != first => Some(format!(
                "digest {digest:016x} differs from the first repetition's {first:016x}"
            )),
            Ok(()) => golden.filter(|&g| g != digest).map(|g| {
                format!("digest {digest:016x} differs from golden {g:016x} (seed {GOLDEN_SEED})")
            }),
        };
        self.fail_if(key, problem)
    }

    /// Count an operation that failed outright (an error reply, a
    /// rejected request) or passed, with no digest to compare.
    pub fn record(&mut self, key: &str, problem: Option<String>) -> bool {
        self.attempted += 1;
        self.fail_if(key, problem)
    }

    fn fail_if(&mut self, key: &str, problem: Option<String>) -> bool {
        let Some(problem) = problem else { return true };
        self.failed += 1;
        if self.failed <= REPORTED_FAILURES {
            eprintln!("perfbench: {} {key}: {problem}", self.workload);
        }
        false
    }
}
