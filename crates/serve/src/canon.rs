//! Stable canonical hashing for request deduplication.
//!
//! The result cache and single-flight registry key on *semantic*
//! equality of a request, not on its wire bytes: two clients writing the
//! same config with fields in a different order (JSON objects are
//! unordered) must land on the same cache entry. The canonical form is
//! the serde [`Value`] tree with every map's entries sorted by key,
//! recursively; the hash is 64-bit FNV-1a over a type-tagged walk of
//! that tree.
//!
//! FNV-1a is used deliberately: it is stable across processes, runs, and
//! platforms (unlike `std::hash`'s randomly-seeded SipHash), which is
//! what lets a daemon's cache keys mean the same thing on every restart
//! and in every test.

use serde::{Serialize, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Incremental FNV-1a over byte chunks.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }
}

/// Rebuild `v` with every map's entries sorted by key, recursively.
/// Sequences keep their order — element order in an array is semantic
/// (a sweep's point list is not a set).
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Seq(items) => Value::Seq(items.iter().map(canonicalize).collect()),
        Value::Map(entries) => {
            let mut sorted: Vec<(String, Value)> =
                entries.iter().map(|(k, item)| (k.clone(), canonicalize(item))).collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Map(sorted)
        }
        other => other.clone(),
    }
}

fn hash_value(v: &Value, h: &mut Fnv) {
    // Each arm starts with a distinct tag byte so e.g. the string "1"
    // and the integer 1 can never collide structurally.
    match v {
        Value::Null => h.write(&[0]),
        Value::Bool(b) => h.write(&[1, *b as u8]),
        // U64 and I64 share a tag for non-negative values: the serde
        // stand-in serializes a non-negative i64 as Value::U64 already,
        // but a parse round-trip can land either way, and 7 is 7.
        Value::U64(n) => {
            h.write(&[2]);
            h.write_u64(*n);
        }
        Value::I64(n) => {
            if *n >= 0 {
                h.write(&[2]);
                h.write_u64(*n as u64);
            } else {
                h.write(&[3]);
                h.write_u64(*n as u64);
            }
        }
        Value::F64(x) => {
            h.write(&[4]);
            // Canonicalize the one equal-but-differently-encoded float:
            // -0.0 hashes as 0.0. NaNs keep their payload bits — a NaN
            // config is never equal to anything, including itself, so
            // any stable encoding is fine.
            let bits = if *x == 0.0 { 0f64.to_bits() } else { x.to_bits() };
            h.write_u64(bits);
        }
        Value::Str(s) => {
            h.write(&[5]);
            h.write_u64(s.len() as u64);
            h.write(s.as_bytes());
        }
        Value::Seq(items) => {
            h.write(&[6]);
            h.write_u64(items.len() as u64);
            for item in items {
                hash_value(item, h);
            }
        }
        Value::Map(entries) => {
            h.write(&[7]);
            h.write_u64(entries.len() as u64);
            for (k, item) in entries {
                h.write_u64(k.len() as u64);
                h.write(k.as_bytes());
                hash_value(item, h);
            }
        }
    }
}

/// The canonical 64-bit key of any serializable value: serialize to the
/// data model, sort every map, FNV-1a the type-tagged tree. Two values
/// that serialize to semantically equal trees — regardless of field
/// order — hash equal; any single field change hashes differently (up
/// to 64-bit collision odds).
pub fn canonical_hash<T: Serialize + ?Sized>(value: &T) -> u64 {
    canonical_value_hash(&value.to_value())
}

/// [`canonical_hash`] for an already-built [`Value`] tree.
pub fn canonical_value_hash(v: &Value) -> u64 {
    let mut h = Fnv::new();
    hash_value(&canonicalize(v), &mut h);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_key_order_does_not_matter() {
        let a = Value::Map(vec![
            ("x".into(), Value::U64(1)),
            ("y".into(), Value::Map(vec![
                ("p".into(), Value::Bool(true)),
                ("q".into(), Value::Str("s".into())),
            ])),
        ]);
        let b = Value::Map(vec![
            ("y".into(), Value::Map(vec![
                ("q".into(), Value::Str("s".into())),
                ("p".into(), Value::Bool(true)),
            ])),
            ("x".into(), Value::U64(1)),
        ]);
        assert_eq!(canonical_value_hash(&a), canonical_value_hash(&b));
    }

    #[test]
    fn sequence_order_does_matter() {
        let a = Value::Seq(vec![Value::U64(1), Value::U64(2)]);
        let b = Value::Seq(vec![Value::U64(2), Value::U64(1)]);
        assert_ne!(canonical_value_hash(&a), canonical_value_hash(&b));
    }

    #[test]
    fn nonnegative_i64_and_u64_are_the_same_number() {
        assert_eq!(
            canonical_value_hash(&Value::I64(7)),
            canonical_value_hash(&Value::U64(7))
        );
        assert_ne!(
            canonical_value_hash(&Value::I64(-7)),
            canonical_value_hash(&Value::U64(7))
        );
    }

    #[test]
    fn scalar_types_do_not_collide() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::U64(0),
            Value::F64(0.0),
            Value::Str(String::new()),
            Value::Seq(vec![]),
            Value::Map(vec![]),
            Value::Str("0".into()),
        ];
        for (i, a) in values.iter().enumerate() {
            for b in &values[i + 1..] {
                assert_ne!(
                    canonical_value_hash(a),
                    canonical_value_hash(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        assert_eq!(
            canonical_value_hash(&Value::F64(0.0)),
            canonical_value_hash(&Value::F64(-0.0))
        );
    }

    /// Reverse every map's entry order, recursively — a semantically
    /// equal tree with maximally different wire order.
    fn reverse_maps(v: &Value) -> Value {
        match v {
            Value::Seq(items) => Value::Seq(items.iter().map(reverse_maps).collect()),
            Value::Map(entries) => Value::Map(
                entries.iter().rev().map(|(k, item)| (k.clone(), reverse_maps(item))).collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn sim_config_hashes_by_semantics_not_field_order() {
        let base = iosim::SimConfig::buffered(32 * sim_core::units::MB);
        let h0 = canonical_hash(&base);
        assert_eq!(h0, canonical_hash(&base.clone()), "equal configs hash equal");
        assert_eq!(
            h0,
            canonical_value_hash(&reverse_maps(&base.to_value())),
            "field order is not semantic"
        );
        // Any single field change re-keys the config.
        let mut n_disks = base.clone();
        n_disks.n_disks += 1;
        let mut cpus = base.clone();
        cpus.n_cpus += 1;
        let mut speedup = base.clone();
        speedup.cpu_speedup *= 2;
        let mut flush = base.clone();
        flush.flush_batch = !flush.flush_batch;
        let mut block = base.clone();
        block.cache.as_mut().expect("buffered").block_size *= 2;
        let mut timeline = base.clone();
        timeline.timeline_ns = Some(1_000_000);
        for (what, changed) in [
            ("n_disks", &n_disks),
            ("n_cpus", &cpus),
            ("cpu_speedup", &speedup),
            ("flush_batch", &flush),
            ("cache.block_size", &block),
            ("timeline_ns", &timeline),
        ] {
            assert_ne!(h0, canonical_hash(changed), "{what} change must re-key");
        }
    }

    #[test]
    fn campaign_spec_hashes_by_semantics_not_field_order() {
        let base = experiments::CampaignSpec::datacenter(24, 16);
        let h0 = canonical_hash(&base);
        assert_eq!(h0, canonical_hash(&base.clone()), "equal specs hash equal");
        assert_eq!(
            h0,
            canonical_value_hash(&reverse_maps(&base.to_value())),
            "field order is not semantic"
        );
        // One variant per field: every field must reach the key.
        let variants: Vec<(&str, experiments::CampaignSpec)> = vec![
            ("groups", { let mut s = base.clone(); s.groups += 1; s }),
            ("procs_per_group", { let mut s = base.clone(); s.procs_per_group += 1; s }),
            ("disks_per_group", { let mut s = base.clone(); s.disks_per_group += 1; s }),
            ("cache_budget", { let mut s = base.clone(); s.cache_budget *= 2; s }),
            ("epoch", { let mut s = base.clone(); s.epoch = s.epoch * 2; s }),
            ("max_active", { let mut s = base.clone(); s.max_active = None; s }),
            ("shared_file_every", { let mut s = base.clone(); s.shared_file_every += 1; s }),
            ("reads_per_shared", { let mut s = base.clone(); s.reads_per_shared += 1; s }),
            ("scale", { let mut s = base.clone(); s.scale = experiments::Scale::quick(8); s }),
            ("seed", { let mut s = base.clone(); s.seed += 1; s }),
            // The sampling interval keys too: it never changes the report,
            // but a cached unsampled result cannot answer a run that asked
            // for a timeline. Served requests never carry it.
            ("timeline_ns", { let mut s = base.clone(); s.timeline_ns = Some(1_000_000); s }),
        ];
        for (what, changed) in &variants {
            assert_ne!(h0, canonical_hash(changed), "{what} change must re-key");
        }
    }

    #[test]
    fn hash_is_stable_across_calls() {
        // A fixed input must map to a fixed key forever: the result
        // cache key survives daemon restarts via this property.
        let v = Value::Map(vec![("cache_mb".into(), Value::U64(32))]);
        assert_eq!(canonical_value_hash(&v), canonical_value_hash(&v.clone()));
    }
}
