//! A recency index: O(1) touch / remove / evict-least-recent, used per
//! owning process under an ownership cap and by the serving daemon's
//! result cache.
//!
//! The index is an intrusive doubly-linked list threaded through a slab
//! of nodes (slot indices instead of pointers), plus an [`FxHashMap`]
//! from key to slot. Freed slots are chained on a free list and reused,
//! so steady-state churn allocates nothing. Every operation — including
//! `touch` of an already-tracked key, which the per-request hot path
//! performs once per accessed block — is a constant number of hash-map
//! probes and link swaps; the previous `HashMap` + `BTreeMap`
//! implementation paid O(log n) per touch and is kept under `#[cfg(test)]`
//! as the reference model for the property tests below.

use rustc_hash::FxHashMap;
use std::hash::Hash;

/// Sentinel slot meaning "no node".
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    /// `None` while the slot sits on the free list.
    key: Option<K>,
    prev: usize,
    next: usize,
}

/// Tracks recency of a set of keys. The least-recently-touched key pops
/// first.
#[derive(Debug, Clone)]
pub struct LruIndex<K: Eq + Hash + Clone> {
    nodes: Vec<Node<K>>,
    index: FxHashMap<K, usize>,
    /// Least recently used end of the list.
    head: usize,
    /// Most recently used end of the list.
    tail: usize,
    /// Free-list head, threaded through `Node::next`.
    free: usize,
}

impl<K: Eq + Hash + Clone> Default for LruIndex<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone> LruIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        LruIndex {
            nodes: Vec::new(),
            index: FxHashMap::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Detach slot `i` from the recency list (it stays allocated).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    /// Append slot `i` at the most-recently-used end.
    fn push_tail(&mut self, i: usize) {
        self.nodes[i].prev = self.tail;
        self.nodes[i].next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.nodes[t].next = i,
        }
        self.tail = i;
    }

    /// Take a slot off the free list, or grow the slab.
    fn alloc(&mut self, key: K) -> usize {
        match self.free {
            NIL => {
                self.nodes.push(Node { key: Some(key), prev: NIL, next: NIL });
                self.nodes.len() - 1
            }
            i => {
                self.free = self.nodes[i].next;
                self.nodes[i].key = Some(key);
                i
            }
        }
    }

    /// Return slot `i` to the free list.
    fn release(&mut self, i: usize) {
        self.nodes[i].key = None;
        self.nodes[i].next = self.free;
        self.free = i;
    }

    /// Mark `key` as most recently used, inserting it if absent.
    pub fn touch(&mut self, key: K) {
        if let Some(&i) = self.index.get(&key) {
            if self.tail != i {
                self.unlink(i);
                self.push_tail(i);
            }
        } else {
            let i = self.alloc(key.clone());
            self.index.insert(key, i);
            self.push_tail(i);
        }
    }

    /// Remove `key`; true if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.index.remove(key) {
            Some(i) => {
                self.unlink(i);
                self.release(i);
                true
            }
            None => false,
        }
    }

    /// Remove and return the least recently used key.
    pub fn pop_lru(&mut self) -> Option<K> {
        let i = self.head;
        if i == NIL {
            return None;
        }
        let key = self.nodes[i].key.take().expect("listed node has a key");
        self.unlink(i);
        self.nodes[i].next = self.free;
        self.free = i;
        self.index.remove(&key);
        Some(key)
    }

    /// The least recently used key, without removing it.
    pub fn peek_lru(&self) -> Option<&K> {
        match self.head {
            NIL => None,
            i => self.nodes[i].key.as_ref(),
        }
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Walk the list front-to-back and check every internal invariant.
    #[cfg(test)]
    fn check_invariants(&self) {
        let mut seen = 0usize;
        let mut prev = NIL;
        let mut i = self.head;
        while i != NIL {
            assert_eq!(self.nodes[i].prev, prev, "back link broken at slot {i}");
            let key = self.nodes[i].key.as_ref().expect("listed node has a key");
            assert_eq!(self.index.get(key), Some(&i), "index disagrees at slot {i}");
            seen += 1;
            assert!(seen <= self.nodes.len(), "cycle in recency list");
            prev = i;
            i = self.nodes[i].next;
        }
        assert_eq!(self.tail, prev, "tail does not terminate the list");
        assert_eq!(seen, self.index.len(), "list length != index length");
        // Free slots + listed slots account for the whole slab.
        let mut free = 0usize;
        let mut f = self.free;
        while f != NIL {
            assert!(self.nodes[f].key.is_none(), "free slot {f} still keyed");
            free += 1;
            assert!(free <= self.nodes.len(), "cycle in free list");
            f = self.nodes[f].next;
        }
        assert_eq!(seen + free, self.nodes.len(), "slab leak");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    /// The previous O(log n) implementation, kept verbatim as the model
    /// the intrusive-list rewrite is checked against.
    #[derive(Debug, Clone)]
    struct ModelLru<K: Eq + std::hash::Hash + Clone> {
        next_seq: u64,
        by_key: HashMap<K, u64>,
        by_seq: BTreeMap<u64, K>,
    }

    impl<K: Eq + std::hash::Hash + Clone> ModelLru<K> {
        fn new() -> Self {
            ModelLru { next_seq: 0, by_key: HashMap::new(), by_seq: BTreeMap::new() }
        }

        fn touch(&mut self, key: K) {
            if let Some(old) = self.by_key.insert(key.clone(), self.next_seq) {
                self.by_seq.remove(&old);
            }
            self.by_seq.insert(self.next_seq, key);
            self.next_seq += 1;
        }

        fn remove(&mut self, key: &K) -> bool {
            match self.by_key.remove(key) {
                Some(seq) => {
                    self.by_seq.remove(&seq);
                    true
                }
                None => false,
            }
        }

        fn pop_lru(&mut self) -> Option<K> {
            let (&seq, _) = self.by_seq.iter().next()?;
            let key = self.by_seq.remove(&seq).expect("seq just observed");
            self.by_key.remove(&key);
            Some(key)
        }

        fn peek_lru(&self) -> Option<&K> {
            self.by_seq.values().next()
        }

        fn len(&self) -> usize {
            self.by_key.len()
        }
    }

    #[test]
    fn pops_in_recency_order() {
        let mut l = LruIndex::new();
        l.touch("a");
        l.touch("b");
        l.touch("c");
        assert_eq!(l.pop_lru(), Some("a"));
        assert_eq!(l.pop_lru(), Some("b"));
        assert_eq!(l.pop_lru(), Some("c"));
        assert_eq!(l.pop_lru(), None);
    }

    #[test]
    fn touch_refreshes_recency() {
        let mut l = LruIndex::new();
        l.touch(1);
        l.touch(2);
        l.touch(3);
        l.touch(1); // 1 becomes most recent
        assert_eq!(l.pop_lru(), Some(2));
        assert_eq!(l.pop_lru(), Some(3));
        assert_eq!(l.pop_lru(), Some(1));
    }

    #[test]
    fn touching_the_most_recent_key_is_a_noop() {
        let mut l = LruIndex::new();
        l.touch(1);
        l.touch(2);
        l.touch(2);
        l.check_invariants();
        assert_eq!(l.pop_lru(), Some(1));
        assert_eq!(l.pop_lru(), Some(2));
    }

    #[test]
    fn remove_works_and_reports() {
        let mut l = LruIndex::new();
        l.touch('x');
        l.touch('y');
        assert!(l.remove(&'x'));
        assert!(!l.remove(&'x'));
        assert_eq!(l.len(), 1);
        assert_eq!(l.pop_lru(), Some('y'));
        assert!(l.is_empty());
    }

    #[test]
    fn remove_mid_list_keeps_order_intact() {
        let mut l = LruIndex::new();
        for k in 0..5 {
            l.touch(k);
        }
        assert!(l.remove(&2));
        l.check_invariants();
        assert_eq!(l.pop_lru(), Some(0));
        assert_eq!(l.pop_lru(), Some(1));
        assert_eq!(l.pop_lru(), Some(3));
        assert_eq!(l.pop_lru(), Some(4));
        assert_eq!(l.pop_lru(), None);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut l = LruIndex::new();
        l.touch(10);
        l.touch(20);
        assert_eq!(l.peek_lru(), Some(&10));
        assert_eq!(l.len(), 2);
        assert!(l.contains(&10));
        assert!(!l.contains(&30));
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut l = LruIndex::new();
        for round in 0..50u32 {
            for k in 0..8u32 {
                l.touch(k);
            }
            for k in 0..8u32 {
                assert!(l.remove(&k), "round {round}");
            }
        }
        // 50 rounds of 8 keys never grow the slab past one round's worth.
        assert!(l.nodes.len() <= 8, "slab grew to {}", l.nodes.len());
        l.check_invariants();
    }

    #[test]
    fn internal_state_stays_consistent_under_churn() {
        let mut l = LruIndex::new();
        for i in 0..1000u32 {
            l.touch(i % 37);
            if i % 5 == 0 {
                l.pop_lru();
            }
            if i % 11 == 0 {
                l.remove(&(i % 37));
            }
            l.check_invariants();
        }
    }

    /// Operations the property test drives against both implementations.
    #[derive(Debug, Clone)]
    enum Op {
        Touch(u8),
        Remove(u8),
        Pop,
        Peek,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..32).prop_map(Op::Touch),
            (0u8..32).prop_map(Op::Remove),
            Just(Op::Pop),
            Just(Op::Peek),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 0..200)) {
            let mut real = LruIndex::new();
            let mut model = ModelLru::new();
            for op in ops {
                match op {
                    Op::Touch(k) => {
                        real.touch(k);
                        model.touch(k);
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(real.remove(&k), model.remove(&k));
                    }
                    Op::Pop => {
                        prop_assert_eq!(real.pop_lru(), model.pop_lru());
                    }
                    Op::Peek => {
                        prop_assert_eq!(real.peek_lru(), model.peek_lru());
                    }
                }
                prop_assert_eq!(real.len(), model.len());
                real.check_invariants();
            }
            // Drain both: full eviction order must agree.
            while let Some(k) = model.pop_lru() {
                prop_assert_eq!(real.pop_lru(), Some(k));
            }
            prop_assert_eq!(real.pop_lru(), None);
        }
    }
}
