//! A user-group-keyed, version-tagged query-result cache.
//!
//! Sec. 4: *"Another promising direction is to consider user groups when
//! utilizing cached information during query processing."* Two principals
//! in the same group (same access view + clearance) may share cached
//! answers; principals in different groups must not, or cached fine-grained
//! answers would leak to coarse-grained users. The cache therefore keys
//! entries by `(group, query, class)` — the class is what the query was asked
//! as, so one cache holds every kind of answer under one capacity — and tags
//! them with the owner's version at compute time. A probe at the entry's
//! own tag is a hit. A probe at a later version is the owner's call
//! ([`GroupCache::get_validated`]): it is handed the tag and either vouches
//! that nothing the answer depends on was written since — the entry is
//! re-tagged and served, a *revalidation* — or does not, and the entry is a
//! miss that the recompute replaces in place (an *invalidation*). The plain [`GroupCache::get`] never vouches: there a
//! tag other than the probe's is always a miss.
//!
//! Eviction is **CLOCK** (second chance). Entries live in a slab of at most
//! `capacity` slots behind one hash index over their keys.
//! Recency is one *reference bit* per slot instead of a timestamp: a hit
//! raises it (a relaxed store, skipped when it is already up) under the
//! shared read lock, so warm readers touch no shared counter and write
//! nothing to the slab, and an insert into a full cache ranks nothing —
//! it advances a hand over the slab, clearing the bit of each referenced
//! current entry it passes (the second chance) and reclaiming the first
//! slot that is unreferenced *or tagged with another version*, referenced
//! or not. An older tag no longer proves the entry dead — a validated probe
//! might still re-admit it — but it does prove the entry cold: everything
//! asked for since the version last moved was recomputed or re-tagged on the
//! way, so a slot still carrying an older tag has not been wanted since,
//! and it is the right one to give up before any current entry. Every
//! inspected slot is reclaimed or loses its bit, so eviction is amortized
//! O(1) whatever the capacity — no scan, nothing allocated beyond the new
//! entry's key, capacity honoured exactly.
//!
//! The policy stays recency-based: an entry hit since the hand last passed
//! survives the next pass. A scan wider than the capacity sets no bits and
//! degenerates to FIFO — nothing is asked for again before it is reclaimed,
//! exactly as under LRU. Scan resistance is deliberately not a goal.

use parking_lot::RwLock;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Cache statistics (monotone counters).
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    revalidations: AtomicU64,
    evictions: AtomicU64,
    sweep_steps: AtomicU64,
}

impl CacheStats {
    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (including version invalidations).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Probes that found an entry tagged with an older version and rejected
    /// it (each is also a miss).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Probes that found an entry tagged with an older version and
    /// re-admitted it, because nothing it depends on was written since
    /// (each is also a hit).
    pub fn revalidations(&self) -> u64 {
        self.revalidations.load(Ordering::Relaxed)
    }

    /// Entries reclaimed to make room in a full cache. A rate close to the
    /// miss rate means the working set does not fit: the cache is thrashing.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Slots the eviction hand inspected so far; `sweep_steps / evictions`
    /// is the cost of one eviction and stays below ~2 whatever the capacity.
    pub fn sweep_steps(&self) -> u64 {
        self.sweep_steps.load(Ordering::Relaxed)
    }

    /// Hit rate in [0, 1]; defined as 0 when there were no lookups at all
    /// (a fresh cache reports 0, never NaN).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_invalidation(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }
}

/// An entry's identity, stored once, in its slot: the group and the query
/// end to end in one allocation, and the class. A probe compares borrowed
/// parts against it ([`Key::is`]) and never builds one.
struct Key<K> {
    /// `group` then `query`.
    text: Box<str>,
    /// Where `group` ends in `text`.
    split: usize,
    class: K,
}

impl<K: Eq> Key<K> {
    fn new(group: &str, query: &str, class: K) -> Self {
        let mut text = String::with_capacity(group.len() + query.len());
        text.push_str(group);
        text.push_str(query);
        Key { text: text.into_boxed_str(), split: group.len(), class }
    }

    /// Whether this is the key of `(group, query, class)`.
    fn is(&self, group: &str, query: &str, class: &K) -> bool {
        self.split == group.len()
            && self.text.len() == group.len() + query.len()
            && self.class == *class
            && self.text.starts_with(group)
            && self.text.ends_with(query)
    }
}

/// One cached answer: its key, the keyed hash the index files it under (to
/// unlink a reclaimed slot without hashing or reading its key), the version
/// it was computed at or last re-admitted at, and the CLOCK reference bit —
/// both atomic so probes, under the shared read lock, can move them.
struct Slot<K, V> {
    hash: u64,
    key: Key<K>,
    version: AtomicU64,
    value: V,
    referenced: AtomicBool,
}

/// The index's hasher: its keys are already keyed hashes, so it passes
/// them through.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The state behind [`GroupCache`]'s lock. Invariants: the slab is dense
/// (`slots.len() ≤ capacity`), `index[h] == i` exactly when `slots[i].hash
/// == h` (so no two slots share a hash), and `hand < max(slots.len(), 1)`.
struct Clock<K, V> {
    slots: Vec<Slot<K, V>>,
    index: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    hand: usize,
}

/// A concurrent, bounded result cache keyed by `(group, query, class)`; the
/// module docs describe the tagging and eviction policy. The class is what
/// the query was asked as (a caller with one kind of question passes `()`),
/// so one cache, one capacity and one set of counters serve every kind.
/// A probe returns a clone of the stored value: store an `Arc` to share a
/// large answer.
///
/// **Key and index.** A key is hashed once per probe or insert, with the
/// cache's own randomly keyed hasher (`S`, a [`RandomState`] outside this
/// module's tests), and the index maps that 64-bit hash to a slot; the slot
/// holds the full key in one allocation. A probe is one hash, one table
/// probe and one compare of the slot's key: a slot holding another key
/// under the same hash is a miss, never an answer. An insert whose hash is
/// taken by another key replaces that slot, so two keys never share one:
/// a collision makes the cache forget an entry, never answer for another
/// key. Eviction unlinks a victim by its stored hash without reading its
/// key, and the victim is dropped after the lock is released.
pub struct GroupCache<K, V, S = RandomState> {
    inner: RwLock<Clock<K, V>>,
    capacity: usize,
    stats: CacheStats,
    hasher: S,
}

impl<K: Copy + Eq + Hash, V: Clone> GroupCache<K, V> {
    /// Create with a maximum entry count, over every class.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, RandomState::new())
    }
}

impl<K: Copy + Eq + Hash, V: Clone, S: BuildHasher> GroupCache<K, V, S> {
    /// [`Self::new`] hashing keys with `hasher` (the tests' colliding ones).
    fn with_hasher(capacity: usize, hasher: S) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let clock = Clock { slots: Vec::new(), index: HashMap::default(), hand: 0 };
        GroupCache { inner: RwLock::new(clock), capacity, stats: CacheStats::default(), hasher }
    }

    /// The keyed hash `(group, query, class)` is filed under.
    fn hash(&self, group: &str, query: &str, class: K) -> u64 {
        self.hasher.hash_one((group, query, class))
    }

    /// Statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of entries held (older-tagged ones included until reclaimed).
    /// O(1).
    pub fn len(&self) -> usize {
        self.inner.read().slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything (e.g. policy change where lazy invalidation is not
    /// acceptable).
    pub fn clear(&self) {
        let mut guard = self.inner.write();
        guard.slots.clear();
        guard.index.clear();
        guard.hand = 0;
    }

    /// Fetch the cached value for `(group, query, class)` if present *and*
    /// computed at `version`, counting the lookup. A hit is a borrowed-key
    /// probe, the reference bit (stored only if down) and a clone of the
    /// value — no allocation when the value is an `Arc` (this is the
    /// front's warm path).
    pub fn get(&self, group: &str, query: &str, class: K, version: u64) -> Option<V> {
        self.probe((group, query, class), version, |_| false, true)
    }

    /// [`Self::get`] that can outlive a version bump: an entry tagged with an
    /// *older* version is put to `still_valid(tag)`. If the caller vouches
    /// that nothing the answer depends on was written since `tag`, the entry
    /// is re-tagged with `version` — so the next probe takes the exact-tag
    /// path — counted as a use (reference bit, hit, revalidation) and served;
    /// otherwise it is an invalidation and a miss, exactly as under `get`. An
    /// entry at `version` never consults the caller. The owner decides; see
    /// [`TouchStamps`](crate::touch::TouchStamps) for the rule the query
    /// layer uses.
    pub fn get_validated(
        &self,
        group: &str,
        query: &str,
        class: K,
        version: u64,
        still_valid: impl FnOnce(u64) -> bool,
    ) -> Option<V> {
        self.probe((group, query, class), version, still_valid, true)
    }

    /// [`Self::get_validated`] for a caller that, should this probe fail,
    /// probes again before it computes anything (the serving front: once
    /// when a read is submitted, once when it is admitted): a hit is served
    /// and counted as usual, anything else counts nothing, so each read
    /// shows up in the counters once, with its final outcome.
    pub fn get_validated_early(
        &self,
        group: &str,
        query: &str,
        class: K,
        version: u64,
        still_valid: impl FnOnce(u64) -> bool,
    ) -> Option<V> {
        self.probe((group, query, class), version, still_valid, false)
    }

    fn probe(
        &self,
        (group, query, class): (&str, &str, K),
        version: u64,
        still_valid: impl FnOnce(u64) -> bool,
        count_failure: bool,
    ) -> Option<V> {
        let hash = self.hash(group, query, class);
        let guard = self.inner.read();
        let slot = guard.index.get(&hash).map(|&i| &guard.slots[i]);
        if let Some(slot) = slot.filter(|slot| slot.key.is(group, query, &class)) {
            // Relaxed throughout: the tag and the bit publish no other data
            // (the value was written under the write lock), and probes that
            // race on one slot all run at the owner's one current version,
            // so they decide alike and store the same tag.
            let tag = slot.version.load(Ordering::Relaxed);
            if tag == version {
                // Test before set: a warm hit writes nothing to the slab, so
                // its lines stay shared instead of bouncing between readers.
                if !slot.referenced.load(Ordering::Relaxed) {
                    slot.referenced.store(true, Ordering::Relaxed);
                }
                self.stats.record_hit();
                return Some(slot.value.clone());
            }
            if tag < version && still_valid(tag) {
                slot.version.store(version, Ordering::Relaxed);
                slot.referenced.store(true, Ordering::Relaxed);
                self.stats.revalidations.fetch_add(1, Ordering::Relaxed);
                self.stats.record_hit();
                return Some(slot.value.clone());
            }
            if count_failure {
                self.stats.record_invalidation();
            }
        }
        if count_failure {
            self.stats.record_miss();
        }
        None
    }

    /// Fetch or compute-and-insert. `compute` runs outside the lock.
    pub fn get_or_compute(
        &self,
        group: &str,
        query: &str,
        class: K,
        version: u64,
        compute: impl FnOnce() -> V,
    ) -> V {
        if let Some(v) = self.get(group, query, class, version) {
            return v;
        }
        let value = compute();
        self.insert(group, query, class, version, value.clone());
        value
    }

    /// Cache `value` for `(group, query, class)` at `version` (e.g. after a
    /// stats-counted [`Self::get`] miss whose recompute needed other lookups
    /// first), reclaiming one slot if the cache is full.
    pub fn insert(&self, group: &str, query: &str, class: K, version: u64, value: V) {
        // The key is hashed and its one allocation made before the lock is
        // taken, and what this insert displaces — a replaced value, or an
        // evicted entry's key and the last `Arc` of a whole answer — is
        // freed only after it is released (declared first, dropped last),
        // as is the key when a replace leaves it unused: warm probes wait
        // on neither an allocation nor a deallocation.
        let hash = self.hash(group, query, class);
        let key = Key::new(group, query, class);
        let (_replaced, _victim);
        let mut guard = self.inner.write();
        let Clock { slots, index, hand } = &mut *guard;
        if let Some(&i) = index.get(&hash) {
            let slot = &mut slots[i];
            if slot.key.is(group, query, &class) {
                // Replacing a key (a stale entry, or a racing compute of
                // the same one) does not grow the slab, so nothing is
                // evicted — it must not cost an unrelated hot entry. A
                // recompute is a use.
                *slot.version.get_mut() = version;
                _replaced = std::mem::replace(&mut slot.value, value);
                *slot.referenced.get_mut() = true;
            } else {
                // Another key holds the hash: this one takes its slot, and
                // the other is forgotten, not answered for.
                let fresh = Slot::new(hash, key, version, value);
                _victim = std::mem::replace(slot, fresh);
            }
            return;
        }
        let fresh = Slot::new(hash, key, version, value);
        let i = if slots.len() < self.capacity {
            slots.push(fresh);
            slots.len() - 1
        } else {
            // Advance the hand to the first slot that carries another tag
            // or has spent its second chance. One lap clears every bit, so
            // this ends.
            let mut steps = 1;
            loop {
                let slot = &mut slots[*hand];
                if *slot.version.get_mut() != version || !std::mem::take(slot.referenced.get_mut())
                {
                    break;
                }
                *hand = (*hand + 1) % slots.len();
                steps += 1;
            }
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            self.stats.sweep_steps.fetch_add(steps, Ordering::Relaxed);
            // The victim is unlinked by its stored hash under the same lock
            // that hands its slot over, so no index entry ever points at
            // another key's value.
            let i = *hand;
            *hand = (i + 1) % slots.len();
            let victim = std::mem::replace(&mut slots[i], fresh);
            index.remove(&victim.hash);
            _victim = victim;
            i
        };
        index.insert(hash, i);
    }

    /// Panic unless the [`Clock`] invariants hold (test instrument): the
    /// slab within capacity, the hand in range, and index and slab in
    /// one-to-one correspondence, each slot filed under its own key's hash.
    #[doc(hidden)]
    pub fn assert_consistent(&self) {
        let guard = self.inner.read();
        assert!(guard.slots.len() <= self.capacity, "slab exceeds capacity");
        assert!(guard.hand < guard.slots.len().max(1), "hand out of range");
        assert_eq!(guard.index.len(), guard.slots.len(), "index and slab disagree on size");
        for (&hash, &i) in &guard.index {
            let slot = &guard.slots[i];
            assert_eq!(slot.hash, hash, "index points at another hash's slot");
            let (group, query) = slot.key.text.split_at(slot.key.split);
            assert_eq!(
                self.hash(group, query, slot.key.class),
                hash,
                "slot filed under a stale hash"
            );
        }
    }
}

impl<K, V> Slot<K, V> {
    fn new(hash: u64, key: Key<K>, version: u64, value: V) -> Self {
        Slot {
            hash,
            key,
            version: AtomicU64::new(version),
            value,
            referenced: AtomicBool::new(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn hit_after_compute() {
        let cache: GroupCache<(), u64> = GroupCache::new(8);
        let v1 = cache.get_or_compute("g1", "q", (), 1, || 42);
        assert_eq!(v1, 42);
        let mut computed = false;
        let v2 = cache.get_or_compute("g1", "q", (), 1, || {
            computed = true;
            0
        });
        assert_eq!(v2, 42);
        assert!(!computed, "second call must hit");
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(cache.stats().misses(), 1);
    }

    #[test]
    fn groups_are_isolated() {
        let cache: GroupCache<u8, &'static str> = GroupCache::new(8);
        cache.get_or_compute("biologists", "q", 0, 1, || "fine answer");
        let public = cache.get_or_compute("public", "q", 0, 1, || "coarse answer");
        assert_eq!(public, "coarse answer", "no cross-group reuse");
        let ranked = cache.get_or_compute("public", "q", 1, 1, || "ranked answer");
        assert_eq!(ranked, "ranked answer", "no cross-class reuse");
        assert_eq!(cache.get("public", "q", 0, 1), Some("coarse answer"));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn version_invalidates() {
        let cache: GroupCache<(), u64> = GroupCache::new(8);
        cache.get_or_compute("g", "q", (), 1, || 1);
        let v = cache.get_or_compute("g", "q", (), 2, || 2);
        assert_eq!(v, 2, "stale version recomputed");
        assert!(cache.stats().invalidations() >= 1);
    }

    #[test]
    fn a_vouched_for_entry_is_retagged_and_served() {
        let cache: GroupCache<(), Arc<u64>> = GroupCache::new(8);
        let v1 = cache.get_or_compute("g", "q", (), 1, || Arc::new(1));
        let served = cache.get_validated("g", "q", (), 3, |tag| {
            assert_eq!(tag, 1, "the caller is handed the entry's tag");
            true
        });
        assert!(Arc::ptr_eq(&v1, &served.unwrap()), "the same answer, not a recompute");
        assert_eq!((cache.stats().hits(), cache.stats().revalidations()), (1, 1));
        assert_eq!(cache.stats().invalidations(), 0);
        // Re-tagged: the next probe at 3 is an exact-tag hit that consults
        // nobody, and the old version no longer hits.
        assert!(cache.get_validated("g", "q", (), 3, |_| unreachable!("exact tag")).is_some());
        assert!(cache.get("g", "q", (), 3).is_some());
        assert!(cache.get("g", "q", (), 1).is_none());
        assert_eq!(cache.stats().revalidations(), 1);
    }

    #[test]
    fn an_entry_nobody_vouches_for_is_an_invalidation() {
        let cache: GroupCache<(), u64> = GroupCache::new(8);
        cache.get_or_compute("g", "q", (), 1, || 1);
        assert!(cache.get_validated("g", "q", (), 2, |_| false).is_none());
        assert_eq!((cache.stats().invalidations(), cache.stats().revalidations()), (1, 0));
        assert_eq!(cache.stats().misses(), 2);
        // The recompute replaces it in place.
        cache.insert("g", "q", (), 2, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("g", "q", (), 2).unwrap(), 2);
        // A tag from the future is never re-admitted.
        assert!(cache.get_validated("g", "q", (), 1, |_| unreachable!("newer tag")).is_none());
    }

    #[test]
    fn revalidation_is_a_use_for_the_clock() {
        let cache: GroupCache<(), usize> = GroupCache::new(2);
        cache.get_or_compute("g", "kept", (), 1, || 0);
        cache.get_or_compute("g", "cold", (), 1, || 1);
        assert!(cache.get_validated("g", "kept", (), 2, |_| true).is_some());
        // The hand passes the re-admitted entry (spending its reference
        // bit) and reclaims `cold`, which still carries tag 1.
        cache.get_or_compute("g", "new", (), 2, || 2);
        assert!(cache.get("g", "kept", (), 2).is_some(), "re-admitted entry survives");
        assert!(cache.get_validated("g", "cold", (), 2, |_| true).is_none());
    }

    #[test]
    fn capacity_bounded() {
        let cache: GroupCache<(), usize> = GroupCache::new(4);
        for i in 0..20 {
            cache.get_or_compute("g", &format!("q{i}"), (), 1, || i);
        }
        assert!(cache.len() <= 4);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: GroupCache<(), usize> = GroupCache::new(3);
        cache.get_or_compute("g", "q0", (), 1, || 0);
        cache.get_or_compute("g", "q1", (), 1, || 1);
        cache.get_or_compute("g", "q2", (), 1, || 2);
        // q0 is oldest by insertion; inserting q3 must evict it.
        cache.get_or_compute("g", "q3", (), 1, || 3);
        assert!(cache.get("g", "q0", (), 1).is_none(), "LRU entry evicted");
        assert!(cache.get("g", "q1", (), 1).is_some());
        assert!(cache.get("g", "q2", (), 1).is_some());
        assert!(cache.get("g", "q3", (), 1).is_some());
    }

    #[test]
    fn hits_refresh_recency() {
        let cache: GroupCache<(), usize> = GroupCache::new(3);
        cache.get_or_compute("g", "hot", (), 1, || 0);
        cache.get_or_compute("g", "warm", (), 1, || 1);
        cache.get_or_compute("g", "cold", (), 1, || 2);
        // Touch the oldest entry: it must survive the next eviction even
        // though it was inserted first.
        assert!(cache.get("g", "hot", (), 1).is_some());
        cache.get_or_compute("g", "new", (), 1, || 3);
        assert!(cache.get("g", "hot", (), 1).is_some(), "touched entry survives");
        assert!(cache.get("g", "warm", (), 1).is_none(), "untouched LRU entry evicted");
    }

    #[test]
    fn stale_entries_evicted_before_live_ones() {
        let cache: GroupCache<(), usize> = GroupCache::new(3);
        cache.get_or_compute("g", "old1", (), 1, || 0);
        cache.get_or_compute("g", "old2", (), 1, || 1);
        // Version moves on; the v1 entries are dead weight.
        cache.get_or_compute("g", "live", (), 2, || 2);
        cache.get_or_compute("g", "more", (), 2, || 3);
        assert!(cache.get("g", "live", (), 2).is_some(), "live entry kept over stale");
        assert!(cache.get("g", "more", (), 2).is_some());
        assert!(cache.len() <= 3);
    }

    #[test]
    fn stale_entries_get_no_second_chance() {
        let cache: GroupCache<(), usize> = GroupCache::new(2);
        cache.get_or_compute("g", "old", (), 1, || 0);
        // Referenced, but left behind at an older version.
        assert!(cache.get("g", "old", (), 1).is_some());
        cache.get_or_compute("g", "live", (), 2, || 1);
        cache.get_or_compute("g", "new", (), 2, || 2);
        assert!(cache.get("g", "live", (), 2).is_some(), "unreferenced live entry outlives stale");
        assert!(
            cache.get("g", "old", (), 1).is_none(),
            "stale entry reclaimed as the hand reached it"
        );
        assert_eq!(cache.stats().sweep_steps(), 1);
    }

    #[test]
    fn reclaimed_slots_start_unreferenced() {
        let cache: GroupCache<(), usize> = GroupCache::new(2);
        cache.get_or_compute("g", "a", (), 1, || 0);
        cache.get_or_compute("g", "b", (), 1, || 1);
        assert!(cache.get("g", "a", (), 1).is_some());
        // `y` takes over the stale-but-referenced slot of `a`, `z` that of
        // `b`; neither has been hit, so they leave in insertion order.
        cache.get_or_compute("g", "y", (), 2, || 2);
        cache.get_or_compute("g", "z", (), 2, || 3);
        cache.get_or_compute("g", "w", (), 2, || 4);
        assert!(cache.get("g", "y", (), 2).is_none(), "inherited a reference bit");
        assert!(cache.get("g", "z", (), 2).is_some());
    }

    #[test]
    fn eviction_counters_are_monotone_and_exact() {
        let cache: GroupCache<(), usize> = GroupCache::new(4);
        for i in 0..4 {
            cache.get_or_compute("g", &format!("q{i}"), (), 1, || i);
        }
        assert_eq!((cache.stats().evictions(), cache.stats().sweep_steps()), (0, 0));
        cache.insert("g", "q0", (), 1, 9);
        assert_eq!(cache.stats().evictions(), 0, "replacing in place evicts nothing");
        for i in 4..10 {
            cache.get_or_compute("g", &format!("q{i}"), (), 1, || i);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions(), 6);
        // One step per eviction plus the second chance `q0`'s replace earned.
        assert_eq!(cache.stats().sweep_steps(), 7);
    }

    #[test]
    fn clear_empties() {
        let cache: GroupCache<(), u64> = GroupCache::new(4);
        cache.get_or_compute("g", "q", (), 1, || 7);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_lookup_hit_rate_is_defined() {
        let cache: GroupCache<(), u64> = GroupCache::new(4);
        assert_eq!(cache.stats().hit_rate(), 0.0, "fresh cache reports 0, not NaN");
    }

    /// A hasher that files every key under one of `self.0` hashes:
    /// collisions on demand (one bucket: a constant hasher).
    struct Colliding(u64);

    struct CollidingHasher(u64, u64);

    impl BuildHasher for Colliding {
        type Hasher = CollidingHasher;

        fn build_hasher(&self) -> CollidingHasher {
            CollidingHasher(self.0, 0)
        }
    }

    impl Hasher for CollidingHasher {
        fn finish(&self) -> u64 {
            self.1 % self.0
        }

        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.1 = (self.1 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    /// Groups and queries whose concatenations alias: `("a", "bc")` and
    /// `("ab", "c")` are one string end to end.
    const GROUPS: [&str; 3] = ["a", "ab", ""];
    const QUERIES: [&str; 4] = ["bc", "c", "", "abc"];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Under hashes that collide — all keys on one hash, or on three —
        /// and interleaved inserts, probes and version moves over groups ×
        /// queries × classes, a probe never returns another key's value or
        /// a value older than its key's last insert, the index and slab stay
        /// consistent, and the capacity holds.
        #[test]
        fn colliding_hashes_never_answer_for_another_key(
            buckets in 1u64..4,
            ops in proptest::collection::vec((0usize..3, 0usize..4, 0u8..2, 0u8..5), 1..160),
        ) {
            let cache: GroupCache<u8, (usize, usize, u8, usize), _> =
                GroupCache::with_hasher(4, Colliding(buckets));
            let mut latest: HashMap<(usize, usize, u8), usize> = HashMap::new();
            let mut version = 1;
            for (seq, &(g, q, class, op)) in ops.iter().enumerate() {
                let (group, query) = (GROUPS[g], QUERIES[q]);
                let served = match op {
                    0 | 1 => {
                        cache.insert(group, query, class, version, (g, q, class, seq));
                        latest.insert((g, q, class), seq);
                        None
                    }
                    2 => cache.get(group, query, class, version),
                    3 => cache.get_validated(group, query, class, version, |_| true),
                    _ => {
                        version += 1;
                        None
                    }
                };
                if let Some((g2, q2, class2, at)) = served {
                    proptest::prop_assert_eq!((g2, q2, class2), (g, q, class), "another key's value");
                    proptest::prop_assert_eq!(Some(&at), latest.get(&(g, q, class)), "a stale value");
                }
                cache.assert_consistent();
                proptest::prop_assert!(cache.len() <= 4);
                proptest::prop_assert!(cache.len() as u64 <= buckets);
            }
        }
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc as StdArc;
        let cache: StdArc<GroupCache<(), u64>> = StdArc::new(GroupCache::new(64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = StdArc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let v = c.get_or_compute(
                        &format!("g{}", t % 2),
                        &format!("q{}", i % 10),
                        (),
                        1,
                        || i % 10,
                    );
                    assert_eq!(v, i % 10);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.stats().hits() > 0);
    }
}
