//! Model-based tests of the CLOCK cache core under [`GroupCache`], and of
//! the per-spec [`ViewCache`] memo against its own (exact) reference.
//!
//! Random interleavings of every operation the wrappers expose run against
//! a naive reference — a map from key to the `(version, value)` last stored
//! under it. The reference knows nothing about eviction, so it never says
//! what *must* be cached; it says what the cache *may* return. After every
//! step:
//!
//! * `len ≤ capacity` over every class together, and index and slab agree
//!   (`assert_consistent`);
//! * a lookup returns a value only for the exact `(group, query, class,
//!   version)` that value was stored under — a recycled slot never answers
//!   for its previous owner, and one `(group, query)` under one class never
//!   answers for it under another;
//! * while nothing has been evicted, every stored entry still hits (removal
//!   and slab compaction lose nothing);
//! * an entry touched since the hand last passed it survives the next
//!   eviction, and an entry still carrying an older version never survives
//!   the hand passing over it;
//! * a validated lookup re-admits an older-version entry iff the caller
//!   vouches for it, consulting the caller only then and with the entry's
//!   own tag; a re-admitted entry carries the probe's version afterwards
//!   and counts as touched, a rejected one is replaced in place by the
//!   recompute's insert.
//!
//! Plus the deterministic work bound that replaces the old O(capacity)
//! scan: N inserts into a full cache of capacity C inspect at most
//! `2·N + C` slots, for C from 4 to 65 536.

use ppwf_core::policy::Policy;
use ppwf_model::expand::SpecView;
use ppwf_model::fixtures;
use ppwf_model::hierarchy::Prefix;
use ppwf_model::ids::WorkflowId;
use ppwf_repo::cache::GroupCache;
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_repo::view_cache::ViewCache;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const GROUPS: [&str; 3] = ["public", "analysts", "researchers"];
/// Query classes the model draws from (the front's are keyword, two plans
/// and any number of ranking modes).
const CLASSES: u8 = 3;

/// A `(group, query, class)` key, owned.
type Key = (String, String, u8);

fn key(group: &str, query: &str, class: u8) -> Key {
    (group.to_string(), query.to_string(), class)
}

/// The `GroupCache` under test beside its naive reference.
struct GroupModel {
    cache: GroupCache<u8, u64>,
    capacity: usize,
    /// Last `(version, value)` stored under each key; every value is
    /// distinct, so an answer for the wrong key shows as a wrong value.
    stored: HashMap<Key, (u64, u64)>,
    /// Keys stored since the last `clear`; while no more than `capacity`,
    /// nothing can have been evicted.
    resident: HashSet<Key>,
    version: u64,
    next_value: u64,
}

impl GroupModel {
    fn new(capacity: usize) -> Self {
        GroupModel {
            cache: GroupCache::new(capacity),
            capacity,
            stored: HashMap::new(),
            resident: HashSet::new(),
            version: 1,
            next_value: 0,
        }
    }

    fn insert(&mut self, group: &str, query: &str, class: u8) {
        self.next_value += 1;
        self.cache.insert(group, query, class, self.version, self.next_value);
        let key = key(group, query, class);
        self.stored.insert(key.clone(), (self.version, self.next_value));
        self.resident.insert(key);
    }

    /// A fresh key no other step uses.
    fn insert_fresh(&mut self) -> Key {
        let n = self.next_value;
        let key = key(GROUPS[n as usize % 3], &format!("fresh{n}"), n as u8 % CLASSES);
        self.insert(&key.0, &key.1, key.2);
        key
    }

    /// Look `(group, query, class)` up at `version`; whatever comes back
    /// must be exactly what was stored under that key at that version.
    fn get(
        &self,
        group: &str,
        query: &str,
        class: u8,
        version: u64,
    ) -> Result<bool, TestCaseError> {
        let got = self.cache.get(group, query, class, version);
        let stored = self.stored.get(&key(group, query, class));
        match (got, stored) {
            (Some(value), Some(&(v, expect))) => {
                prop_assert_eq!(
                    (version, value),
                    (v, expect),
                    "wrong value for {}/{}/{}",
                    group,
                    query,
                    class
                );
            }
            (Some(_), None) => {
                prop_assert!(false, "value for the never-stored {group}/{query}/{class}")
            }
            (None, Some(&(v, _))) => prop_assert!(
                v != version || self.resident.len() > self.capacity,
                "{group}/{query}/{class} lost although nothing was ever evicted"
            ),
            (None, None) => {}
        }
        Ok(got.is_some())
    }

    /// [`GroupCache::get_validated`] at the current version, the caller
    /// answering `vouch` for whatever older entry it is asked about. The
    /// model: an entry at the current version is a plain hit that consults
    /// nobody; an older one is handed over with its own tag and is served —
    /// and re-tagged — iff vouched for; the counters say which happened.
    fn get_validated(
        &mut self,
        group: &str,
        query: &str,
        class: u8,
        vouch: bool,
    ) -> Result<bool, TestCaseError> {
        let key = key(group, query, class);
        let stats = self.cache.stats();
        let (revalidations, invalidations) = (stats.revalidations(), stats.invalidations());
        let asked = std::cell::Cell::new(None);
        let got = self.cache.get_validated(group, query, class, self.version, |tag| {
            asked.set(Some(tag));
            vouch
        });
        let stored = self.stored.get(&key).copied();
        if let Some(tag) = asked.get() {
            let (v, _) = stored.expect("consulted about a never-stored key");
            prop_assert_eq!(tag, v, "consulted with a tag the entry never had");
            prop_assert!(tag < self.version, "consulted about a current entry");
            prop_assert_eq!(got.is_some(), vouch, "the caller's verdict was not honoured");
        }
        let readmitted = asked.get().is_some() && vouch;
        let rejected = asked.get().is_some() && !vouch;
        prop_assert_eq!(stats.revalidations(), revalidations + u64::from(readmitted));
        prop_assert_eq!(stats.invalidations(), invalidations + u64::from(rejected));
        match (got, stored) {
            (Some(value), Some((v, expect))) => {
                prop_assert_eq!(value, expect, "wrong value for {}/{}/{}", group, query, class);
                prop_assert!(v == self.version || readmitted, "served across a version unvouched");
                self.stored.insert(key, (self.version, expect));
            }
            (Some(_), None) => {
                prop_assert!(false, "value for the never-stored {group}/{query}/{class}")
            }
            (None, Some(_)) => prop_assert!(
                rejected || self.resident.len() > self.capacity,
                "{group}/{query}/{class} lost although nothing was ever evicted"
            ),
            (None, None) => {}
        }
        Ok(got.is_some())
    }

    fn check(&self) -> Result<(), TestCaseError> {
        self.cache.assert_consistent();
        prop_assert!(self.cache.len() <= self.capacity);
        prop_assert!(self.cache.len() <= self.resident.len());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn group_cache_agrees_with_the_naive_reference(
        capacity in 1usize..9,
        ops in proptest::collection::vec((0u8..14, 0usize..3, 0usize..6, 0..CLASSES), 1..160),
    ) {
        let mut m = GroupModel::new(capacity);
        for (op, g, q, c) in ops {
            let (group, query) = (GROUPS[g], format!("q{q}"));
            match op {
                // Insert, or replace in place when the key is cached.
                0..=2 => m.insert(group, &query, c),
                // Lookup at the current version, and at the previous one.
                3..=5 => {
                    m.get(group, &query, c, m.version)?;
                }
                6 => {
                    m.get(group, &query, c, m.version - 1)?;
                }
                7 => m.version += 1,
                8 if q == 0 => {
                    m.cache.clear();
                    m.resident.clear();
                    m.stored.clear();
                }
                // Recency: with a fresh (so unreferenced) entry in the cache
                // for the hand to take instead, an entry hit just now must
                // survive the next eviction.
                8 if capacity >= 2 => {
                    m.insert_fresh();
                    if m.get(group, &query, c, m.version)? {
                        m.insert_fresh();
                        prop_assert!(m.get(group, &query, c, m.version)?, "touched entry was evicted");
                    }
                }
                // Staleness: one lap of the hand — `capacity` inserts into a
                // full cache — after a version bump leaves nothing stored
                // before it, referenced or not, even when asked for at its
                // own version.
                9 => {
                    while m.cache.len() < capacity {
                        m.insert_fresh();
                    }
                    let before: Vec<_> = m.stored.iter().map(|(k, &(v, _))| (k.clone(), v)).collect();
                    m.version += 1;
                    for _ in 0..capacity {
                        m.insert_fresh();
                    }
                    for ((group, query, class), v) in before {
                        prop_assert!(
                            m.cache.get(&group, &query, class, v).is_none(),
                            "stale {}/{}/{} survived the hand", group, query, class
                        );
                    }
                }
                // Validated lookups, vouched for or not; a re-admitted
                // entry then hits at the probe's version and no longer at
                // its old one.
                10 => {
                    let old = m.stored.get(&key(group, &query, c)).map(|&(v, _)| v);
                    if m.get_validated(group, &query, c, q % 2 == 0)? {
                        prop_assert!(m.get(group, &query, c, m.version)?, "re-tagged entry missed");
                        if let Some(old) = old.filter(|&old| old != m.version) {
                            prop_assert!(!m.get(group, &query, c, old)?, "hit at the tag it left");
                        }
                    }
                }
                // Re-admission is a use: with a fresh (so unreferenced)
                // current entry for the hand to take instead, an entry
                // re-admitted just now must survive the next eviction.
                11 if capacity >= 2 => {
                    m.version += 1;
                    m.insert_fresh();
                    if m.get_validated(group, &query, c, true)? {
                        m.insert_fresh();
                        prop_assert!(m.get(group, &query, c, m.version)?, "re-admitted entry evicted");
                    }
                }
                // A rejected entry is replaced in place by the recompute's
                // insert: nothing is evicted for it and the cache does not
                // grow.
                12 => {
                    m.version += 1;
                    let invalidations = m.cache.stats().invalidations();
                    prop_assert!(!m.get_validated(group, &query, c, false)?);
                    let held = m.cache.stats().invalidations() > invalidations;
                    let (len, evictions) = (m.cache.len(), m.cache.stats().evictions());
                    m.insert(group, &query, c);
                    if held {
                        prop_assert_eq!((m.cache.len(), m.cache.stats().evictions()), (len, evictions));
                    }
                    prop_assert!(m.get(group, &query, c, m.version)?, "the recompute's insert missed");
                }
                // Classes: the same `(group, query)` stored under two classes
                // is two entries, and neither answers for the other — even
                // right after the other was stored or re-stored.
                13 => {
                    let other = (c + 1) % CLASSES;
                    m.insert(group, &query, c);
                    let fresh = m.next_value;
                    let got = m.cache.get(group, &query, other, m.version);
                    prop_assert!(got != Some(fresh), "class {} answered for class {}", other, c);
                    m.get(group, &query, other, m.version)?;
                    prop_assert!(m.get(group, &query, c, m.version)?, "the class's own insert missed");
                }
                _ => {}
            }
            m.check()?;
        }
    }
}

fn view_repo(specs: usize) -> Repository {
    let mut repo = Repository::new();
    for _ in 0..specs {
        let (spec, _) = fixtures::disease_susceptibility();
        repo.insert_spec(spec, Policy::public()).unwrap();
    }
    repo
}

/// Four valid prefixes of the fixture hierarchy (W1 ⊃ {W2 ⊃ W4, W3}).
fn prefixes(repo: &Repository) -> Vec<Prefix> {
    let h = &repo.entry(SpecId(0)).unwrap().hierarchy;
    let of =
        |ws: &[usize]| Prefix::from_workflows(h, ws.iter().map(|&w| WorkflowId::new(w))).unwrap();
    vec![Prefix::root_only(h), of(&[0, 1]), of(&[0, 1, 2]), Prefix::full(h)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The view memo against its naive reference: per spec, the prefixes
    /// built since the spec was last forgotten, oldest first, trimmed from
    /// the front to the bound — exactly what the memo must hold. The memo is
    /// told of deletes and edits only (`forget_spec`); policy swaps and
    /// execution appends happen behind its back and must cost it nothing.
    #[test]
    fn view_cache_agrees_with_the_naive_reference(
        bound in 1usize..5,
        ops in proptest::collection::vec((0u8..12, 0u32..3, 0usize..4), 1..120),
    ) {
        let mut repo = view_repo(3);
        let prefixes = prefixes(&repo);
        let cache = ViewCache::new(bound);
        let mut resident: HashMap<u32, Vec<(usize, Arc<SpecView>)>> = HashMap::new();
        for (op, spec, p) in ops {
            let stats = cache.stats();
            match op {
                0..=6 => {
                    let (hits, misses, evictions) =
                        (stats.hits(), stats.misses(), stats.evictions());
                    let served = cache.view(&repo, SpecId(spec), &prefixes[p]);
                    if !repo.is_live(SpecId(spec)) {
                        prop_assert!(served.is_none(), "a deleted spec answered");
                        prop_assert_eq!((stats.hits(), stats.misses()), (hits, misses));
                        continue;
                    }
                    let view = served.unwrap();
                    prop_assert_eq!(view.prefix(), &prefixes[p]);
                    let slot = resident.entry(spec).or_default();
                    match slot.iter().find(|(q, _)| *q == p) {
                        Some((_, expect)) => {
                            prop_assert!(Arc::ptr_eq(&view, expect), "not the memoized view");
                            prop_assert_eq!((stats.hits(), stats.misses()), (hits + 1, misses));
                        }
                        None => {
                            prop_assert_eq!((stats.hits(), stats.misses()), (hits, misses + 1));
                            let full = slot.len() == bound;
                            if full {
                                slot.remove(0);
                            }
                            prop_assert_eq!(stats.evictions(), evictions + u64::from(full));
                            slot.push((p, view));
                        }
                    }
                }
                // Writes the memo is not told about: none stales a view.
                7 if repo.is_live(SpecId(spec)) => {
                    let exec = fixtures::disease_susceptibility_execution(
                        &repo.entry(SpecId(spec)).unwrap().spec,
                    );
                    repo.add_execution(SpecId(spec), exec).unwrap();
                }
                8 | 9 if repo.is_live(SpecId(spec)) => {
                    repo.set_policy(SpecId(spec), Policy::public()).unwrap();
                }
                // A delete, as the engine reports it.
                10 if repo.is_live(SpecId(spec)) && p == 0 => {
                    repo.delete_spec(SpecId(spec)).unwrap();
                    cache.forget_spec(SpecId(spec));
                    resident.remove(&spec);
                }
                11 if p == 0 => {
                    cache.clear();
                    resident.clear();
                }
                _ => {}
            }
            cache.assert_consistent();
            prop_assert_eq!(cache.len(), resident.values().map(Vec::len).sum::<usize>());
        }
    }
}

/// Eviction cost does not scale with capacity: N inserts into a full cache
/// of capacity C inspect at most `2·N + C` slots — N reclaimed, at most one
/// second chance per reference bit set in between, at most C set before.
/// The bound holds whichever way the bits were raised: by plain hits, or by
/// re-admitting every entry after a version bump (each re-admission is a
/// use, and leaves no older-version slot for the hand to take for free).
#[test]
fn eviction_work_is_bounded_by_inserts_not_capacity() {
    for (capacity, readmitted) in
        [4usize, 4096, 65_536].into_iter().flat_map(|c| [(c, false), (c, true)])
    {
        let cache: GroupCache<(), Arc<usize>> = GroupCache::new(capacity);
        let value = Arc::new(0);
        let key = |i: usize| (GROUPS[i % 3], format!("q{i}"));
        for i in 0..capacity {
            let (group, query) = key(i);
            cache.insert(group, &query, (), 1, Arc::clone(&value));
        }
        // Worst case for the first sweep: every entry referenced.
        let version = if readmitted { 2 } else { 1 };
        for i in 0..capacity {
            let (group, query) = key(i);
            assert!(cache.get_validated(group, &query, (), version, |_| true).is_some());
        }
        assert_eq!(cache.stats().revalidations(), if readmitted { capacity as u64 } else { 0 });
        assert_eq!((cache.len(), cache.stats().evictions()), (capacity, 0));
        let inserts = 2 * capacity;
        for i in capacity..capacity + inserts {
            let (group, query) = key(i);
            cache.insert(group, &query, (), version, Arc::clone(&value));
            // Every other insert is hit once, as under a real query mix.
            if i % 2 == 0 {
                assert!(cache.get(group, &query, (), version).is_some());
            }
        }
        let (evictions, steps) = (cache.stats().evictions(), cache.stats().sweep_steps());
        assert_eq!(cache.len(), capacity, "capacity honoured exactly");
        assert_eq!(evictions, inserts as u64, "one eviction per insert into a full cache");
        assert!(
            steps <= (2 * inserts + capacity) as u64,
            "capacity {capacity}: {steps} slots inspected for {inserts} inserts"
        );
        cache.assert_consistent();
    }
}

/// One step of Knuth's 64-bit LCG: cheap, deterministic per-thread draws.
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Readers hit (and so touch) entries while writers recycle the slots under
/// them. Every value names the key and version it was stored under, so a
/// reader handed a recycled slot's contents — another group's or another
/// class's answer — sees it.
#[test]
fn concurrent_readers_never_see_another_keys_value() {
    const READERS: usize = 3;
    const QUERIES: usize = 12;
    let cache: GroupCache<u8, Arc<String>> = GroupCache::new(8);
    let barrier = Barrier::new(READERS + 2);
    let done = AtomicBool::new(false);
    let name = |g: usize, q: usize, c: u8, v: u64| format!("{}|q{q}|c{c}|v{v}", GROUPS[g]);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let (cache, barrier, name) = (&cache, &barrier, &name);
                scope.spawn(move || {
                    barrier.wait();
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ w;
                    for i in 0..40_000u64 {
                        x = lcg(x);
                        let (g, q) = ((x >> 33) as usize % 3, (x >> 40) as usize % QUERIES);
                        let (c, version) = ((x >> 45) as u8 % 2, 1 + i / 5_000);
                        let value = Arc::new(name(g, q, c, version));
                        cache.insert(GROUPS[g], &format!("q{q}"), c, version, value);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS as u64)
            .map(|r| {
                let (cache, barrier, done, name) = (&cache, &barrier, &done, &name);
                scope.spawn(move || {
                    barrier.wait();
                    let (mut x, mut hits) = (0xD1B5_4A32_D192_ED03u64 ^ r, 0u64);
                    while !done.load(Ordering::Relaxed) {
                        x = lcg(x);
                        let (g, q) = ((x >> 33) as usize % 3, (x >> 40) as usize % QUERIES);
                        let (c, version) = ((x >> 45) as u8 % 2, 1 + (x >> 50) % 9);
                        if let Some(value) = cache.get(GROUPS[g], &format!("q{q}"), c, version) {
                            assert_eq!(
                                *value,
                                name(g, q, c, version),
                                "value stored under another key"
                            );
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        for writer in writers {
            writer.join().expect("writer thread");
        }
        done.store(true, Ordering::Relaxed);
        let hits: u64 = readers.into_iter().map(|r| r.join().expect("reader thread")).sum();
        assert!(hits > 0, "readers never hit: the race was not exercised");
    });
    cache.assert_consistent();
    assert!(cache.len() <= 8);
    assert!(cache.stats().evictions() > 0, "writers never evicted");
}
