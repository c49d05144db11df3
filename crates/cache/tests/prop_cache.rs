//! Randomized property tests for the cache structures: set-associative LRU
//! caches, share placement, and tag arrays.
//!
//! Cases are driven by the workspace's seeded [`Xoshiro256`] so the suite is
//! deterministic and needs no external property-testing framework.

use ndpx_cache::placement::SharePlacement;
use ndpx_cache::setassoc::SetAssocCache;
use ndpx_cache::tagarray::TagArray;
use ndpx_sim::rng::Xoshiro256;

#[test]
fn setassoc_occupancy_never_exceeds_capacity() {
    let mut rng = Xoshiro256::seed_from(0x0CC);
    for _ in 0..64 {
        let sets = 1 + rng.below(31) as usize;
        let ways = 1 + rng.below(7) as usize;
        let n = 1 + rng.below(399) as usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.below(10_000)).collect();
        let mut c = SetAssocCache::new(sets, ways);
        for &k in &keys {
            c.access(k, false);
        }
        assert!(c.occupancy() <= sets * ways);
        assert_eq!(c.stats().accesses(), keys.len() as u64);
    }
}

#[test]
fn setassoc_access_then_probe_hits() {
    let mut rng = Xoshiro256::seed_from(0xF00);
    for _ in 0..128 {
        let sets = 1 + rng.below(31) as usize;
        let ways = 1 + rng.below(7) as usize;
        let key = rng.below(10_000);
        let mut c = SetAssocCache::new(sets, ways);
        c.access(key, false);
        assert!(c.probe(key), "just-inserted key must be resident");
        assert!(c.access(key, false).is_hit());
    }
}

#[test]
fn setassoc_invalidate_removes() {
    let mut rng = Xoshiro256::seed_from(0x1BAD);
    for _ in 0..64 {
        let n = 1 + rng.below(99) as usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        let mut c = SetAssocCache::new(64, 4);
        for &k in &keys {
            c.access(k, true);
        }
        for &k in &keys {
            c.invalidate(k);
            assert!(!c.probe(k));
        }
        assert_eq!(c.occupancy(), 0);
    }
}

#[test]
fn share_placement_is_total_and_bounded() {
    let mut rng = Xoshiro256::seed_from(0x51AB);
    for _ in 0..64 {
        let units = 1 + rng.below(15) as usize;
        let shares: Vec<u64> = (0..units).map(|_| rng.below(64)).collect();
        let p = SharePlacement::new(shares.clone());
        let total: u64 = shares.iter().sum();
        for _ in 0..200 {
            let k = rng.below(100_000);
            match p.locate(k) {
                Some((u, slot)) => {
                    assert!(total > 0);
                    assert!(u < shares.len());
                    assert!(slot < shares[u], "slot {slot} >= share {}", shares[u]);
                }
                None => assert_eq!(total, 0),
            }
        }
    }
}

#[test]
fn share_placement_distribution_tracks_shares() {
    let mut rng = Xoshiro256::seed_from(0xD157);
    for _ in 0..16 {
        let a = 1 + rng.below(31);
        let b = 1 + rng.below(31);
        let p = SharePlacement::new(vec![a * 64, b * 64]);
        let n = 40_000u64;
        let hits_a = (0..n).filter(|&k| p.locate(k).expect("non-empty").0 == 0).count() as f64;
        let expect = a as f64 / (a + b) as f64;
        let got = hits_a / n as f64;
        assert!((got - expect).abs() < 0.05, "expected {expect:.3}, got {got:.3}");
    }
}

#[test]
fn tagarray_hit_follows_miss_at_same_slot() {
    let mut rng = Xoshiro256::seed_from(0x7A6);
    for _ in 0..64 {
        let slots = 1 + rng.below(255);
        let ways = 1 + rng.below(7) as usize;
        let n = 1 + rng.below(99) as usize;
        let mut t = TagArray::new(slots, ways);
        for _ in 0..n {
            let slot = rng.below(slots);
            let key = rng.below(100_000);
            t.access(slot, key, false);
            assert!(t.probe(slot, key), "key must be resident right after access");
        }
        assert!(t.occupancy() <= t.slots());
    }
}

#[test]
fn tagarray_adoption_preserves_only_placed_keys() {
    let mut rng = Xoshiro256::seed_from(0xAD09);
    for _ in 0..64 {
        let n = 1 + rng.below(63) as usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        let mut old = TagArray::new(128, 1);
        for &k in &keys {
            old.access(k, k, false);
        }
        let mut new = TagArray::new(128, 1);
        let kept = new.adopt_from(&old, |k| if k % 3 == 0 { Some(k) } else { None });
        assert_eq!(kept, new.occupancy());
        for (k, _) in new.entries() {
            assert_eq!(k % 3, 0, "non-placed key survived adoption");
        }
    }
}

/// The dense tag array the sparse [`TagArray`] replaced, kept as an oracle:
/// one tag, dirty bit and LRU stamp per slot, all allocated up front.
mod dense {
    use ndpx_cache::setassoc::{CacheStats, Outcome};

    pub struct TagArray {
        ways: usize,
        sets: u64,
        /// Key + 1 per physical slot; 0 = invalid.
        tags: Vec<u64>,
        dirty: Vec<bool>,
        lru: Vec<u32>,
        tick: u32,
        stats: CacheStats,
    }

    impl TagArray {
        pub fn new(slots: u64, ways: usize) -> Self {
            let ways = ways.min(slots.max(1) as usize);
            let sets = slots / ways as u64;
            let n = (sets * ways as u64) as usize;
            TagArray {
                ways,
                sets,
                tags: vec![0; n],
                dirty: vec![false; n],
                lru: vec![0; n],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        pub fn slots(&self) -> u64 {
            self.sets * self.ways as u64
        }

        pub fn sets(&self) -> u64 {
            self.sets
        }

        fn base(&self, slot: u64) -> usize {
            (slot % self.sets) as usize * self.ways
        }

        pub fn access(&mut self, slot: u64, key: u64, write: bool) -> Outcome {
            if self.sets == 0 {
                self.stats.misses.inc();
                return Outcome::Miss { evicted: None };
            }
            self.tick += 1;
            let base = self.base(slot);
            for i in base..base + self.ways {
                if self.tags[i] == key + 1 {
                    self.lru[i] = self.tick;
                    self.dirty[i] |= write;
                    self.stats.hits.inc();
                    return Outcome::Hit;
                }
            }
            self.stats.misses.inc();
            let victim = (base..base + self.ways)
                .min_by_key(|&i| if self.tags[i] == 0 { (0, 0) } else { (1, self.lru[i]) })
                .expect("ways >= 1");
            let evicted = if self.tags[victim] != 0 {
                if self.dirty[victim] {
                    self.stats.writebacks.inc();
                }
                Some((self.tags[victim] - 1, self.dirty[victim]))
            } else {
                None
            };
            self.tags[victim] = key + 1;
            self.dirty[victim] = write;
            self.lru[victim] = self.tick;
            Outcome::Miss { evicted }
        }

        pub fn probe(&self, slot: u64, key: u64) -> bool {
            self.sets > 0 && {
                let base = self.base(slot);
                self.tags[base..base + self.ways].contains(&(key + 1))
            }
        }

        pub fn invalidate_all(&mut self) -> (u64, u64) {
            let mut valid = 0;
            let mut dirty = 0;
            for i in 0..self.tags.len() {
                if self.tags[i] != 0 {
                    valid += 1;
                    if self.dirty[i] {
                        dirty += 1;
                    }
                }
                self.tags[i] = 0;
                self.dirty[i] = false;
            }
            (valid, dirty)
        }

        pub fn install_if_free(&mut self, slot: u64, key: u64, dirty: bool) -> bool {
            if self.sets == 0 {
                return false;
            }
            let base = self.base(slot);
            match (base..base + self.ways).find(|&j| self.tags[j] == 0) {
                Some(j) => {
                    self.tags[j] = key + 1;
                    self.dirty[j] = dirty;
                    true
                }
                None => false,
            }
        }

        pub fn adopt_from(
            &mut self,
            old: &TagArray,
            mut place: impl FnMut(u64) -> Option<u64>,
        ) -> u64 {
            let mut kept = 0;
            for i in 0..old.tags.len() {
                if old.tags[i] != 0 {
                    let key = old.tags[i] - 1;
                    if let Some(slot) = place(key) {
                        if self.sets > 0 {
                            let base = self.base(slot);
                            if let Some(j) = (base..base + self.ways).find(|&j| self.tags[j] == 0) {
                                self.tags[j] = key + 1;
                                self.dirty[j] = old.dirty[i];
                                kept += 1;
                            }
                        }
                    }
                }
            }
            kept
        }

        pub fn entries(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
            self.tags.iter().zip(&self.dirty).filter(|(&t, _)| t != 0).map(|(&t, &d)| (t - 1, d))
        }

        pub fn occupancy(&self) -> u64 {
            self.tags.iter().filter(|&&t| t != 0).count() as u64
        }

        pub fn stats(&self) -> &CacheStats {
            &self.stats
        }
    }
}

fn assert_same(sparse: &TagArray, dense: &dense::TagArray, at: &str) {
    let got: Vec<(u64, bool)> = sparse.entries().collect();
    let want: Vec<(u64, bool)> = dense.entries().collect();
    assert_eq!(got, want, "entries (in slot order) differ {at}");
    assert_eq!(sparse.occupancy(), dense.occupancy(), "occupancy {at}");
    let (s, d) = (sparse.stats(), dense.stats());
    assert_eq!(
        (s.hits.get(), s.misses.get(), s.writebacks.get()),
        (d.hits.get(), d.misses.get(), d.writebacks.get()),
        "stats {at}"
    );
}

#[test]
fn tagarray_matches_dense_reference() {
    let mut rng = Xoshiro256::seed_from(0xDE45E);
    // Zero, one and three slots; counts that are not a multiple of the
    // ways; fewer slots than ways; and arrays spanning many pages.
    let slot_counts = [0u64, 1, 2, 3, 5, 7, 15, 16, 17, 33, 64, 100, 257, 1000];
    for ways in [1usize, 2, 4, 16] {
        for slots in slot_counts {
            for case in 0..3 {
                let mut sparse = TagArray::new(slots, ways);
                let mut dense = dense::TagArray::new(slots, ways);
                assert_eq!((sparse.slots(), sparse.sets()), (dense.slots(), dense.sets()));
                // Few keys per slot makes hits and LRU evictions common.
                let keys = 1 + rng.below(2 * slots + 8);
                for step in 0..200 {
                    let at = format!("(ways {ways}, slots {slots}, case {case}, step {step})");
                    // Mostly in-range slots; sometimes huge ones the array
                    // must reduce mod its set count.
                    let slot =
                        if rng.chance(0.1) { rng.next_u64() } else { rng.below(2 * slots + 4) };
                    let key = rng.below(keys);
                    let write = rng.chance(0.3);
                    match rng.below(100) {
                        0..=59 => assert_eq!(
                            sparse.access(slot, key, write),
                            dense.access(slot, key, write),
                            "access {at}"
                        ),
                        60..=74 => {
                            assert_eq!(
                                sparse.probe(slot, key),
                                dense.probe(slot, key),
                                "probe {at}"
                            )
                        }
                        75..=97 => assert_eq!(
                            sparse.install_if_free(slot, key, write),
                            dense.install_if_free(slot, key, write),
                            "install_if_free {at}"
                        ),
                        _ => assert_eq!(
                            sparse.invalidate_all(),
                            dense.invalidate_all(),
                            "invalidate_all {at}"
                        ),
                    }
                    assert_same(&sparse, &dense, &at);
                }
                // Re-place the survivors into a differently sized array, as
                // a reconfiguration does.
                let target = rng.below(2 * slots + 2);
                let place = |k: u64| {
                    (!k.is_multiple_of(3)).then(|| k.wrapping_mul(0x9E37_79B9) % (target + 1))
                };
                let mut sparse_new = TagArray::new(target, ways);
                let mut dense_new = dense::TagArray::new(target, ways);
                assert_eq!(
                    sparse_new.adopt_from(&sparse, place),
                    dense_new.adopt_from(&dense, place),
                    "adopt_from (ways {ways}, slots {slots}, case {case})"
                );
                assert_same(&sparse_new, &dense_new, "after adopt_from");
            }
        }
    }
}

#[test]
fn tagarray_cost_is_independent_of_capacity() {
    // Densely, 2^40 slots would need 13 TiB; only filled sets cost memory.
    let slots = 1u64 << 40;
    let mut t = TagArray::new(slots, 4);
    assert_eq!((t.slots(), t.sets()), (slots, slots / 4));
    let mut rng = Xoshiro256::seed_from(0x1 << 40);
    let placed: Vec<(u64, u64)> = (0..4000).map(|key| (rng.below(slots), key)).collect();
    for &(slot, key) in &placed {
        assert!(!t.access(slot, key, key.is_multiple_of(2)).is_hit());
    }
    for &(slot, key) in &placed {
        assert!(t.probe(slot, key), "key {key} at slot {slot} was evicted");
        assert!(t.access(slot, key, false).is_hit());
    }
    assert_eq!(t.occupancy(), 4000);
    // Entries come out in slot order: by set, then by fill order (way).
    let mut by_set = placed.clone();
    by_set.sort_by_key(|&(slot, key)| (slot % t.sets(), key));
    let keys: Vec<u64> = t.entries().map(|(k, _)| k).collect();
    assert_eq!(keys, by_set.iter().map(|&(_, k)| k).collect::<Vec<_>>());
    assert_eq!(t.invalidate_all(), (4000, 2000));
    assert_eq!(t.occupancy(), 0);
}
