//! Externally-indexed tag arrays for DRAM-cache contents.
//!
//! Unlike [`crate::setassoc::SetAssocCache`], which hashes keys to sets
//! internally, a [`TagArray`] is indexed by a *slot* supplied by the caller —
//! the placement layer (shares, replication groups) decides where a key may
//! live, and the tag array only records what currently occupies each slot.
//! This models both the baselines' in-DRAM cacheline tags and NDPExt's
//! affine/indirect stream caches.

use crate::setassoc::{CacheStats, Outcome};

/// One way of a filled set.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    /// Key + 1; 0 = invalid.
    tag: u64,
    lru: u32,
    dirty: bool,
}

/// Page-table entry: a page number and the slab offset of its first way.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    page: u64,
    base: usize,
}

/// Marks a free bucket. Page numbers are set indices shifted right, so
/// below `u64::MAX`, and no real page collides with it.
const FREE: u64 = u64::MAX;

/// Sets are stored in pages of about this many slots (whole sets, a power
/// of two of them). A page is allocated on the first fill of any of its
/// sets. Whole pages keep a busy array about as compact, and its lookups
/// about as fast, as a dense one; untouched pages cost nothing.
const PAGE_SLOTS: usize = 16;

/// Buckets allocated on the first fill.
const MIN_BUCKETS: usize = 8;

/// A resizable tag array of `slots` entries grouped into sets of `ways`.
///
/// Slot indices come from the placement layer. With `ways == 1` the array is
/// direct-mapped (the paper's default for indirect streams); higher
/// associativity groups consecutive slots into one set with LRU replacement
/// (evaluated in Fig. 9a).
///
/// Storage is sparse: only pages of sets that have been filled hold memory,
/// so a partition costs in proportion to its resident lines, not its
/// capacity. An open-addressed table maps a page number to that page's
/// ways in a slab.
///
/// # Examples
///
/// ```
/// use ndpx_cache::tagarray::TagArray;
///
/// let mut tags = TagArray::new(64, 1);
/// assert!(!tags.access(5, 1000, false).is_hit());
/// assert!(tags.access(5, 1000, false).is_hit());
/// // Direct-mapped: a different key in the same slot evicts.
/// assert!(!tags.access(5, 2000, false).is_hit());
/// assert!(!tags.access(5, 1000, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct TagArray {
    ways: usize,
    sets: u64,
    /// log2 of the sets per page.
    page_bits: u32,
    /// Linear-probing table of allocated pages; empty or a power of two
    /// long, at most half full.
    index: Vec<Bucket>,
    /// `64 - log2(index.len())`: Fibonacci hashing keeps the top bits.
    shift: u32,
    /// The ways of every allocated page, set-major, pages in fill order.
    slab: Vec<Way>,
    tick: u32,
    stats: CacheStats,
}

impl TagArray {
    /// Creates an array of `slots` entries at the given associativity.
    ///
    /// If `slots` is not a multiple of `ways` the remainder slots are
    /// dropped (a partition loses at most `ways - 1` slots). Nothing is
    /// allocated until the first fill.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(slots: u64, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be at least 1");
        // A tiny allocation (fewer slots than ways) degrades gracefully to
        // a fully-associative array over the available slots.
        let ways = ways.min(slots.max(1) as usize);
        let sets = slots / ways as u64;
        TagArray {
            ways,
            sets,
            page_bits: (PAGE_SLOTS / ways).max(1).ilog2(),
            index: Vec::new(),
            shift: 64,
            slab: Vec::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of usable slots.
    pub fn slots(&self) -> u64 {
        self.sets * self.ways as u64
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Accesses `key` at placement `slot` (reduced mod the set count),
    /// filling on miss.
    pub fn access(&mut self, slot: u64, key: u64, write: bool) -> Outcome {
        if self.sets == 0 {
            self.stats.misses.inc();
            return Outcome::Miss { evicted: None };
        }
        self.tick += 1;
        let tick = self.tick;
        let base = self.fill(slot % self.sets);
        let set = &mut self.slab[base..base + self.ways];

        if let Some(w) = set.iter_mut().find(|w| w.tag == key + 1) {
            w.lru = tick;
            w.dirty |= write;
            self.stats.hits.inc();
            return Outcome::Hit;
        }

        self.stats.misses.inc();
        // Empty ways first, then least recently used; the first minimum wins.
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.tag == 0 { (0, 0) } else { (1, w.lru) })
            .expect("ways >= 1");
        let evicted = if victim.tag != 0 {
            if victim.dirty {
                self.stats.writebacks.inc();
            }
            Some((victim.tag - 1, victim.dirty))
        } else {
            None
        };
        *victim = Way { tag: key + 1, lru: tick, dirty: write };
        Outcome::Miss { evicted }
    }

    /// Checks for `key` at `slot` without filling.
    pub fn probe(&self, slot: u64, key: u64) -> bool {
        if self.sets == 0 {
            return false;
        }
        self.find(slot % self.sets)
            .is_some_and(|base| self.slab[base..base + self.ways].iter().any(|w| w.tag == key + 1))
    }

    /// Invalidates everything; returns `(valid, dirty)` counts.
    ///
    /// LRU stamps stay with their ways, so a later [`Self::install_if_free`]
    /// (which does not stamp) inherits the previous occupant's.
    pub fn invalidate_all(&mut self) -> (u64, u64) {
        let mut valid = 0;
        let mut dirty = 0;
        for w in self.slab.iter_mut().filter(|w| w.tag != 0) {
            valid += 1;
            dirty += u64::from(w.dirty);
            w.tag = 0;
            w.dirty = false;
        }
        (valid, dirty)
    }

    /// Moves the resident keys of another array into this one, re-placing
    /// each with `place` (used by consistent-hash reconfiguration to keep
    /// surviving lines). Returns how many keys were retained.
    pub fn adopt_from(&mut self, old: &TagArray, mut place: impl FnMut(u64) -> Option<u64>) -> u64 {
        let mut kept = 0;
        for (key, dirty) in old.entries() {
            if place(key).is_some_and(|slot| self.install_if_free(slot, key, dirty)) {
                kept += 1;
            }
        }
        kept
    }

    /// Iterates over resident `(key, dirty)` entries in slot order: by set,
    /// then by way.
    pub fn entries(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        let mut pages: Vec<(u64, usize)> =
            self.index.iter().filter(|b| b.page != FREE).map(|b| (b.page, b.base)).collect();
        pages.sort_unstable();
        let page_len = self.page_len();
        pages.into_iter().flat_map(move |(_, base)| {
            self.slab[base..base + page_len]
                .iter()
                .filter(|w| w.tag != 0)
                .map(|w| (w.tag - 1, w.dirty))
        })
    }

    /// Installs `key` at `slot` only if a free way exists (no eviction);
    /// returns whether it was installed. Used when adopting entries across
    /// a reconfiguration.
    pub fn install_if_free(&mut self, slot: u64, key: u64, dirty: bool) -> bool {
        if self.sets == 0 {
            return false;
        }
        let base = self.fill(slot % self.sets);
        if let Some(w) = self.slab[base..base + self.ways].iter_mut().find(|w| w.tag == 0) {
            w.tag = key + 1;
            w.dirty = dirty;
            true
        } else {
            false
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> u64 {
        self.slab.iter().filter(|w| w.tag != 0).count() as u64
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Home bucket of `page`.
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Slab offset of `page`'s first way, if the page is allocated.
    fn find_page(&self, page: u64) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut i = self.home(page);
        loop {
            let b = self.index[i];
            if b.page == page {
                return Some(b.base);
            }
            if b.page == FREE {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Ways per page.
    fn page_len(&self) -> usize {
        self.ways << self.page_bits
    }

    /// Offset of `set`'s first way within its page.
    fn in_page(&self, set: u64) -> usize {
        (set as usize & ((1 << self.page_bits) - 1)) * self.ways
    }

    /// Slab offset of `set`'s first way, if its page is allocated.
    fn find(&self, set: u64) -> Option<usize> {
        self.find_page(set >> self.page_bits).map(|base| base + self.in_page(set))
    }

    /// Slab offset of `set`'s first way, allocating its page (all ways
    /// empty) on first use.
    fn fill(&mut self, set: u64) -> usize {
        let page = set >> self.page_bits;
        let base = match self.find_page(page) {
            Some(base) => base,
            None => {
                let page_len = self.page_len();
                if (self.slab.len() / page_len + 1) * 2 > self.index.len() {
                    self.grow();
                }
                let base = self.slab.len();
                self.slab.resize(base + page_len, Way::default());
                self.insert(Bucket { page, base });
                base
            }
        };
        base + self.in_page(set)
    }

    /// Doubles the page table (or allocates the first one) and re-inserts
    /// every page.
    fn grow(&mut self) {
        let len = (self.index.len() * 2).max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.index, vec![Bucket { page: FREE, base: 0 }; len]);
        self.shift = 64 - len.trailing_zeros();
        for b in old.into_iter().filter(|b| b.page != FREE) {
            self.insert(b);
        }
    }

    /// Places `b` in the first free bucket from its home; `b.page` must be
    /// absent and the table not full.
    fn insert(&mut self, b: Bucket) {
        let mask = self.index.len() - 1;
        let mut i = self.home(b.page);
        while self.index[i].page != FREE {
            i = (i + 1) & mask;
        }
        self.index[i] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_conflicts() {
        let mut t = TagArray::new(4, 1);
        assert!(!t.access(0, 100, false).is_hit());
        assert!(t.access(0, 100, false).is_hit());
        match t.access(0, 200, true) {
            Outcome::Miss { evicted: Some((100, false)) } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(t.probe(0, 200));
        assert!(!t.probe(0, 100));
    }

    #[test]
    fn associative_sets_avoid_conflicts() {
        let mut t = TagArray::new(8, 2);
        assert_eq!(t.sets(), 4);
        t.access(0, 100, false);
        t.access(0, 200, false);
        // Both fit in the 2-way set.
        assert!(t.access(0, 100, false).is_hit());
        assert!(t.access(0, 200, false).is_hit());
        // Third key evicts the least recently touched (100: the re-touches
        // above ended with 200).
        match t.access(0, 300, false) {
            Outcome::Miss { evicted: Some((k, _)) } => assert_eq!(k, 100),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_slots_always_miss() {
        let mut t = TagArray::new(0, 1);
        assert_eq!(t.access(0, 1, false), Outcome::Miss { evicted: None });
        assert!(!t.probe(7, 1));
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn invalidate_all_reports_dirty() {
        let mut t = TagArray::new(8, 1);
        t.access(0, 1, true);
        t.access(1, 2, false);
        assert_eq!(t.invalidate_all(), (2, 1));
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn adopt_keeps_surviving_keys() {
        let mut old = TagArray::new(8, 1);
        for k in 0..8u64 {
            old.access(k, k, k % 2 == 0);
        }
        let mut new = TagArray::new(8, 1);
        // Keep only even keys, at the same slots.
        let kept = new.adopt_from(&old, |k| if k % 2 == 0 { Some(k) } else { None });
        assert_eq!(kept, 4);
        assert_eq!(new.occupancy(), 4);
        assert!(new.probe(0, 0));
        assert!(!new.probe(1, 1));
    }

    #[test]
    fn ways_truncation() {
        let t = TagArray::new(7, 2);
        assert_eq!(t.slots(), 6);
    }

    #[test]
    fn tiny_allocations_keep_capacity() {
        // One slot at 4-way must still cache one entry, not zero.
        let mut t = TagArray::new(1, 4);
        assert_eq!(t.slots(), 1);
        assert!(!t.access(0, 42, false).is_hit());
        assert!(t.access(0, 42, false).is_hit());
        let t3 = TagArray::new(3, 4);
        assert_eq!(t3.slots(), 3);
    }

    #[test]
    fn entries_and_install_if_free() {
        let mut t = TagArray::new(4, 2);
        t.access(0, 10, true);
        t.access(1, 20, false);
        let mut es: Vec<_> = t.entries().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(10, true), (20, false)]);
        // Fill set 0's both ways, then a third install must fail.
        assert!(t.install_if_free(0, 30, false));
        assert!(!t.install_if_free(0, 40, false));
    }

    #[test]
    fn stats_accumulate() {
        let mut t = TagArray::new(4, 1);
        t.access(0, 1, false);
        t.access(0, 1, false);
        t.access(0, 2, true);
        t.access(0, 3, false); // evicts dirty 2
        assert_eq!(t.stats().hits.get(), 1);
        assert_eq!(t.stats().misses.get(), 3);
        assert_eq!(t.stats().writebacks.get(), 1);
    }
}
