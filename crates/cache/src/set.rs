//! One set-associative, write-back, write-allocate cache level with true
//! LRU replacement and per-line dirty bits.
//!
//! This is the packed fast-path implementation. Per-set state lives in
//! fixed-capacity packed blocks (`assoc` tags, `assoc` LRU stamps, then
//! the set's dirty bitmask word) allocated lazily from one arena the
//! first time a set is touched; empty ways hold a sentinel tag, so
//! occupancy needs no separate bookkeeping and the set is selected by
//! mask instead of division. Lazy blocks keep construction, `Clone`,
//! *and* the dirty-line walks proportional to the *touched* working set
//! rather than the geometry — the crash-sweep engine builds and clones
//! thousands of hierarchies whose multi-megabyte last level is almost
//! empty. The original naive implementation is retained as
//! [`crate::RefSetAssocCache`] and the differential property tests
//! drive both with identical traces.

use std::fmt;

use wsp_units::ByteSize;

use crate::{CacheConfig, LineAddr, LINE_SIZE};

/// What happened to the victim when a new line was installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// A free way was available; nothing was evicted.
    None,
    /// A clean line was silently dropped.
    Clean(LineAddr),
    /// A dirty line must be written back (to the next level or memory).
    Dirty(LineAddr),
}

/// `set_block` marker for a set whose block was never allocated.
const NO_BLOCK: u32 = u32::MAX;

/// Tag stored in ways that hold no line. Real tags are line indices
/// (addresses divided by the line size), so the all-ones value can never
/// collide; keeping the sentinel in the tag slots lets the probe be a
/// straight equality scan over the set's tag words with no bitmask
/// iteration.
const INVALID_TAG: u64 = u64::MAX;

/// One level of set-associative, write-back cache.
///
/// The level tracks tags and dirty bits only; line *contents* live with the
/// memory model in `wsp-pheap`, which observes the eviction and writeback
/// events this type returns.
///
/// # Examples
///
/// ```
/// use wsp_cache::{CacheConfig, LineAddr, SetAssocCache};
/// use wsp_units::{ByteSize, Nanos};
///
/// let mut l1 = SetAssocCache::new(CacheConfig::new(
///     "L1d",
///     ByteSize::kib(32),
///     8,
///     Nanos::new(1),
/// ));
/// let line = LineAddr::from_index(7);
/// assert!(!l1.contains(line));
/// l1.install(line, true);
/// assert!(l1.is_dirty(line));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `num_sets - 1`; set selection is `line.index() & set_mask`.
    set_mask: u64,
    /// Ways per set, cached out of the config.
    assoc: usize,
    /// Arena block index per set; [`NO_BLOCK`] until first install.
    set_block: Box<[u32]>,
    /// Packed per-set blocks of `2 * assoc + 1` words: the set's way
    /// tags, its LRU stamps, then its dirty bitmask. Empty ways hold
    /// [`INVALID_TAG`]; their stamp words are meaningless. Keeping the
    /// dirty word in the block (instead of a per-set array sized by the
    /// geometry) makes dirty-line walks proportional to the touched
    /// sets.
    slots: Vec<u64>,
    access_counter: u64,
    dirty_count: u64,
}

impl SetAssocCache {
    /// Creates an empty cache level with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64 (the per-set bitmask
    /// width); no machine in the paper's evaluation comes close.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets() as usize;
        let assoc = config.associativity as usize;
        assert!(assoc <= 64, "packed sets support at most 64 ways, got {assoc}");
        SetAssocCache {
            set_mask: sets as u64 - 1,
            assoc,
            set_block: vec![NO_BLOCK; sets].into_boxed_slice(),
            slots: Vec::new(),
            access_counter: 0,
            dirty_count: 0,
            config,
        }
    }

    /// Words per packed set block: `assoc` tags, `assoc` stamps, one
    /// dirty bitmask.
    #[inline]
    fn stride(&self) -> usize {
        2 * self.assoc + 1
    }

    /// The level's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.index() & self.set_mask) as usize
    }

    /// First slot of the set's block, allocating the block on first use.
    #[inline]
    fn ensure_block(&mut self, set: usize) -> usize {
        let b = self.set_block[set];
        if b != NO_BLOCK {
            return b as usize * self.stride();
        }
        let base = self.slots.len();
        self.set_block[set] = (base / self.stride()) as u32;
        self.slots.resize(base + self.stride(), 0);
        self.slots[base..base + self.assoc].fill(INVALID_TAG);
        base
    }

    /// Finds the way holding `line` by scanning its set's tag words;
    /// empty ways hold [`INVALID_TAG`] and can never match. Returns
    /// `(block base, way)`.
    #[inline]
    fn probe(&self, line: LineAddr) -> Option<(usize, u32)> {
        let set = self.set_of(line);
        let block = self.set_block[set];
        if block == NO_BLOCK {
            return None;
        }
        let base = block as usize * self.stride();
        let tag = line.index();
        self.slots[base..base + self.assoc]
            .iter()
            .position(|&t| t == tag)
            .map(|way| (base, way as u32))
    }

    /// True if the line is resident at this level.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.probe(line).is_some()
    }

    /// True if the line is resident and dirty at this level.
    #[must_use]
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        match self.probe(line) {
            Some((base, way)) => self.slots[base + 2 * self.assoc] & (1 << way) != 0,
            None => false,
        }
    }

    /// Touches a resident line (updates LRU; optionally marks it dirty).
    /// Returns `true` on hit, `false` if the line is not resident.
    pub fn touch(&mut self, line: LineAddr, write: bool) -> bool {
        self.access_counter += 1;
        let Some((base, way)) = self.probe(line) else {
            return false;
        };
        self.slots[base + self.assoc + way as usize] = self.access_counter;
        let dirty_word = base + 2 * self.assoc;
        if write && self.slots[dirty_word] & (1 << way) == 0 {
            self.slots[dirty_word] |= 1 << way;
            self.dirty_count += 1;
        }
        true
    }

    /// Installs a line at this level (after a miss was satisfied below),
    /// evicting the LRU way if the set is full. Returns what happened to
    /// the victim.
    pub fn install(&mut self, line: LineAddr, dirty: bool) -> Eviction {
        self.access_counter += 1;
        let stamp = self.access_counter;
        debug_assert!(
            !self.contains(line),
            "install of already-resident line {line}"
        );
        self.install_with_stamp(self.set_of(line), line.index(), dirty, stamp)
    }

    /// Touches the line if resident, installing it otherwise — the
    /// hierarchy's promote/evict path fused into a single set probe.
    /// Returns `None` when the line was already resident (LRU updated,
    /// dirty bit possibly set), or `Some(eviction)` when it was
    /// installed. Exactly equivalent to `contains` + (`touch` |
    /// `install`), including LRU stamp assignment.
    pub fn install_or_touch(&mut self, line: LineAddr, dirty: bool) -> Option<Eviction> {
        self.access_counter += 1;
        let stamp = self.access_counter;
        let set = self.set_of(line);
        let tag = line.index();
        let block = self.set_block[set];
        if block != NO_BLOCK {
            let base = block as usize * self.stride();
            let hit = self.slots[base..base + self.assoc]
                .iter()
                .position(|&t| t == tag);
            if let Some(way) = hit {
                self.slots[base + self.assoc + way] = stamp;
                let dirty_word = base + 2 * self.assoc;
                if dirty && self.slots[dirty_word] & (1 << way) == 0 {
                    self.slots[dirty_word] |= 1 << way;
                    self.dirty_count += 1;
                }
                return None;
            }
        }
        Some(self.install_with_stamp(set, tag, dirty, stamp))
    }

    /// The install body shared by [`install`](Self::install) and
    /// [`install_or_touch`](Self::install_or_touch): the caller has
    /// already claimed `stamp` from the access counter and knows the
    /// line is absent.
    fn install_with_stamp(&mut self, set: usize, tag: u64, dirty: bool, stamp: u64) -> Eviction {
        debug_assert_ne!(tag, INVALID_TAG, "line index collides with the empty-way sentinel");
        let assoc = self.assoc;
        let base = self.ensure_block(set);
        let dirty_word = base + 2 * assoc;

        // A free way (sentinel tag) is available: take the lowest-index one.
        let free = self.slots[base..base + assoc]
            .iter()
            .position(|&t| t == INVALID_TAG);
        if let Some(way) = free {
            self.slots[base + way] = tag;
            self.slots[base + assoc + way] = stamp;
            if dirty {
                self.slots[dirty_word] |= 1 << way;
                self.dirty_count += 1;
            }
            return Eviction::None;
        }

        // Full set: evict the way with the minimum stamp. Stamps are
        // unique (one counter increment per operation), so the minimum
        // is unambiguous.
        let mut lru = 0usize;
        let mut lru_stamp = u64::MAX;
        for way in 0..assoc {
            let s = self.slots[base + assoc + way];
            if s < lru_stamp {
                lru_stamp = s;
                lru = way;
            }
        }
        let victim = LineAddr::from_index(self.slots[base + lru]);
        let victim_dirty = self.slots[dirty_word] & (1 << lru) != 0;
        self.slots[base + lru] = tag;
        self.slots[base + assoc + lru] = stamp;
        match (victim_dirty, dirty) {
            (true, false) => {
                self.slots[dirty_word] &= !(1 << lru);
                self.dirty_count -= 1;
            }
            (false, true) => {
                self.slots[dirty_word] |= 1 << lru;
                self.dirty_count += 1;
            }
            _ => {}
        }
        if victim_dirty {
            Eviction::Dirty(victim)
        } else {
            Eviction::Clean(victim)
        }
    }

    /// Removes a line from this level, returning `Some(dirty)` if it was
    /// resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (base, way) = self.probe(line)?;
        let dirty_word = base + 2 * self.assoc;
        let was_dirty = self.slots[dirty_word] & (1 << way) != 0;
        self.slots[dirty_word] &= !(1 << way);
        self.slots[base + way as usize] = INVALID_TAG;
        if was_dirty {
            self.dirty_count -= 1;
        }
        Some(was_dirty)
    }

    /// Clears the dirty bit on a resident line (after its data was written
    /// back without invalidation, i.e. `clwb` semantics). Returns `true`
    /// if the line was resident and dirty.
    pub fn clean(&mut self, line: LineAddr) -> bool {
        let Some((base, way)) = self.probe(line) else {
            return false;
        };
        let dirty_word = base + 2 * self.assoc;
        if self.slots[dirty_word] & (1 << way) == 0 {
            return false;
        }
        self.slots[dirty_word] &= !(1 << way);
        self.dirty_count -= 1;
        true
    }

    /// Invalidates every resident line with an index in `[first, end)`,
    /// appending the dirty ones to `out` (unsorted) — `invalidate` over
    /// the whole range, with the same end state. A range at least as
    /// long as the set count walks the touched blocks once instead of
    /// probing line by line.
    pub(crate) fn invalidate_range_into(&mut self, first: u64, end: u64, out: &mut Vec<LineAddr>) {
        if end.saturating_sub(first) < self.set_block.len() as u64 {
            for index in first..end {
                let line = LineAddr::from_index(index);
                if self.invalidate(line) == Some(true) {
                    out.push(line);
                }
            }
            return;
        }
        let assoc = self.assoc;
        for block in self.slots.chunks_mut(2 * assoc + 1) {
            for way in 0..assoc {
                let tag = block[way];
                if tag == INVALID_TAG || !(first..end).contains(&tag) {
                    continue;
                }
                block[way] = INVALID_TAG;
                if block[2 * assoc] & (1 << way) != 0 {
                    block[2 * assoc] &= !(1 << way);
                    self.dirty_count -= 1;
                    out.push(LineAddr::from_index(tag));
                }
            }
        }
    }

    /// Drains every line from the level, appending the dirty ones to
    /// `out` (the `wbinvd` walk at this level). The appended lines are
    /// in address-sorted order.
    pub fn drain_dirty_into(&mut self, out: &mut Vec<LineAddr>) {
        let start = out.len();
        self.collect_dirty_into(out);
        out[start..].sort_unstable();
        self.dirty_count = 0;
        // Empty ways must read as the sentinel so future probes cannot
        // match a stale tag; each block's dirty word is cleared in the
        // same pass.
        let assoc = self.assoc;
        for block in self.slots.chunks_mut(2 * assoc + 1) {
            block[..assoc].fill(INVALID_TAG);
            block[2 * assoc] = 0;
        }
    }

    /// Drains every line from the level, returning the dirty ones in
    /// address-sorted order.
    pub fn drain_all(&mut self) -> Vec<LineAddr> {
        let mut dirty = Vec::with_capacity(self.dirty_count as usize);
        self.drain_dirty_into(&mut dirty);
        dirty
    }

    /// Number of resident lines.
    #[must_use]
    pub fn resident_lines(&self) -> u64 {
        let assoc = self.assoc;
        self.slots
            .chunks(2 * assoc + 1)
            .map(|block| block[..assoc].iter().filter(|&&t| t != INVALID_TAG).count() as u64)
            .sum()
    }

    /// Number of dirty resident lines.
    #[must_use]
    pub fn dirty_lines(&self) -> u64 {
        self.dirty_count
    }

    /// Bytes of dirty data at this level.
    #[must_use]
    pub fn dirty_bytes(&self) -> ByteSize {
        ByteSize::new(self.dirty_count * LINE_SIZE)
    }

    /// Appends all dirty lines to `out` in block-allocation order
    /// (unsorted; callers that need address order sort afterwards). The
    /// walk visits only the touched sets, never the full geometry.
    pub(crate) fn collect_dirty_into(&self, out: &mut Vec<LineAddr>) {
        if self.dirty_count == 0 {
            return;
        }
        let assoc = self.assoc;
        for block in self.slots.chunks(2 * assoc + 1) {
            let mut d = block[2 * assoc];
            while d != 0 {
                let way = d.trailing_zeros() as usize;
                out.push(LineAddr::from_index(block[way]));
                d &= d - 1;
            }
        }
    }

    /// Iterates over all dirty lines in address-sorted order.
    pub fn iter_dirty(&self) -> impl Iterator<Item = LineAddr> + '_ {
        let mut dirty = Vec::with_capacity(self.dirty_count as usize);
        self.collect_dirty_into(&mut dirty);
        dirty.sort_unstable();
        dirty.into_iter()
    }
}

impl fmt::Display for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {}-way, {} resident, {} dirty)",
            self.config.name,
            self.config.capacity,
            self.config.associativity,
            self.resident_lines(),
            self.dirty_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_units::Nanos;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheConfig::new(
            "tiny",
            ByteSize::new(2 * 2 * LINE_SIZE),
            2,
            Nanos::new(1),
        ))
    }

    fn line(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    #[test]
    fn install_then_hit() {
        let mut c = tiny();
        assert!(!c.touch(line(0), false));
        assert_eq!(c.install(line(0), false), Eviction::None);
        assert!(c.touch(line(0), false));
        assert!(!c.is_dirty(line(0)));
        assert!(c.touch(line(0), true));
        assert!(c.is_dirty(line(0)));
        assert_eq!(c.dirty_lines(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line indices).
        c.install(line(0), false);
        c.install(line(2), false);
        c.touch(line(0), false); // 2 is now LRU
        assert_eq!(c.install(line(4), false), Eviction::Clean(line(2)));
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(2)));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.install(line(0), true);
        c.install(line(2), false);
        c.touch(line(2), false);
        assert_eq!(c.install(line(4), false), Eviction::Dirty(line(0)));
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.install(line(1), true);
        c.install(line(3), false);
        assert_eq!(c.invalidate(line(1)), Some(true));
        assert_eq!(c.invalidate(line(3)), Some(false));
        assert_eq!(c.invalidate(line(5)), None);
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn clean_clears_dirty_bit_without_eviction() {
        let mut c = tiny();
        c.install(line(0), true);
        assert!(c.clean(line(0)));
        assert!(!c.clean(line(0)));
        assert!(c.contains(line(0)));
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn drain_returns_dirty_lines_in_address_order() {
        let mut c = tiny();
        c.install(line(2), true);
        c.install(line(1), false);
        c.install(line(0), true);
        assert_eq!(c.drain_all(), vec![line(0), line(2)]);
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn dirty_accounting_is_consistent() {
        let mut c = tiny();
        c.install(line(0), true);
        c.touch(line(0), true); // already dirty: no double count
        assert_eq!(c.dirty_lines(), 1);
        assert_eq!(c.dirty_bytes(), ByteSize::new(LINE_SIZE));
        assert_eq!(c.iter_dirty().count(), 1);
    }

    #[test]
    fn iter_dirty_is_address_sorted() {
        let mut c = SetAssocCache::new(CacheConfig::new(
            "4x2",
            ByteSize::new(4 * 2 * LINE_SIZE),
            2,
            Nanos::new(1),
        ));
        for i in [7u64, 2, 5, 0, 3] {
            c.install(line(i), true);
        }
        let got: Vec<LineAddr> = c.iter_dirty().collect();
        assert_eq!(got, vec![line(0), line(2), line(3), line(5), line(7)]);
    }

    #[test]
    fn reuses_freed_way_after_invalidate() {
        let mut c = tiny();
        c.install(line(0), false);
        c.install(line(2), true);
        c.invalidate(line(0));
        // Set 0 has a hole; installing must fill it without eviction.
        assert_eq!(c.install(line(4), false), Eviction::None);
        assert!(c.contains(line(2)) && c.contains(line(4)));
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn blocks_allocate_lazily_and_survive_drain() {
        let mut c = SetAssocCache::new(CacheConfig::new(
            "big",
            ByteSize::mib(8),
            16,
            Nanos::new(1),
        ));
        // A fresh level owns no slot storage at all.
        assert_eq!(c.slots.len(), 0);
        c.install(line(5), true);
        c.install(line(5 + c.set_mask + 1), false);
        // One set touched → exactly one block (tags + stamps + dirty word).
        assert_eq!(c.slots.len(), 2 * c.assoc + 1);
        c.drain_all();
        // The block is retained for reuse; the contents are gone.
        assert_eq!(c.slots.len(), 2 * c.assoc + 1);
        assert_eq!(c.resident_lines(), 0);
        c.install(line(5), false);
        assert!(c.contains(line(5)));
        assert_eq!(c.slots.len(), 2 * c.assoc + 1);
    }

    #[test]
    fn display_mentions_geometry() {
        let c = tiny();
        let s = c.to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("2-way"));
    }
}
