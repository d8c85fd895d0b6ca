//! Cache-mediated NVRAM: the byte store under every persistent heap.
//!
//! [`PersistentMemory`] keeps two views of the address space: the
//! **durable** bytes (what the NVDIMMs hold — the only thing that
//! survives an unflushed crash) and a **dirty-line overlay** mirroring
//! the simulated cache hierarchy's dirty lines. Ordinary stores update
//! the overlay; lines reach the durable view only through eviction
//! writebacks, explicit flushes, fenced non-temporal stores, or a
//! flush-on-fail `wbinvd` at crash time.

use wsp_cache::{CacheHierarchy, CpuProfile, LineAddr, LINE_SIZE};
use wsp_units::{ByteSize, Nanos};

use crate::linetable::LineTable;

/// One pending write-combining entry's payload. Almost every
/// non-temporal store the heaps issue is a single log word, so payloads
/// up to 16 bytes live inline; anything larger spills to the heap.
#[derive(Debug, Clone)]
enum WcData {
    Inline { len: u8, bytes: [u8; 16] },
    Spill(Vec<u8>),
}

impl WcData {
    fn new(data: &[u8]) -> Self {
        if data.len() <= 16 {
            let mut bytes = [0u8; 16];
            bytes[..data.len()].copy_from_slice(data);
            WcData::Inline {
                len: data.len() as u8,
                bytes,
            }
        } else {
            WcData::Spill(data.to_vec())
        }
    }

    fn bytes(&self) -> &[u8] {
        match self {
            WcData::Inline { len, bytes } => &bytes[..usize::from(*len)],
            WcData::Spill(v) => v,
        }
    }
}

/// A simulated NVRAM address space behind a write-back cache.
///
/// All operations charge simulated time, accumulated in
/// [`PersistentMemory::elapsed`]; the charge model comes from the
/// [`CpuProfile`] the memory was built with.
///
/// # Examples
///
/// ```
/// use wsp_pheap::PersistentMemory;
/// use wsp_units::ByteSize;
///
/// let mut mem = PersistentMemory::new(ByteSize::mib(1));
/// mem.write_u64(64, 7);
/// assert_eq!(mem.read_u64(64), 7);
/// // Without a flush the store is still in cache: a crash loses it.
/// let image = mem.crash(false);
/// assert_eq!(u64::from_le_bytes(image[64..72].try_into().unwrap()), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PersistentMemory {
    durable: Vec<u8>,
    overlay: LineTable,
    /// Non-temporal stores issued but not yet fenced: (addr, bytes).
    wc_pending: Vec<(u64, WcData)>,
    cache: CacheHierarchy,
    elapsed: Nanos,
}

impl PersistentMemory {
    /// Creates a zero-filled NVRAM of `capacity` bytes behind the default
    /// testbed cache (Intel C5528).
    #[must_use]
    pub fn new(capacity: ByteSize) -> Self {
        Self::with_profile(capacity, CpuProfile::intel_c5528())
    }

    /// Creates a zero-filled NVRAM behind the given CPU's caches.
    #[must_use]
    pub fn with_profile(capacity: ByteSize, profile: CpuProfile) -> Self {
        PersistentMemory {
            durable: vec![0u8; capacity.as_u64() as usize],
            overlay: LineTable::new(),
            wc_pending: Vec::new(),
            cache: CacheHierarchy::new(profile),
            elapsed: Nanos::ZERO,
        }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> ByteSize {
        ByteSize::new(self.durable.len() as u64)
    }

    /// Total simulated time charged so far.
    #[must_use]
    pub fn elapsed(&self) -> Nanos {
        self.elapsed
    }

    /// Adds instrumentation time that does not correspond to a memory
    /// access (STM bookkeeping, transaction setup, …).
    pub fn charge(&mut self, d: Nanos) {
        self.elapsed += d;
    }

    /// Credits back time that was charged serially but models work
    /// overlapped with execution elsewhere — a pipelined epoch seal
    /// draining behind foreground commits, or a 2PC participant
    /// preparing concurrently with its siblings. Saturates at zero.
    pub fn rebate(&mut self, d: Nanos) {
        self.elapsed = self.elapsed.saturating_sub(d);
    }

    /// The cache hierarchy (for statistics inspection).
    #[must_use]
    pub fn cache(&self) -> &CacheHierarchy {
        &self.cache
    }

    fn check(&self, addr: u64, len: usize) {
        assert!(
            addr as usize + len <= self.durable.len(),
            "access [{addr:#x}, {:#x}) exceeds region capacity {:#x}",
            addr as usize + len,
            self.durable.len()
        );
    }

    /// Moves the overlay contents of `line` into the durable view (a
    /// cache writeback reaching the NVDIMM).
    fn persist_line(&mut self, line: LineAddr) {
        Self::persist_lines(&mut self.durable, &mut self.overlay, &[line]);
    }

    fn persist_writebacks(&mut self, lines: &[LineAddr]) {
        Self::persist_lines(&mut self.durable, &mut self.overlay, lines);
    }

    /// Field-split form of writeback persistence, so the access paths can
    /// borrow the cache's scratch writeback slice while mutating the
    /// durable bytes and the overlay.
    fn persist_lines(durable: &mut [u8], overlay: &mut LineTable, lines: &[LineAddr]) {
        for &line in lines {
            if let Some(buf) = overlay.remove(line.index()) {
                let start = line.first_byte() as usize;
                let end = (start + LINE_SIZE as usize).min(durable.len());
                durable[start..end].copy_from_slice(&buf[..end - start]);
            }
        }
    }

    /// Drains every pending write-combining entry whose cache line(s)
    /// overlap `[addr, addr + len)` straight to the durable view.
    fn drain_wc_overlapping(&mut self, addr: u64, len: u64) {
        if self.wc_pending.is_empty() || len == 0 {
            return;
        }
        let first_line = addr / LINE_SIZE;
        let last_line = (addr + len - 1) / LINE_SIZE;
        let mut remaining = Vec::with_capacity(self.wc_pending.len());
        for (nt_addr, data) in std::mem::take(&mut self.wc_pending) {
            let bytes = data.bytes();
            let nt_first = nt_addr / LINE_SIZE;
            let nt_last = (nt_addr + bytes.len() as u64 - 1) / LINE_SIZE;
            if nt_last >= first_line && nt_first <= last_line {
                let start = nt_addr as usize;
                self.durable[start..start + bytes.len()].copy_from_slice(bytes);
            } else {
                remaining.push((nt_addr, data));
            }
        }
        self.wc_pending = remaining;
    }

    /// Reads `buf.len()` bytes at `addr` through the cache.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) {
        self.check(addr, buf.len());
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = addr + pos as u64;
            let line = LineAddr::containing(abs);
            let meta = self.cache.load_fast(abs);
            self.elapsed += meta.latency;
            if meta.writebacks > 0 {
                Self::persist_lines(
                    &mut self.durable,
                    &mut self.overlay,
                    self.cache.last_writebacks(),
                );
            }
            let offset = (abs - line.first_byte()) as usize;
            let chunk = (LINE_SIZE as usize - offset).min(buf.len() - pos);
            // Overlay if the line is dirty, durable view otherwise — no
            // intermediate line copy either way.
            if let Some(view) = self.overlay.get(line.index()) {
                buf[pos..pos + chunk].copy_from_slice(&view[offset..offset + chunk]);
            } else {
                let start = abs as usize;
                buf[pos..pos + chunk].copy_from_slice(&self.durable[start..start + chunk]);
            }
            pos += chunk;
        }
        // Pending (un-fenced) non-temporal stores are architecturally
        // visible to loads (store forwarding), even though they are not
        // yet durable: overlay them last, in issue order.
        for (nt_addr, data) in &self.wc_pending {
            let bytes = data.bytes();
            let nt_start = *nt_addr;
            let nt_end = nt_start + bytes.len() as u64;
            let start = addr.max(nt_start);
            let end = (addr + buf.len() as u64).min(nt_end);
            if start < end {
                let dst = (start - addr) as usize;
                let src = (start - nt_start) as usize;
                let n = (end - start) as usize;
                buf[dst..dst + n].copy_from_slice(&bytes[src..src + n]);
            }
        }
    }

    /// Writes `data` at `addr` through the cache (write-allocate; the
    /// data sits in dirty lines until flushed or evicted).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.check(addr, data.len());
        // A cached store that hits an active write-combining buffer
        // evicts (drains) it, as on x86: conflicting pending NT data
        // reaches memory *before* the store's line is materialised, so
        // program order is preserved end to end.
        self.drain_wc_overlapping(addr, data.len() as u64);
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = addr + pos as u64;
            let line = LineAddr::containing(abs);
            let meta = self.cache.store_fast(abs);
            self.elapsed += meta.latency;
            if meta.writebacks > 0 {
                Self::persist_lines(
                    &mut self.durable,
                    &mut self.overlay,
                    self.cache.last_writebacks(),
                );
            }
            // Materialise the overlay line (from the durable view) and
            // apply the store to it — one table probe for both.
            let offset = (abs - line.first_byte()) as usize;
            let chunk = (LINE_SIZE as usize - offset).min(data.len() - pos);
            let durable = &self.durable;
            let buf = self.overlay.get_mut_or_insert_with(line.index(), || {
                let mut fresh = [0u8; LINE_SIZE as usize];
                let start = line.first_byte() as usize;
                let end = (start + LINE_SIZE as usize).min(durable.len());
                fresh[..end - start].copy_from_slice(&durable[start..end]);
                fresh
            });
            buf[offset..offset + chunk].copy_from_slice(&data[pos..pos + chunk]);
            pos += chunk;
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    #[must_use]
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        // Word reads are the heap's access primitive: take the single-line
        // path (no chunk loop) whenever the word does not straddle a line
        // boundary and no pending NT data could need forwarding.
        let offset = (addr % LINE_SIZE) as usize;
        if offset + 8 <= LINE_SIZE as usize && self.wc_pending.is_empty() {
            self.check(addr, 8);
            let meta = self.cache.load_fast(addr);
            self.elapsed += meta.latency;
            if meta.writebacks > 0 {
                Self::persist_lines(
                    &mut self.durable,
                    &mut self.overlay,
                    self.cache.last_writebacks(),
                );
            }
            let line = LineAddr::containing(addr);
            let bytes: [u8; 8] = match self.overlay.get(line.index()) {
                Some(view) => view[offset..offset + 8].try_into().unwrap(),
                None => {
                    let start = addr as usize;
                    self.durable[start..start + 8].try_into().unwrap()
                }
            };
            return u64::from_le_bytes(bytes);
        }
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian `u64` at `addr` (cached store).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        // Single-line fast path mirroring `read_u64`; pending NT data
        // falls back to the general path for the drain-before-store rule.
        let offset = (addr % LINE_SIZE) as usize;
        if offset + 8 <= LINE_SIZE as usize && self.wc_pending.is_empty() {
            self.check(addr, 8);
            let meta = self.cache.store_fast(addr);
            self.elapsed += meta.latency;
            if meta.writebacks > 0 {
                Self::persist_lines(
                    &mut self.durable,
                    &mut self.overlay,
                    self.cache.last_writebacks(),
                );
            }
            let line = LineAddr::containing(addr);
            let durable = &self.durable;
            let buf = self.overlay.get_mut_or_insert_with(line.index(), || {
                let mut fresh = [0u8; LINE_SIZE as usize];
                let start = line.first_byte() as usize;
                let end = (start + LINE_SIZE as usize).min(durable.len());
                fresh[..end - start].copy_from_slice(&durable[start..end]);
                fresh
            });
            buf[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write(addr, &value.to_le_bytes());
    }

    /// Issues a non-temporal store: bypasses the cache through
    /// write-combining buffers. The data is durable only after the next
    /// [`PersistentMemory::sfence`]. Any conflicting dirty cache lines
    /// are written back first (coherence), exactly as on x86.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn ntstore(&mut self, addr: u64, data: &[u8]) {
        self.ntstore_entry(addr, WcData::new(data));
    }

    /// Non-temporal store of a little-endian `u64` (a log word: the
    /// payload is built in place, with no slice copy).
    pub fn ntstore_u64(&mut self, addr: u64, value: u64) {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&value.to_le_bytes());
        self.ntstore_entry(addr, WcData::Inline { len: 8, bytes });
    }

    fn ntstore_entry(&mut self, addr: u64, data: WcData) {
        let len = data.bytes().len();
        self.check(addr, len);
        let meta = self.cache.ntstore_fast(addr, len as u64);
        self.elapsed += meta.latency;
        if meta.writebacks > 0 {
            Self::persist_lines(
                &mut self.durable,
                &mut self.overlay,
                self.cache.last_writebacks(),
            );
        }
        self.wc_pending.push((addr, data));
    }

    /// Store fence: drains the write-combining buffers, making every
    /// pending non-temporal store durable, in issue order.
    pub fn sfence(&mut self) {
        let latency = self.cache.sfence_fast();
        self.elapsed += latency;
        let durable = &mut self.durable;
        for (addr, data) in &self.wc_pending {
            let bytes = data.bytes();
            let start = *addr as usize;
            durable[start..start + bytes.len()].copy_from_slice(bytes);
        }
        self.wc_pending.clear();
    }

    /// `clflush`es every line overlapping `[addr, addr + len)`, making
    /// their contents durable.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn clflush_range(&mut self, addr: u64, len: u64) {
        self.check(addr, len as usize);
        if len != 0 && addr % LINE_SIZE + len <= LINE_SIZE {
            // One line: the common per-line flush of the commit paths.
            let r = self.cache.clflush(addr);
            self.elapsed += r.latency;
            if r.wrote_back {
                self.persist_line(LineAddr::containing(addr));
            }
            return;
        }
        self.elapsed += self.cache.clflush_span(addr, len);
        Self::persist_lines(
            &mut self.durable,
            &mut self.overlay,
            self.cache.last_writebacks(),
        );
    }

    /// The flush-on-fail save path: `wbinvd` plus a fence, making the
    /// entire cached state durable. Returns the simulated flush latency.
    pub fn flush_all(&mut self) -> Nanos {
        let before = self.elapsed;
        let r = self.cache.wbinvd();
        self.elapsed += r.latency;
        self.persist_writebacks(&r.writebacks);
        self.sfence();
        // Anything left in the overlay map would be a bookkeeping bug.
        debug_assert!(self.overlay.is_empty(), "overlay lines survived wbinvd");
        self.elapsed - before
    }

    /// Bytes currently dirty in cache (lost if power fails without a
    /// flush-on-fail save).
    #[must_use]
    pub fn dirty_bytes(&self) -> ByteSize {
        self.cache.dirty_bytes()
    }

    /// Models a power failure. With `flush_on_fail` the save path runs
    /// first and nothing is lost; without it, dirty cache lines and
    /// unfenced non-temporal stores vanish. Returns the durable image.
    #[must_use]
    pub fn crash(mut self, flush_on_fail: bool) -> Vec<u8> {
        if flush_on_fail {
            self.flush_all();
        }
        self.durable
    }

    /// Rebuilds a memory from a durable image (the power-on path: cold
    /// caches, empty overlay).
    #[must_use]
    pub fn from_image(image: Vec<u8>, profile: CpuProfile) -> Self {
        PersistentMemory {
            durable: image,
            overlay: LineTable::new(),
            wc_pending: Vec::new(),
            cache: CacheHierarchy::new(profile),
            elapsed: Nanos::ZERO,
        }
    }

    /// Direct view of the durable bytes (test and recovery support; does
    /// not model an access).
    #[must_use]
    pub fn durable_bytes(&self) -> &[u8] {
        &self.durable
    }

    /// Durably zeroes `[addr, addr + len)`, dropping any overlay lines in
    /// the range. Used by the boot/recovery path to neutralise the log
    /// area (so stale torn-bit polarities can never masquerade as live
    /// records); charges a streaming write at memory bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn scrub(&mut self, addr: u64, len: u64) {
        self.check(addr, len as usize);
        self.durable[addr as usize..(addr + len) as usize].fill(0);
        if len > 0 {
            self.overlay
                .remove_range(addr / LINE_SIZE, (addr + len - 1) / LINE_SIZE + 1);
        }
        self.elapsed += self.cache.clflush_span(addr, len);
        self.wc_pending.retain(|(a, data)| {
            let end = *a + data.bytes().len() as u64;
            end <= addr || *a >= addr + len
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PersistentMemory {
        PersistentMemory::new(ByteSize::mib(1))
    }

    #[test]
    fn read_your_own_write_through_cache() {
        let mut m = mem();
        m.write(100, b"cached data");
        let mut buf = [0u8; 11];
        m.read(100, &mut buf);
        assert_eq!(&buf, b"cached data");
        // But the durable view is still zero.
        assert_eq!(&m.durable_bytes()[100..111], &[0u8; 11]);
    }

    #[test]
    fn crash_without_flush_loses_cached_stores() {
        let mut m = mem();
        m.write_u64(256, 0xdead_beef);
        let image = m.crash(false);
        assert_eq!(u64::from_le_bytes(image[256..264].try_into().unwrap()), 0);
    }

    #[test]
    fn crash_with_flush_on_fail_preserves_everything() {
        let mut m = mem();
        m.write_u64(256, 0xdead_beef);
        m.ntstore_u64(512, 0xfeed); // even unfenced NT stores are saved
        let image = m.crash(true);
        assert_eq!(
            u64::from_le_bytes(image[256..264].try_into().unwrap()),
            0xdead_beef
        );
        assert_eq!(u64::from_le_bytes(image[512..520].try_into().unwrap()), 0xfeed);
    }

    #[test]
    fn clflush_makes_exactly_the_flushed_range_durable() {
        let mut m = mem();
        m.write_u64(0, 1);
        m.write_u64(4096, 2);
        m.clflush_range(0, 8);
        let image = m.crash(false);
        assert_eq!(u64::from_le_bytes(image[0..8].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(image[4096..4104].try_into().unwrap()), 0);
    }

    #[test]
    fn ntstore_requires_fence_for_durability() {
        let mut m = mem();
        m.ntstore_u64(64, 42);
        let unfenced = m.clone().crash(false);
        assert_eq!(u64::from_le_bytes(unfenced[64..72].try_into().unwrap()), 0);
        m.sfence();
        let fenced = m.crash(false);
        assert_eq!(u64::from_le_bytes(fenced[64..72].try_into().unwrap()), 42);
    }

    #[test]
    fn ntstore_to_dirty_line_preserves_cached_neighbours() {
        let mut m = mem();
        // Dirty the first 8 bytes of a line, then NT-store to bytes 8..16
        // of the same line: the coherence writeback must persist the
        // cached first half.
        m.write_u64(0, 7);
        m.ntstore_u64(8, 9);
        m.sfence();
        let image = m.crash(false);
        assert_eq!(u64::from_le_bytes(image[0..8].try_into().unwrap()), 7);
        assert_eq!(u64::from_le_bytes(image[8..16].try_into().unwrap()), 9);
    }

    #[test]
    fn eviction_writebacks_reach_durable_view() {
        // A 4 MiB working set on the Atom's 1 MiB of cache: most lines
        // must be written back and become durable.
        let mut m =
            PersistentMemory::with_profile(ByteSize::mib(4), CpuProfile::intel_d510());
        let capacity = m.capacity().as_u64();
        let mut addr = 0u64;
        let mut i = 0u64;
        while addr < capacity {
            m.write_u64(addr, i + 1);
            addr += 64;
            i += 1;
        }
        let image = m.crash(false);
        let persisted = (0..i)
            .filter(|k| {
                let a = (k * 64) as usize;
                u64::from_le_bytes(image[a..a + 8].try_into().unwrap()) == k + 1
            })
            .count() as u64;
        assert!(persisted > 0, "evictions must persist lines");
        assert!(persisted < i, "cache-resident lines must be lost");
    }

    #[test]
    fn flush_all_charges_wbinvd_scale_latency() {
        let mut m = mem();
        for k in 0..1000u64 {
            m.write_u64(k * 64, k);
        }
        let t = m.flush_all();
        assert!(t.as_millis_f64() > 0.5, "wbinvd walk dominates: {t}");
        assert_eq!(m.dirty_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn from_image_round_trips() {
        let mut m = mem();
        m.write_u64(8, 77);
        let image = m.crash(true);
        let mut m2 = PersistentMemory::from_image(image, CpuProfile::intel_c5528());
        assert_eq!(m2.read_u64(8), 77);
    }

    #[test]
    fn elapsed_accumulates_and_charge_adds() {
        let mut m = mem();
        let t0 = m.elapsed();
        m.write_u64(0, 1);
        assert!(m.elapsed() > t0);
        let t1 = m.elapsed();
        m.charge(Nanos::new(100));
        assert_eq!(m.elapsed(), t1 + Nanos::new(100));
    }

    #[test]
    fn rebate_credits_back_and_saturates() {
        let mut m = mem();
        m.charge(Nanos::new(100));
        let t = m.elapsed();
        m.rebate(Nanos::new(40));
        assert_eq!(m.elapsed(), t - Nanos::new(40));
        m.rebate(Nanos::new(1_000_000_000));
        assert_eq!(m.elapsed(), Nanos::ZERO, "rebate saturates at zero");
    }

    #[test]
    #[should_panic(expected = "exceeds region capacity")]
    fn out_of_range_access_panics() {
        let mut m = mem();
        m.write_u64(ByteSize::mib(1).as_u64() - 4, 1);
    }
}
