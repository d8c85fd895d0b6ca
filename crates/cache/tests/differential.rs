//! Differential property tests: the packed fast-path cache level
//! (`SetAssocCache`) against the retained naive reference
//! (`RefSetAssocCache`), driven with identical operation traces.
//!
//! Both implementations claim the same observable semantics — true-LRU
//! replacement with unique stamps, per-line dirty bits, address-sorted
//! drains — so every probe, eviction, dirty count and writeback set
//! must agree exactly, on every prefix of every trace.
//!
//! Seeds come from the shared harness (`WSP_DET_SEED` / `WSP_DET_CASES`
//! override); a fixed regression corpus pins the traces that exercised
//! the trickiest interleavings while this suite was written.

use wsp_cache::{CacheConfig, LineAddr, RefSetAssocCache, SetAssocCache, LINE_SIZE};
use wsp_det::{gen, Forall, Gen};
use wsp_units::{ByteSize, Nanos};

/// Operations over a cache level, as the hierarchy would issue them.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Touch; on miss, install (write-allocate) — the access path.
    Access { line: u64, write: bool },
    /// Fused touch-or-install — the hierarchy's promote/evict path
    /// (`install_or_touch`).
    Promote { line: u64, dirty: bool },
    /// Invalidate a line (`clflush` / back-invalidation).
    Invalidate { line: u64 },
    /// Clear a dirty bit in place (`clwb`).
    Clean { line: u64 },
    /// Drain the level (`wbinvd` walk) and compare the writeback sets.
    Drain,
}

/// Line universe: 4× the capacity of the largest geometry under test, so
/// traces force evictions, re-installs and set conflicts constantly.
const LINES: u64 = 64;

fn op() -> Gen<Op> {
    gen::weighted(vec![
        (
            8,
            gen::pair(gen::in_range(0..LINES), gen::any::<bool>())
                .map(|(line, write)| Op::Access { line, write }),
        ),
        (
            4,
            gen::pair(gen::in_range(0..LINES), gen::any::<bool>())
                .map(|(line, dirty)| Op::Promote { line, dirty }),
        ),
        (
            2,
            gen::in_range(0..LINES).map(|line| Op::Invalidate { line }),
        ),
        (2, gen::in_range(0..LINES).map(|line| Op::Clean { line })),
        (1, gen::constant(Op::Drain)),
    ])
}

/// Geometries small enough that every structural case (free way, LRU
/// eviction, bitmask holes, non-power-of-two associativity) is hit
/// within a short trace.
fn geometries() -> Vec<CacheConfig> {
    vec![
        // 2 sets × 2 ways.
        CacheConfig::new("2x2", ByteSize::new(2 * 2 * LINE_SIZE), 2, Nanos::new(1)),
        // 4 sets × 3 ways: associativity is not a power of two.
        CacheConfig::new("4x3", ByteSize::new(4 * 3 * LINE_SIZE), 3, Nanos::new(1)),
        // 1 set × 8 ways: fully associative.
        CacheConfig::new("1x8", ByteSize::new(8 * LINE_SIZE), 8, Nanos::new(1)),
    ]
}

/// Applies one op to both implementations and asserts every observable
/// outcome matches.
fn step(packed: &mut SetAssocCache, reference: &mut RefSetAssocCache, op: Op, at: usize) {
    match op {
        Op::Access { line, write } => {
            let line = LineAddr::from_index(line);
            let hit_p = packed.touch(line, write);
            let hit_r = reference.touch(line, write);
            assert_eq!(hit_p, hit_r, "hit at op {at} for {line}");
            if !hit_p {
                let ev_p = packed.install(line, write);
                let ev_r = reference.install(line, write);
                assert_eq!(ev_p, ev_r, "eviction at op {at} for {line}");
            }
        }
        Op::Promote { line, dirty } => {
            let line = LineAddr::from_index(line);
            // The reference spells the fused operation out as the probe
            // sequence it replaces.
            let out_p = packed.install_or_touch(line, dirty);
            let out_r = if reference.contains(line) {
                reference.touch(line, dirty);
                None
            } else {
                Some(reference.install(line, dirty))
            };
            assert_eq!(out_p, out_r, "promote at op {at} for {line}");
        }
        Op::Invalidate { line } => {
            let line = LineAddr::from_index(line);
            assert_eq!(
                packed.invalidate(line),
                reference.invalidate(line),
                "invalidate at op {at} for {line}"
            );
        }
        Op::Clean { line } => {
            let line = LineAddr::from_index(line);
            assert_eq!(
                packed.clean(line),
                reference.clean(line),
                "clean at op {at} for {line}"
            );
        }
        Op::Drain => {
            assert_eq!(
                packed.drain_all(),
                reference.drain_all(),
                "drain writeback set at op {at}"
            );
        }
    }
    // Aggregate state must agree after every single operation.
    assert_eq!(
        packed.resident_lines(),
        reference.resident_lines(),
        "resident count after op {at}"
    );
    assert_eq!(
        packed.dirty_lines(),
        reference.dirty_lines(),
        "dirty count after op {at}"
    );
}

fn check_trace(config: &CacheConfig, ops: &[Op]) {
    let mut packed = SetAssocCache::new(config.clone());
    let mut reference = RefSetAssocCache::new(config.clone());
    for (at, &op) in ops.iter().enumerate() {
        step(&mut packed, &mut reference, op, at);
    }
    // Full dirty-set and final-drain agreement.
    let dirty_p: Vec<LineAddr> = packed.iter_dirty().collect();
    let dirty_r: Vec<LineAddr> = reference.iter_dirty().collect();
    assert_eq!(dirty_p, dirty_r, "final dirty set ({})", config.name);
    assert_eq!(packed.dirty_bytes(), reference.dirty_bytes());
    assert_eq!(
        packed.drain_all(),
        reference.drain_all(),
        "final drain ({})",
        config.name
    );
}

/// Traces that pinned real edge cases during development: repeated
/// accesses to one line, eviction storms on a single set, drains
/// interleaved with cleans, and immediate reuse of invalidated ways.
fn regression_corpus() -> Vec<Vec<Op>> {
    vec![
        // Same line over and over: stamp updates without evictions.
        vec![
            Op::Access { line: 0, write: true },
            Op::Access { line: 0, write: false },
            Op::Access { line: 0, write: true },
            Op::Clean { line: 0 },
            Op::Access { line: 0, write: false },
            Op::Drain,
        ],
        // Single-set eviction storm (every even line maps to set 0 of
        // the 2x2 geometry).
        (0..16)
            .map(|i| Op::Access { line: i * 2, write: i % 3 == 0 })
            .collect(),
        // Invalidate opens a hole; the next install must fill it and the
        // LRU order must survive.
        vec![
            Op::Access { line: 1, write: true },
            Op::Access { line: 3, write: false },
            Op::Invalidate { line: 1 },
            Op::Access { line: 5, write: true },
            Op::Access { line: 7, write: true },
            Op::Access { line: 3, write: false },
            Op::Access { line: 9, write: false },
            Op::Drain,
            Op::Access { line: 1, write: true },
        ],
        // Fused promote: resident → touch (dirty set in place), absent →
        // install, interleaved with invalidation holes.
        vec![
            Op::Promote { line: 0, dirty: true },
            Op::Promote { line: 0, dirty: false },
            Op::Access { line: 2, write: false },
            Op::Promote { line: 4, dirty: false },
            Op::Promote { line: 6, dirty: true },
            Op::Invalidate { line: 0 },
            Op::Promote { line: 0, dirty: false },
            Op::Drain,
        ],
        // Clean/drain interleaving.
        vec![
            Op::Access { line: 4, write: true },
            Op::Access { line: 6, write: true },
            Op::Clean { line: 4 },
            Op::Drain,
            Op::Access { line: 4, write: true },
            Op::Clean { line: 6 },
            Op::Drain,
        ],
    ]
}

#[test]
fn packed_level_matches_reference_on_regression_corpus() {
    for config in geometries() {
        for ops in regression_corpus() {
            check_trace(&config, &ops);
        }
    }
}

#[test]
fn packed_level_matches_reference_on_random_traces() {
    for config in geometries() {
        let cfg = config.clone();
        Forall::new(gen::vec_of(op(), 1..400usize))
            .cases(64)
            .check(move |ops| check_trace(&cfg, ops));
    }
}

#[test]
fn packed_level_matches_reference_on_long_trace() {
    // One long trace per geometry: LRU stamp wrap-around behaviour and
    // sustained eviction pressure.
    for config in geometries() {
        let cfg = config.clone();
        Forall::new(gen::vec_of(op(), 2_000..3_000usize))
            .cases(4)
            .check(move |ops| check_trace(&cfg, ops));
    }
}

// ---- the whole hierarchy -----------------------------------------------
//
// `CacheHierarchy` layers shortcuts over its levels: a repeat-line memo,
// known-absent probe skips, precomputed instruction and bus costs, a
// hashed write-combining set. `RefHierarchy` below has none of them. It
// stacks naive `RefSetAssocCache` levels, walks every level on every
// operation, and derives every cost from the `CpuProfile` on each call,
// so any shortcut that changes a latency, a hit level, a writeback or a
// counter fails the lockstep comparison.

use wsp_cache::{CacheHierarchy, CacheStats, CpuProfile, Eviction};

/// The hierarchy's specification, spelled out with no memo and no
/// derived constants.
struct RefHierarchy {
    profile: CpuProfile,
    levels: Vec<RefSetAssocCache>,
    stats: CacheStats,
    pending_wc: u64,
    pending_wc_lines: Vec<LineAddr>,
}

impl RefHierarchy {
    fn new(profile: CpuProfile) -> Self {
        let levels = profile
            .levels
            .iter()
            .cloned()
            .map(RefSetAssocCache::new)
            .collect();
        RefHierarchy {
            profile,
            levels,
            stats: CacheStats::default(),
            pending_wc: 0,
            pending_wc_lines: Vec::new(),
        }
    }

    fn record_hit(&mut self, level: usize) {
        if self.stats.hits.len() <= level {
            self.stats.hits.resize(level + 1, 0);
        }
        self.stats.hits[level] += 1;
    }

    /// A load or store: `(latency, hit level, memory writebacks)`.
    fn access(&mut self, addr: u64, write: bool) -> (Nanos, Option<usize>, Vec<LineAddr>) {
        if write {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        let line = LineAddr::containing(addr);
        let mut wb = Vec::new();
        let mut latency = Nanos::ZERO;
        for i in 0..self.levels.len() {
            latency += self.levels[i].config().hit_latency;
            if self.levels[i].touch(line, write && i == 0) {
                self.record_hit(i);
                for j in (0..i).rev() {
                    self.install(j, line, write && j == 0, &mut latency, &mut wb);
                }
                return (latency, Some(i), wb);
            }
        }
        self.stats.misses += 1;
        latency += self.profile.bus.line_fill();
        for j in (0..self.levels.len()).rev() {
            self.install(j, line, write && j == 0, &mut latency, &mut wb);
        }
        (latency, None, wb)
    }

    /// Installs (or, if resident, touches) `line` at `level` and
    /// cascades the victim outward.
    fn install(
        &mut self,
        level: usize,
        line: LineAddr,
        dirty: bool,
        latency: &mut Nanos,
        wb: &mut Vec<LineAddr>,
    ) {
        if self.levels[level].contains(line) {
            self.levels[level].touch(line, dirty);
            return;
        }
        let last = self.levels.len() - 1;
        match self.levels[level].install(line, dirty) {
            Eviction::None => {}
            Eviction::Clean(victim) if level == last => {
                self.back_invalidate(victim, false, latency, wb);
            }
            Eviction::Clean(_) => {}
            Eviction::Dirty(victim) if level < last => {
                self.install(level + 1, victim, true, latency, wb);
            }
            Eviction::Dirty(victim) => self.back_invalidate(victim, true, latency, wb),
        }
    }

    fn back_invalidate(
        &mut self,
        victim: LineAddr,
        dirty_at_llc: bool,
        latency: &mut Nanos,
        wb: &mut Vec<LineAddr>,
    ) {
        let last = self.levels.len() - 1;
        let mut dirty = dirty_at_llc;
        for level in &mut self.levels[..last] {
            dirty |= level.invalidate(victim).unwrap_or(false);
        }
        if dirty {
            self.stats.writebacks += 1;
            *latency += self.profile.bus.line_writeback();
            wb.push(victim);
        }
    }

    /// `clflush` (`keep = false`) or `clwb` (`keep = true`).
    fn flush(&mut self, addr: u64, keep: bool) -> (Nanos, bool) {
        let line = LineAddr::containing(addr);
        let mut dirty = false;
        for level in &mut self.levels {
            dirty |= if keep {
                level.clean(line)
            } else {
                level.invalidate(line).unwrap_or(false)
            };
        }
        if keep {
            self.stats.clwbs += 1;
        } else {
            self.stats.clflushes += 1;
        }
        let mut latency = Nanos::from_secs_f64(self.profile.clflush_ns_per_line * 1e-9);
        if dirty {
            self.stats.writebacks += 1;
            latency += self.profile.bus.line_writeback();
        }
        (latency, dirty)
    }

    fn ntstore(&mut self, addr: u64, len: u64) -> (Nanos, Vec<LineAddr>) {
        self.stats.ntstores += 1;
        let mut latency =
            Nanos::from_secs_f64(self.profile.ntstore_ns_per_8b * (len.max(1) as f64 / 8.0) * 1e-9);
        let mut wb = Vec::new();
        for line in LineAddr::span(addr, len) {
            let mut dirty = false;
            for level in &mut self.levels {
                dirty |= level.invalidate(line).unwrap_or(false);
            }
            if dirty {
                self.stats.writebacks += 1;
                latency += self.profile.bus.line_writeback();
                wb.push(line);
            }
            if !self.pending_wc_lines.contains(&line) {
                self.pending_wc_lines.push(line);
            }
        }
        self.pending_wc += len;
        (latency, wb)
    }

    fn sfence(&mut self) -> (Nanos, Vec<LineAddr>) {
        self.stats.fences += 1;
        let stream = self
            .profile
            .bus
            .stream_write(ByteSize::new(self.pending_wc));
        let lines = std::mem::take(&mut self.pending_wc_lines);
        let latency = self.profile.fence_cost
            + self.profile.bus.line_writeback() * lines.len() as u64
            + stream;
        self.pending_wc = 0;
        (latency, lines)
    }

    fn wbinvd(&mut self) -> (Nanos, Vec<LineAddr>) {
        self.stats.wbinvds += 1;
        let mut slots = 0u64;
        let mut dirty = Vec::new();
        for level in &mut self.levels {
            slots += level.config().total_lines();
            dirty.extend(level.drain_all());
        }
        dirty.sort_unstable();
        dirty.dedup();
        self.stats.writebacks += dirty.len() as u64;
        let scan = Nanos::from_secs_f64(self.profile.wbinvd_scan_ns_per_line * slots as f64 * 1e-9);
        let stream = self
            .profile
            .bus
            .stream_write(ByteSize::new(dirty.len() as u64 * LINE_SIZE));
        (self.profile.wbinvd_base + scan.max(stream), dirty)
    }
}

/// One hierarchy-level operation.
#[derive(Debug, Clone, Copy)]
enum HOp {
    Load(u64),
    Store(u64),
    /// One NT store of `len` bytes at an arbitrary address.
    NtStore(u64, u64),
    /// A run of 8-byte NT stores to consecutive words of one line — the
    /// shape of a torn-log record append.
    NtRun(u64, u64),
    Clflush(u64),
    /// `clflush` over a byte range, issued as one span.
    ClflushSpan(u64, u64),
    Clwb(u64),
    Sfence,
    Wbinvd,
}

/// Lines `k << 20 | set` land in set `set` of every level of every
/// profile (all have at most 2^20 sets), so a 64 × 4 line universe
/// thrashes four sets at every level: L1 and L2 evictions, dirty
/// cascades, and last-level back-invalidations all happen within a few
/// hundred operations.
fn haddr() -> Gen<u64> {
    gen::triple(
        gen::in_range(0..64u64),
        gen::in_range(0..4u64),
        gen::in_range(0..64u64),
    )
    .map(|(k, set, byte)| (((k << 20) | set) * LINE_SIZE) + byte)
}

fn hop() -> Gen<HOp> {
    gen::weighted(vec![
        (6, haddr().map(HOp::Load)),
        (6, haddr().map(HOp::Store)),
        (
            3,
            gen::pair(haddr(), gen::in_range(1..200u64)).map(|(a, len)| HOp::NtStore(a, len)),
        ),
        (
            3,
            gen::pair(haddr(), gen::in_range(1..9u64))
                .map(|(a, words)| HOp::NtRun(a / LINE_SIZE * LINE_SIZE, words)),
        ),
        (2, haddr().map(HOp::Clflush)),
        (
            1,
            gen::pair(haddr(), gen::in_range(0..400u64)).map(|(a, len)| HOp::ClflushSpan(a, len)),
        ),
        (1, haddr().map(HOp::Clwb)),
        (2, gen::constant(HOp::Sfence)),
        (1, gen::constant(HOp::Wbinvd)),
    ])
}

/// The four paper testbeds, a small two-level part whose caches thrash
/// on short traces, and one SCM variant (asymmetric write costs).
fn hierarchy_profiles() -> Vec<CpuProfile> {
    let mut small = CpuProfile::intel_d510();
    small.name = "small test part".to_owned();
    small.levels = vec![
        CacheConfig::new("L1", ByteSize::new(4 * 2 * LINE_SIZE), 2, Nanos::new(1)),
        CacheConfig::new("L2", ByteSize::new(4 * 4 * LINE_SIZE), 4, Nanos::new(7)),
    ];
    let mut profiles = CpuProfile::paper_testbeds();
    profiles.push(small);
    profiles.push(CpuProfile::amd_4180().with_scm(20.0));
    profiles
}

fn check_hierarchy_trace(profile: &CpuProfile, ops: &[HOp]) {
    let mut fast = CacheHierarchy::new(profile.clone());
    let mut spec = RefHierarchy::new(profile.clone());
    for (at, &op) in ops.iter().enumerate() {
        let ctx = || format!("{} op {at} {op:?}", profile.name);
        match op {
            HOp::Load(addr) | HOp::Store(addr) => {
                let write = matches!(op, HOp::Store(_));
                let got = if write {
                    fast.store_fast(addr)
                } else {
                    fast.load_fast(addr)
                };
                let (latency, level, wb) = spec.access(addr, write);
                assert_eq!(got.latency, latency, "latency, {}", ctx());
                assert_eq!(got.hit_level, level, "hit level, {}", ctx());
                assert_eq!(
                    fast.last_writebacks(),
                    wb.as_slice(),
                    "writebacks, {}",
                    ctx()
                );
            }
            HOp::NtStore(addr, len) => {
                let got = fast.ntstore(addr, len);
                let (latency, wb) = spec.ntstore(addr, len);
                assert_eq!(got.latency, latency, "latency, {}", ctx());
                assert_eq!(got.hit_level, None, "hit level, {}", ctx());
                assert_eq!(got.writebacks, wb, "writebacks, {}", ctx());
            }
            HOp::NtRun(line_base, words) => {
                for w in 0..words {
                    let got = fast.ntstore_fast(line_base + 8 * w, 8);
                    let (latency, wb) = spec.ntstore(line_base + 8 * w, 8);
                    assert_eq!(got.latency, latency, "latency word {w}, {}", ctx());
                    assert_eq!(
                        fast.last_writebacks(),
                        wb.as_slice(),
                        "writebacks, {}",
                        ctx()
                    );
                }
            }
            HOp::Clflush(addr) | HOp::Clwb(addr) => {
                let keep = matches!(op, HOp::Clwb(_));
                let got = if keep {
                    fast.clwb(addr)
                } else {
                    fast.clflush(addr)
                };
                let (latency, wrote_back) = spec.flush(addr, keep);
                assert_eq!(got.latency, latency, "latency, {}", ctx());
                assert_eq!(got.wrote_back, wrote_back, "writeback, {}", ctx());
            }
            HOp::ClflushSpan(addr, len) => {
                let latency = fast.clflush_span(addr, len);
                let mut want = Nanos::ZERO;
                let mut wb = Vec::new();
                for line in LineAddr::span(addr, len) {
                    let (l, dirty) = spec.flush(line.first_byte(), false);
                    want += l;
                    if dirty {
                        wb.push(line);
                    }
                }
                assert_eq!(latency, want, "latency, {}", ctx());
                assert_eq!(
                    fast.last_writebacks(),
                    wb.as_slice(),
                    "writebacks, {}",
                    ctx()
                );
            }
            HOp::Sfence => {
                let lines_pending = fast.pending_wc_line_count();
                assert_eq!(
                    lines_pending,
                    spec.pending_wc_lines.len(),
                    "pending, {}",
                    ctx()
                );
                let got = fast.sfence();
                assert_eq!(got, spec.sfence(), "fence, {}", ctx());
            }
            HOp::Wbinvd => {
                let got = fast.wbinvd();
                let (latency, wb) = spec.wbinvd();
                assert_eq!(got.latency, latency, "latency, {}", ctx());
                assert_eq!(got.writebacks, wb, "writebacks, {}", ctx());
            }
        }
        assert_eq!(fast.stats(), &spec.stats, "stats, {}", ctx());
        assert_eq!(
            fast.pending_wc_bytes().as_u64(),
            spec.pending_wc,
            "wc bytes, {}",
            ctx()
        );
    }
    for (i, (f, r)) in fast.levels().iter().zip(&spec.levels).enumerate() {
        assert_eq!(
            f.resident_lines(),
            r.resident_lines(),
            "{} L{i} resident",
            profile.name
        );
        let dirty: Vec<LineAddr> = f.iter_dirty().collect();
        let want: Vec<LineAddr> = r.iter_dirty().collect();
        assert_eq!(dirty, want, "{} L{i} dirty set", profile.name);
    }
    assert_eq!(fast.sfence(), spec.sfence(), "{} final fence", profile.name);
    assert_eq!(
        fast.wbinvd().writebacks,
        spec.wbinvd().1,
        "{} final wbinvd",
        profile.name
    );
}

#[test]
fn hierarchy_matches_reference_on_random_traces() {
    for profile in hierarchy_profiles() {
        Forall::new(gen::vec_of(hop(), 1..600usize))
            .cases(24)
            .check(move |ops| check_hierarchy_trace(&profile, ops));
    }
}

#[test]
fn hierarchy_matches_reference_on_nt_store_runs() {
    // Log-append shape: runs of NT stores into one line interleaved with
    // loads and stores of that same line and its set-mates — the case a
    // known-absent shortcut must get right.
    let line = |k: u64| (k << 20) * LINE_SIZE;
    let mut ops = Vec::new();
    for round in 0..40u64 {
        ops.push(HOp::NtRun(line(round % 3), 1 + round % 8));
        ops.push(HOp::Store(line(round % 3) + 8 * (round % 8)));
        ops.push(HOp::NtRun(line(round % 3), 4));
        ops.push(HOp::Load(line((round + 1) % 3)));
        ops.push(HOp::NtStore(line(round % 5) + 60, 8));
        if round % 4 == 3 {
            ops.push(HOp::Sfence);
        }
        if round % 13 == 12 {
            ops.push(HOp::Wbinvd);
        }
        ops.push(HOp::Clflush(line(round % 3)));
        ops.push(HOp::NtRun(line(round % 3), 2));
        if round % 7 == 6 {
            // Longer than every level's set count: the block-walk form.
            ops.push(HOp::ClflushSpan(0, 16_384 * LINE_SIZE));
        }
    }
    for profile in hierarchy_profiles() {
        check_hierarchy_trace(&profile, &ops);
    }
}
