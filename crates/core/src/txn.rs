//! Cross-shard transactions: a two-phase epoch seal over sharded
//! persistent heaps.
//!
//! A single heap's durability point is its epoch seal (PR 5): records,
//! fence, one covering marker. A transaction spanning shards needs the
//! same shape *across* heaps, and this module provides it as classic
//! presumed-abort two-phase commit built from the seal machinery:
//!
//! 1. **Prepare** — each participant shard coalesces the transaction's
//!    write set like an epoch seal (one log record per address, one
//!    clflush per line) and covers it with a fenced
//!    [`wsp_pheap::RecordKind::Prepare`] marker. From that marker on the
//!    shard is bound by the coordinator's decision.
//! 2. **Decide** — the coordinator appends one fenced
//!    [`wsp_pheap::RecordKind::GroupDecision`] record naming the global
//!    txid to its own durable torn-bit log. This single store is the
//!    transaction's commit point.
//! 3. **Commit** — each participant writes a fenced local commit marker
//!    (and the redo flavour applies its buffered writes in place), so
//!    later recoveries never consult the coordinator again.
//!
//! **Presumed abort**: a shard that recovers with a durable PREPARED
//! marker but no local decision is *in doubt* and asks the recovered
//! coordinator log; if the decision record is absent the transaction
//! aborts everywhere — safe because phase 2 starts only after every
//! participant's marker is durable. A shard that lost its image outright
//! cannot vote at all: [`resolve_cross_shard`] degrades it through the
//! recovery-ladder verdict types with the staleness quantified from the
//! cluster model, instead of failing the whole fleet.
//!
//! # Group-decided commit
//!
//! With the prepares rebated, the *decision record* — one fenced store
//! per transaction — is the dominant serial cost on the 2PC path. The
//! [`CoordinatorPool`] amortizes it exactly the way the epoch seal
//! amortizes local commits: coordinators buffer decided gtxids and seal
//! the whole batch with a single fenced group record, so N transactions
//! pay one decision fence. A pool of one coordinator with group size 1
//! is the per-transaction coordinator: every decision seals alone.
//! Multiple coordinators share that one decision log, stamped with
//! per-coordinator *generation numbers* packed into each group entry;
//! recovery replays the shared log and [`CoordinatorPool::attribute`]s
//! every decided gtxid back to the coordinator generation that sealed
//! it. Presumed abort extends to torn group records: any strict prefix
//! of the record's words recovers *no* member, so a group is decided
//! all-or-nothing.

use wsp_cluster::ClusterSpec;
use wsp_obs as obs;
use wsp_pheap::{
    pack_group_entry, CrashImage, HeapError, LogRecord, PersistentHeap, PersistentMemory, PmPtr,
    RecordKind, TornLog, TxnResolution, GROUP_ENTRY_GEN_MAX, GTXID_BASE,
};
use wsp_units::fasthash::{FastMap, FastSet};
use wsp_units::{ByteSize, Nanos};

use crate::error::WspError;
use crate::ladder::{LadderRung, RecoveryOutcome};

/// Coordinator decision-log layout inside its private region: one page
/// of header (the persistent tail pointer word), then the log area.
const DECISION_TAIL_ADDR: u64 = 8;
const DECISION_LOG_BASE: u64 = 4096;
const DECISION_LOG_CAP: ByteSize = ByteSize::kib(8);
const DECISION_REGION: ByteSize = ByteSize::kib(64);

/// Optional write-routing log (same region, after the decision log):
/// records every decided transaction's write set so a shard whose
/// NVRAM image was sacrificed can be rebuilt from an old back-end
/// checkpoint *plus* a replay of the cross-shard writes it voted for.
const ROUTING_TAIL_ADDR: u64 = 16;
const ROUTING_LOG_BASE: u64 = 16_384;
const ROUTING_LOG_CAP: ByteSize = ByteSize::kib(32);

/// Shard index is packed into the high bits of a routed record's
/// address word (heap offsets are far below 2^48).
const ROUTE_SHARD_SHIFT: u32 = 48;
const ROUTE_ADDR_MASK: u64 = (1 << ROUTE_SHARD_SHIFT) - 1;

/// A cross-shard transaction buffering writes per participant shard
/// until [`CoordinatorPool::submit`] runs the two-phase seal.
#[derive(Debug, Clone)]
pub struct CrossShardTxn {
    gtxid: u64,
    writes: Vec<Vec<(u64, u64)>>,
}

impl CrossShardTxn {
    /// The global transaction id ([`GTXID_BASE`]-offset namespace).
    #[must_use]
    pub fn gtxid(&self) -> u64 {
        self.gtxid
    }

    /// Stages a word write on `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for the shard count the
    /// transaction was begun with.
    pub fn stage(&mut self, shard: usize, addr: u64, value: u64) {
        self.writes[shard].push((addr, value));
    }

    /// Participant shards (non-empty write sets), ascending — the order
    /// both phases visit them in.
    #[must_use]
    pub fn participants(&self) -> Vec<usize> {
        (0..self.writes.len())
            .filter(|&s| !self.writes[s].is_empty())
            .collect()
    }

    /// The staged writes for `shard`.
    #[must_use]
    pub fn writes_for(&self, shard: usize) -> &[(u64, u64)] {
        &self.writes[shard]
    }

    fn short_id(&self) -> i64 {
        (self.gtxid - GTXID_BASE) as i64
    }
}

/// How a cross-shard transaction ended, as a workload reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Decision durable (or buffered into a group that seals before the
    /// run ends) and every participant holds its local commit marker.
    Committed,
    /// A prepare was refused before the decision; every already-prepared
    /// participant was rolled back.
    Aborted {
        /// The refusing shard's error.
        reason: String,
    },
}

/// Where a gtxid's coordinator index lives inside the id: gtxids issued
/// by a [`CoordinatorPool`] are `GTXID_BASE + (coordinator << 32) + seq`,
/// so the id itself names its issuer across crashes.
const POOL_COORD_SHIFT: u64 = 32;
const POOL_SEQ_MASK: u64 = (1 << POOL_COORD_SHIFT) - 1;

/// Decodes the issuing coordinator index from a pool-issued gtxid.
#[must_use]
pub fn coordinator_of(gtxid: u64) -> usize {
    ((gtxid - GTXID_BASE) >> POOL_COORD_SHIFT) as usize
}

/// The provenance of a decided gtxid after a pool recovery: which
/// coordinator sealed it, under which generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GtxidOrigin {
    /// Issuing coordinator index (decoded from the gtxid).
    pub coordinator: usize,
    /// The coordinator generation stamped into the sealed group entry.
    pub generation: u64,
}

/// How [`CoordinatorPool::submit`] left a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Prepared everywhere and the decision is buffered — *not yet
    /// durable*. A crash now presumes abort. The size/age trigger (or
    /// [`CoordinatorPool::drain`]) will seal it.
    Buffered,
    /// The submission tripped the group trigger: the whole buffered
    /// group sealed under one fence and ran phase 2.
    Committed {
        /// Decisions covered by the sealing record.
        group: usize,
    },
    /// A prepare was refused; every already-prepared participant was
    /// rolled back. Never buffered.
    Aborted {
        /// The refusing shard's error.
        reason: String,
    },
}

/// One decided-but-unsealed (or sealed-but-uncommitted) transaction
/// inside the pool.
#[derive(Debug, Clone)]
struct PendingDecision {
    coordinator: usize,
    generation: u64,
    gtxid: u64,
    participants: Vec<usize>,
    /// `(shard, addr, value)` for every write, kept only when the pool
    /// routes write sets (see [`CoordinatorPool::with_routing`]).
    routed: Vec<(usize, u64, u64)>,
    /// Owner's simulated clock when the decision was buffered — the
    /// numerator of `txn.decision_stall_time`.
    buffered_at: Nanos,
}

/// Volatile per-coordinator state inside the pool.
#[derive(Debug, Clone)]
struct CoordSlot {
    /// Stamped into every group entry this coordinator seals; bumped on
    /// recovery so replayed entries are attributable to the incarnation
    /// that wrote them.
    generation: u64,
    /// Next sequence number (low gtxid bits).
    next_seq: u64,
    /// Highest decided gtxid: the mark a restart must resume above.
    high: Option<u64>,
    /// This coordinator's simulated clock.
    clock: Nanos,
}

/// A pool of concurrent 2PC coordinators sharing one durable decision
/// log, with group-decided commit: decided gtxids buffer until a size
/// (or age) trigger seals them all under a *single* fenced
/// [`RecordKind::GroupDecision`] record — N transactions, one decision
/// fence. Concurrency is modeled on the simulated clock: each
/// coordinator owns a clock, shards and the shared log are resources
/// with availability times, the participants of one phase run
/// concurrently, and the pool's wall clock is the maximum coordinator
/// clock — so only the slowest coordinator in a group pays unrebated
/// time.
///
/// `CoordinatorPool::new(1, 1)` is the per-transaction coordinator:
/// one clock, and every decision sealed alone by its own fence.
/// [`resolve_cross_shard`] and [`recover_decisions`] read a pool's
/// crash image directly.
///
/// # Examples
///
/// ```
/// use wsp_core::{CoordinatorPool, SubmitOutcome};
/// use wsp_pheap::{HeapConfig, PersistentHeap};
/// use wsp_units::ByteSize;
///
/// let mut shards = vec![
///     PersistentHeap::create(ByteSize::kib(256), HeapConfig::FocUndo),
///     PersistentHeap::create(ByteSize::kib(256), HeapConfig::FocUndo),
/// ];
/// let mut cells = Vec::new();
/// for heap in &mut shards {
///     let mut tx = heap.begin();
///     let p = tx.alloc(8).unwrap();
///     tx.write_word(p, 100).unwrap();
///     tx.set_root(p).unwrap();
///     tx.commit().unwrap();
///     cells.push(p.offset());
/// }
///
/// // Two coordinators, groups of two decisions per fence.
/// let mut pool = CoordinatorPool::new(2, 2);
/// let mut a = pool.begin(0, shards.len());
/// a.stage(0, cells[0], 70);
/// a.stage(1, cells[1], 130);
/// assert_eq!(pool.submit(0, &mut shards, &a).unwrap(), SubmitOutcome::Buffered);
/// let mut b = pool.begin(1, shards.len());
/// b.stage(0, cells[0], 60);
/// assert_eq!(
///     pool.submit(1, &mut shards, &b).unwrap(),
///     SubmitOutcome::Committed { group: 2 },
/// );
/// ```
#[derive(Debug, Clone)]
pub struct CoordinatorPool {
    mem: PersistentMemory,
    log: TornLog,
    group_size: usize,
    group_age: Option<Nanos>,
    coords: Vec<CoordSlot>,
    /// Decided, buffered, not yet sealed: a crash loses all of these.
    pending: Vec<PendingDecision>,
    /// Sealed (decision durable) but phase 2 not yet run.
    sealed: Vec<PendingDecision>,
    /// Sealed decisions some participant may still ask for.
    unsettled: FastSet<u64>,
    /// Every durable decision, with the generation that sealed it.
    decided: FastMap<u64, u64>,
    /// Discrete-event availability of each shard (grown on demand).
    shard_free: Vec<Nanos>,
    /// Discrete-event availability of the shared decision log.
    log_free: Nanos,
    /// Highest decided gtxid of each coordinator past the pool's size,
    /// read from a recovered log and carried forward, so that a later,
    /// larger pool resumes those coordinators above their marks.
    foreign_marks: Vec<u64>,
    /// The write-routing log, when opened with
    /// [`CoordinatorPool::with_routing`].
    routing: Option<TornLog>,
}

impl CoordinatorPool {
    /// A pool of `coordinators` sharing one fresh decision log, sealing
    /// after every `group_size` buffered decisions.
    ///
    /// # Panics
    ///
    /// Panics when `coordinators` is 0 or above 256 (the gtxid packing
    /// bound), or `group_size` is 0.
    #[must_use]
    pub fn new(coordinators: usize, group_size: usize) -> Self {
        assert!(
            (1..=256).contains(&coordinators),
            "1..=256 coordinators fit the gtxid layout"
        );
        assert!(group_size > 0, "group size must be at least 1");
        let mut mem = PersistentMemory::new(DECISION_REGION);
        let log = TornLog::new(DECISION_LOG_BASE, DECISION_LOG_CAP, DECISION_TAIL_ADDR);
        log.initialize(&mut mem);
        CoordinatorPool {
            mem,
            log,
            group_size,
            group_age: None,
            coords: vec![
                CoordSlot {
                    generation: 1,
                    next_seq: 0,
                    high: None,
                    clock: Nanos::ZERO,
                };
                coordinators
            ],
            pending: Vec::new(),
            sealed: Vec::new(),
            unsettled: FastSet::default(),
            decided: FastMap::default(),
            shard_free: Vec::new(),
            log_free: Nanos::ZERO,
            foreign_marks: Vec::new(),
            routing: None,
        }
    }

    /// Adds the write-routing log: every sealed transaction's write set
    /// is appended to a second durable log, before its group record.
    /// Routing costs one append per write at decision time and buys the
    /// storm path its strongest guarantee: a shard sacrificed by the
    /// power domain's triage can be rebuilt from a *stale* back-end
    /// checkpoint and still end up holding every committed cross-shard
    /// write (see [`recover_routing`] and [`reapply_routed`]). Without
    /// it the pool writes nothing to the routing area.
    #[must_use]
    pub fn with_routing(mut self) -> Self {
        let routing = TornLog::new(ROUTING_LOG_BASE, ROUTING_LOG_CAP, ROUTING_TAIL_ADDR);
        routing.initialize(&mut self.mem);
        self.routing = Some(routing);
        self
    }

    /// Adds an age trigger: a submission also seals when the oldest
    /// buffered decision has waited at least `age` on the owner's clock,
    /// bounding decision latency when traffic is slow.
    #[must_use]
    pub fn with_group_age(mut self, age: Nanos) -> Self {
        self.group_age = Some(age);
        self
    }

    /// Number of coordinators in the pool.
    #[must_use]
    pub fn coordinators(&self) -> usize {
        self.coords.len()
    }

    /// Simulated time the shared decision log's durable operations have
    /// cost — the coordinator-path cost the group seal amortizes.
    #[must_use]
    pub fn elapsed(&self) -> Nanos {
        self.mem.elapsed()
    }

    /// The pool's wall clock: the slowest coordinator's clock. Work on
    /// different coordinators overlaps; only contention on a shard or
    /// the shared log serializes.
    #[must_use]
    pub fn wall(&self) -> Nanos {
        self.coords
            .iter()
            .map(|c| c.clock)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// One coordinator's simulated clock.
    #[must_use]
    pub fn clock(&self, coordinator: usize) -> Nanos {
        self.coords[coordinator].clock
    }

    /// Decisions buffered but not yet sealed (lost on a crash).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Opens a cross-shard transaction on `coordinator` over `shards`
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics when the coordinator's 32-bit sequence space is exhausted.
    pub fn begin(&mut self, coordinator: usize, shards: usize) -> CrossShardTxn {
        let slot = &mut self.coords[coordinator];
        assert!(slot.next_seq <= POOL_SEQ_MASK, "gtxid sequence exhausted");
        let gtxid = GTXID_BASE + ((coordinator as u64) << POOL_COORD_SHIFT) + slot.next_seq;
        slot.next_seq += 1;
        let txn = CrossShardTxn {
            gtxid,
            writes: vec![Vec::new(); shards],
        };
        obs::emit("txn", "begin", slot.clock, txn.short_id(), shards as i64);
        txn
    }

    /// Runs one shard-touching step on the event model: the step starts
    /// when both the coordinator and the shard are free and holds the
    /// shard until it ends. Returns the step's end time.
    fn run_on_shard(&mut self, coordinator: usize, shard: usize, duration: Nanos) -> Nanos {
        if self.shard_free.len() <= shard {
            self.shard_free.resize(shard + 1, Nanos::ZERO);
        }
        let start = self.coords[coordinator].clock.max(self.shard_free[shard]);
        let end = start + duration;
        self.shard_free[shard] = end;
        end
    }

    /// Phase 1 for every participant of `txn`, on `coordinator`'s clock.
    /// Participants run concurrently (the phase ends at the slowest
    /// one), but two transactions contending for the same shard
    /// serialize on it. Returns the refusing shard's reason when the
    /// transaction must abort, in which case every already-prepared
    /// participant was rolled back.
    ///
    /// # Errors
    ///
    /// Only on protocol misuse while rolling back prepared participants;
    /// prepare refusals are a normal `Ok(Some(reason))`.
    pub fn prepare(
        &mut self,
        coordinator: usize,
        heaps: &mut [PersistentHeap],
        txn: &CrossShardTxn,
    ) -> Result<Option<String>, HeapError> {
        self.prepare_on(coordinator, heaps, txn, &txn.participants())
    }

    /// [`prepare`](Self::prepare) over an already computed participant
    /// list.
    fn prepare_on(
        &mut self,
        coordinator: usize,
        heaps: &mut [PersistentHeap],
        txn: &CrossShardTxn,
        participants: &[usize],
    ) -> Result<Option<String>, HeapError> {
        let mut phase_end = self.coords[coordinator].clock;
        for (i, &shard) in participants.iter().enumerate() {
            match self.prepare_shard(coordinator, heaps, shard, txn) {
                Ok(end) => phase_end = phase_end.max(end),
                Err(refusal) => {
                    for &p in &participants[..i] {
                        let a0 = heaps[p].elapsed();
                        heaps[p].abort_distributed(txn.gtxid)?;
                        let end = self.run_on_shard(coordinator, p, heaps[p].elapsed() - a0);
                        phase_end = phase_end.max(end);
                    }
                    self.coords[coordinator].clock = phase_end;
                    obs::emit("txn", "abort", phase_end, txn.short_id(), 0);
                    obs::count(obs::Ctr::TxnAborts);
                    return Ok(Some(refusal.to_string()));
                }
            }
        }
        self.coords[coordinator].clock = phase_end;
        Ok(None)
    }

    /// Phase 1 on one participant: the durable PREPARED record for
    /// `txn` on `heaps[shard]`, run on `coordinator`'s clock. Returns
    /// the step's end. The coordinator's clock stays put: the
    /// participants of one phase run concurrently, and
    /// [`prepare`](Self::prepare) closes the phase at the slowest one.
    /// Driving the steps one by one lets a caller stop between them.
    ///
    /// # Errors
    ///
    /// Whatever [`PersistentHeap::prepare_distributed`] refuses with;
    /// the caller must then abort the already-prepared participants.
    pub fn prepare_shard(
        &mut self,
        coordinator: usize,
        heaps: &mut [PersistentHeap],
        shard: usize,
        txn: &CrossShardTxn,
    ) -> Result<Nanos, HeapError> {
        let h0 = heaps[shard].elapsed();
        heaps[shard].prepare_distributed(txn.gtxid, txn.writes_for(shard))?;
        let end = self.run_on_shard(coordinator, shard, heaps[shard].elapsed() - h0);
        obs::emit("txn", "prepare", end, shard as i64, txn.short_id());
        obs::count(obs::Ctr::TxnPrepares);
        Ok(end)
    }

    /// Phase 2 on one participant: the durable local commit marker for
    /// a sealed `gtxid` on `heaps[shard]`, run on `coordinator`'s clock.
    /// Returns the step's end; as for
    /// [`prepare_shard`](Self::prepare_shard), the coordinator's clock
    /// stays put. The decision stays sealed-but-uncompleted, so a caller
    /// that commits a participant by hand must not also run
    /// [`complete_sealed`](Self::complete_sealed) for it.
    ///
    /// # Errors
    ///
    /// [`HeapError::NoTransaction`] if `gtxid` was never prepared there.
    pub fn commit_shard(
        &mut self,
        coordinator: usize,
        heaps: &mut [PersistentHeap],
        shard: usize,
        gtxid: u64,
    ) -> Result<Nanos, HeapError> {
        let h0 = heaps[shard].elapsed();
        heaps[shard].commit_distributed(gtxid)?;
        let end = self.run_on_shard(coordinator, shard, heaps[shard].elapsed() - h0);
        obs::emit(
            "txn",
            "commit_shard",
            end,
            shard as i64,
            (gtxid - GTXID_BASE) as i64,
        );
        obs::count(obs::Ctr::TxnShardCommits);
        Ok(end)
    }

    /// Buffers `txn`'s commit decision on `coordinator`. The decision is
    /// *volatile* until a seal covers it: a crash before the covering
    /// group record fences resolves the transaction by presumed abort.
    pub fn buffer_decision(&mut self, coordinator: usize, txn: &CrossShardTxn) {
        self.buffer_on(coordinator, txn, txn.participants());
    }

    fn buffer_on(&mut self, coordinator: usize, txn: &CrossShardTxn, participants: Vec<usize>) {
        let routed = if self.routing.is_some() {
            participants
                .iter()
                .flat_map(|&shard| {
                    txn.writes_for(shard)
                        .iter()
                        .map(move |&(addr, value)| (shard, addr, value))
                })
                .collect()
        } else {
            Vec::new()
        };
        let slot = &self.coords[coordinator];
        self.pending.push(PendingDecision {
            coordinator,
            generation: slot.generation,
            gtxid: txn.gtxid,
            participants,
            routed,
            buffered_at: slot.clock,
        });
    }

    /// True when the buffered group should seal: the size trigger is
    /// met, or the age trigger (when configured) has expired on
    /// `coordinator`'s clock.
    #[must_use]
    pub fn should_seal(&self, coordinator: usize) -> bool {
        if self.pending.len() >= self.group_size {
            return true;
        }
        match (self.group_age, self.pending.first()) {
            (Some(age), Some(oldest)) => {
                self.coords[coordinator].clock >= oldest.buffered_at + age
            }
            _ => false,
        }
    }

    /// Seals every buffered decision under one fenced group record —
    /// the commit point for all of them at once. `sealer` pays the seal
    /// on its clock (serialized on the shared log); every member
    /// coordinator then waits for the seal before its phase 2, so only
    /// the slowest coordinator in the group pays unrebated time.
    /// Returns the number of decisions sealed (0 = no-op).
    ///
    /// # Panics
    ///
    /// Panics with "log full" when the decision log cannot hold the
    /// group record even after compaction (too many unsettled
    /// decisions). [`submit`](Self::submit) and [`drain`](Self::drain)
    /// report that case as [`HeapError::LogFull`] instead.
    pub fn seal_decisions(&mut self, sealer: usize) -> usize {
        self.try_seal(sealer, false)
            .unwrap_or_else(|e| panic!("log full: {e}"))
    }

    /// [`seal_decisions`](Self::seal_decisions), refusing with
    /// [`HeapError::LogFull`] when the log lacks room for the new group
    /// record and — with `settle_room` — the settle marker phase 2
    /// appends for each member, even after a compaction. A refusal
    /// leaves the pool as it was: the log compacts only when the group
    /// then fits.
    fn try_seal(&mut self, sealer: usize, settle_room: bool) -> Result<usize, HeapError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let group = self.pending.len() as u64;
        let needed = group + 1 + if settle_room { group } else { 0 };
        self.compact_decision_log(needed)?;
        if self.log.free_words() < needed {
            return Err(HeapError::LogFull {
                needed_words: needed,
                free_words: self.log.free_words(),
            });
        }
        let entries: Vec<u64> = self
            .pending
            .iter()
            .map(|p| pack_group_entry(p.generation, p.gtxid))
            .collect();
        let m0 = self.mem.elapsed();
        // Route the write sets *before* the group record: a crash
        // between the two leaves routed writes for undecided gtxids,
        // which replay ignores (presumed abort); the reverse order could
        // leave a decided transaction with no routed writes to rebuild a
        // sacrificed shard from.
        if let Some(routing) = &mut self.routing {
            for p in &self.pending {
                for &(shard, addr, value) in &p.routed {
                    routing.append(
                        &mut self.mem,
                        &LogRecord::write(
                            p.gtxid,
                            ((shard as u64) << ROUTE_SHARD_SHIFT) | addr,
                            value,
                        ),
                        true,
                    );
                }
            }
        }
        self.log.append_group_decision(&mut self.mem, &entries, true);
        self.mem.sfence();
        let seal_cost = self.mem.elapsed() - m0;
        let start = self.coords[sealer].clock.max(self.log_free);
        let seal_end = start + seal_cost;
        self.log_free = seal_end;
        self.coords[sealer].clock = seal_end;

        let group = self.pending.len();
        for p in &self.pending {
            self.decided.insert(p.gtxid, p.generation);
            self.unsettled.insert(p.gtxid);
            let slot = &mut self.coords[p.coordinator];
            slot.high = slot.high.max(Some(p.gtxid));
            slot.clock = slot.clock.max(seal_end);
            obs::observe(
                obs::Hist::TxnDecisionStall,
                seal_end.saturating_sub(p.buffered_at),
            );
        }
        obs::emit(
            "txn",
            "decide_group",
            seal_end,
            sealer as i64,
            group as i64,
        );
        obs::count(obs::Ctr::TxnDecisionGroups);
        obs::count_by(obs::Ctr::TxnDecisions, group as u64);
        // A count, not a time: the histogram machinery tracks the
        // per-group batching distribution.
        obs::observe(obs::Hist::TxnDecisionsPerGroup, Nanos::new(group as u64));
        self.sealed.append(&mut self.pending);
        Ok(group)
    }

    /// Phase 2 for every sealed decision: each owner writes its
    /// participants' durable commit markers on its own clock, then
    /// settles the decision.
    ///
    /// # Errors
    ///
    /// [`HeapError::NoTransaction`] on protocol misuse (a participant
    /// that was never prepared).
    pub fn complete_sealed(&mut self, heaps: &mut [PersistentHeap]) -> Result<(), HeapError> {
        let mut sealed = std::mem::take(&mut self.sealed);
        for p in &sealed {
            let mut phase_end = self.coords[p.coordinator].clock;
            for &shard in &p.participants {
                let end = self.commit_shard(p.coordinator, heaps, shard, p.gtxid)?;
                phase_end = phase_end.max(end);
            }
            self.coords[p.coordinator].clock = phase_end;
            self.unsettled.remove(&p.gtxid);
            self.log
                .append(&mut self.mem, &LogRecord::settle(p.gtxid), true);
        }
        // Hand the buffer back so the next group reuses its capacity.
        sealed.clear();
        self.sealed = sealed;
        Ok(())
    }

    /// The composed fast path: prepare, buffer the decision, and seal +
    /// complete when the group trigger fires.
    ///
    /// # Errors
    ///
    /// [`HeapError::LogFull`] when the trigger fires but the decision
    /// log cannot hold the group (unsettled decisions pile up when
    /// recovered decisions are never settled — see
    /// [`settle_recovered`](Self::settle_recovered)); the decision stays
    /// buffered. Otherwise only on protocol misuse; refusals come back
    /// as [`SubmitOutcome::Aborted`].
    pub fn submit(
        &mut self,
        coordinator: usize,
        heaps: &mut [PersistentHeap],
        txn: &CrossShardTxn,
    ) -> Result<SubmitOutcome, HeapError> {
        let participants = txn.participants();
        if let Some(reason) = self.prepare_on(coordinator, heaps, txn, &participants)? {
            return Ok(SubmitOutcome::Aborted { reason });
        }
        self.buffer_on(coordinator, txn, participants);
        if self.should_seal(coordinator) {
            let group = self.try_seal(coordinator, true)?;
            self.complete_sealed(heaps)?;
            Ok(SubmitOutcome::Committed { group })
        } else {
            Ok(SubmitOutcome::Buffered)
        }
    }

    /// Seals and completes whatever is buffered, regardless of the
    /// trigger — end-of-run flush. Returns the sealed count.
    ///
    /// # Errors
    ///
    /// [`HeapError::LogFull`] as for [`submit`](Self::submit), and
    /// otherwise as [`CoordinatorPool::complete_sealed`].
    pub fn drain(
        &mut self,
        sealer: usize,
        heaps: &mut [PersistentHeap],
    ) -> Result<usize, HeapError> {
        let group = self.try_seal(sealer, true)?;
        self.complete_sealed(heaps)?;
        Ok(group)
    }

    /// Compacts the shared decision log when it runs low, preserving
    /// unsettled decisions and coordinator marks (see
    /// [`reseal`](Self::reseal)) ahead of the new tail. Refuses without
    /// touching the log when the carried records do not fit, or when
    /// `needed` more words would not fit after them.
    fn compact_decision_log(&mut self, needed: u64) -> Result<(), HeapError> {
        if !self.log.needs_truncation() {
            return Ok(());
        }
        let marks = self.marks();
        // What `reseal` appends: the group record, then a settle marker
        // per mark.
        let entries = (self.unsettled.len() + marks.len()) as u64;
        let carried = if entries == 0 {
            0
        } else {
            entries + 1 + marks.len() as u64
        };
        if self.log.free_words() < carried {
            return Err(HeapError::LogFull {
                needed_words: carried,
                free_words: self.log.free_words(),
            });
        }
        let free_after = self.log.capacity_words() - 1 - carried;
        if free_after < needed {
            return Err(HeapError::LogFull {
                needed_words: needed,
                free_words: free_after,
            });
        }
        let mark = self.log.mark();
        self.reseal(&marks);
        self.log.truncate_to(&mut self.mem, mark, true);
        Ok(())
    }

    /// The coordinator marks a fresh stretch of log must carry, sorted:
    /// the highest decided gtxid of every coordinator, unless it is
    /// unsettled (re-sealed anyway) or a higher buffered decision of the
    /// same coordinator is about to be sealed. Without the mark, pruning
    /// settled decisions can leave the log with nothing from a
    /// coordinator, and the next recovery would resume its sequence
    /// below a decided gtxid, under a generation already used.
    fn marks(&self) -> Vec<u64> {
        let mut marks: Vec<u64> = self
            .coords
            .iter()
            .enumerate()
            .filter_map(|(c, slot)| {
                let high = slot.high?;
                let superseded = self
                    .pending
                    .iter()
                    .any(|p| p.coordinator == c && p.gtxid > high);
                (!superseded).then_some(high)
            })
            .chain(self.foreign_marks.iter().copied())
            .filter(|g| !self.unsettled.contains(g))
            .collect();
        marks.sort_unstable();
        marks
    }

    /// Opens a fresh stretch of decision log: one group record re-sealing
    /// every unsettled decision and every mark in `marks` under its
    /// original generation, a settle marker per mark (so the next
    /// recovery prunes it again and carries only the mark), then a
    /// fence. Writes nothing when both are empty.
    fn reseal(&mut self, marks: &[u64]) {
        let mut carried: Vec<u64> = self.unsettled.iter().chain(marks).copied().collect();
        if carried.is_empty() {
            return;
        }
        carried.sort_unstable();
        let entries: Vec<u64> = carried
            .iter()
            .map(|g| pack_group_entry(self.decided[g], *g))
            .collect();
        self.log.append_group_decision(&mut self.mem, &entries, true);
        for &gtxid in marks {
            self.log
                .append(&mut self.mem, &LogRecord::settle(gtxid), true);
        }
        self.mem.sfence();
    }

    /// The pool's durable bytes as they would survive a power failure
    /// right now: sealed group records, nothing buffered. Feed to
    /// [`resolve_cross_shard`], [`recover_decisions`], or
    /// [`CoordinatorPool::recover`].
    #[must_use]
    pub fn crash_image(&self) -> Vec<u8> {
        self.mem.clone().crash(false)
    }

    /// Crashes the pool mid-group-seal: only the first `durable_words`
    /// words of the covering group record (header first, then one entry
    /// per buffered decision) reach NVRAM before the power dies.
    /// Recovery must presume abort for *every* member unless the record
    /// is complete — the torn-group-record crash family.
    ///
    /// # Panics
    ///
    /// Panics when nothing is buffered or `durable_words` exceeds the
    /// record length.
    #[must_use]
    pub fn crash_mid_group_seal(&mut self, durable_words: usize) -> Vec<u8> {
        assert!(!self.pending.is_empty(), "nothing buffered to seal");
        let entries: Vec<u64> = self
            .pending
            .iter()
            .map(|p| pack_group_entry(p.generation, p.gtxid))
            .collect();
        self.log
            .append_group_decision_torn(&mut self.mem, &entries, durable_words);
        self.mem.clone().crash(false)
    }

    /// Rebuilds a pool from a crashed shared decision log. Settled
    /// decisions are pruned (their settle markers survived); unsettled
    /// ones are re-sealed under one fresh group record, keeping their
    /// original generations so [`CoordinatorPool::attribute`] still
    /// names the sealing incarnation. Every coordinator's sequence
    /// counter resumes above its decided gtxids and its generation is
    /// bumped past every generation the log holds for it. Each
    /// coordinator's highest decided gtxid is carried into the new log
    /// even when settled, so any number of recoveries keep resuming
    /// above it — including for coordinators past `coordinators`, whose
    /// gtxids a later, larger pool may issue again. Once
    /// [`resolve_cross_shard`] has brought every shard back, call
    /// [`settle_recovered`](Self::settle_recovered) so the re-sealed
    /// decisions do not pile up across later recoveries.
    ///
    /// An issued-but-undecided gtxid from before the crash can be
    /// issued again, which is safe: recovered shards resolved it by
    /// presumed abort and scrubbed their logs.
    #[must_use]
    pub fn recover(coordinator_image: &[u8], coordinators: usize, group_size: usize) -> Self {
        Self::rebuild(coordinator_image, coordinators, group_size, &FastSet::default())
    }

    /// [`CoordinatorPool::recover`] for a pool opened
    /// [`with_routing`](Self::with_routing): the routed write history is
    /// carried across the restart along with the decisions, so a shard
    /// sacrificed *before* the pool itself crashed can still be rebuilt
    /// afterwards. A settled decision is prunable for in-doubt
    /// resolution, but the routed rebuild still needs it: a shard
    /// sacrificed in a later outage is rebuilt from its checkpoint plus
    /// a replay of routed writes filtered on the decided set. So every
    /// decision the routing log carries writes for is re-sealed as
    /// unsettled, and stays answerable for as long as its writes do.
    #[must_use]
    pub fn recover_routed(coordinator_image: &[u8], coordinators: usize, group_size: usize) -> Self {
        let mut routed = recover_routing(coordinator_image);
        routed.sort_by_key(|w| (w.gtxid, w.shard, w.addr));
        let pinned: FastSet<u64> = routed.iter().map(|w| w.gtxid).collect();
        let mut pool = Self::rebuild(coordinator_image, coordinators, group_size, &pinned)
            .with_routing();
        if let Some(routing) = &mut pool.routing {
            for w in &routed {
                routing.append(
                    &mut pool.mem,
                    &LogRecord::write(
                        w.gtxid,
                        ((w.shard as u64) << ROUTE_SHARD_SHIFT) | w.addr,
                        w.value,
                    ),
                    true,
                );
            }
        }
        pool.mem.sfence();
        pool
    }

    /// [`CoordinatorPool::recover`], also re-sealing the settled
    /// decisions in `pinned`.
    fn rebuild(
        coordinator_image: &[u8],
        coordinators: usize,
        group_size: usize,
        pinned: &FastSet<u64>,
    ) -> Self {
        let mut pool = Self::new(coordinators, group_size);
        let records = decision_records(coordinator_image);
        let settled = settled_in(&records);
        let mut decided: Vec<(u64, u64)> = records
            .iter()
            .filter(|r| is_decision(r))
            .map(|r| (r.txid, r.addr))
            .collect();
        decided.sort_unstable();
        decided.dedup();
        for &(gtxid, generation) in &decided {
            let coordinator = coordinator_of(gtxid);
            if let Some(slot) = pool.coords.get_mut(coordinator) {
                let seq = (gtxid - GTXID_BASE) & POOL_SEQ_MASK;
                slot.next_seq = slot.next_seq.max(seq + 1);
                slot.generation = slot.generation.max((generation + 1).min(GROUP_ENTRY_GEN_MAX));
                slot.high = slot.high.max(Some(gtxid));
            } else {
                // Ascending order: the last gtxid seen per coordinator
                // is its highest.
                match pool.foreign_marks.last_mut() {
                    Some(last) if coordinator_of(*last) == coordinator => *last = gtxid,
                    _ => pool.foreign_marks.push(gtxid),
                }
            }
            pool.decided.insert(gtxid, generation);
            if !settled.contains(&gtxid) || pinned.contains(&gtxid) {
                pool.unsettled.insert(gtxid);
            }
        }
        let marks = pool.marks();
        pool.reseal(&marks);
        pool
    }

    /// Attributes a decided gtxid to the coordinator generation that
    /// sealed it; `None` for gtxids with no durable decision (in-doubt
    /// prepares resolve by presumed abort, and their *issuer* is still
    /// readable via [`coordinator_of`]).
    #[must_use]
    pub fn attribute(&self, gtxid: u64) -> Option<GtxidOrigin> {
        self.decided.get(&gtxid).map(|&generation| GtxidOrigin {
            coordinator: coordinator_of(gtxid),
            generation,
        })
    }

    /// Marks a sealed decision as settled once every participant is
    /// known to hold its phase-2 marker. The settle marker is unfenced —
    /// it rides the next fence; losing it merely means a conservative
    /// replay. [`complete_sealed`](Self::complete_sealed) settles what
    /// it completes; call this for decisions recovered or completed by
    /// hand, or the decision log can never drop them.
    pub fn settle(&mut self, gtxid: u64) {
        self.unsettled.remove(&gtxid);
        self.log
            .append(&mut self.mem, &LogRecord::settle(gtxid), true);
    }

    /// Settles every decision [`CoordinatorPool::recover`] re-sealed
    /// that `recovery` has since applied on all shards: the step a
    /// restart must take once [`resolve_cross_shard`] has brought every
    /// shard back, in ascending gtxid order. Without it those decisions
    /// stay unsettled in this pool forever — re-sealed at every later
    /// recovery and carried by every compaction — until the decision
    /// log fills. Settles nothing when a shard came back degraded (it
    /// has not applied the decisions yet). Returns how many were
    /// settled.
    ///
    /// # Errors
    ///
    /// [`HeapError::LogFull`] when the log lacks a word per settle
    /// marker; nothing is settled then.
    pub fn settle_recovered(&mut self, recovery: &ClusterTxnRecovery) -> Result<usize, HeapError> {
        if !recovery.fully_recovered() {
            return Ok(0);
        }
        let mut live: Vec<u64> = self
            .unsettled
            .iter()
            .copied()
            .filter(|g| recovery.decided.contains(g))
            .collect();
        if self.log.free_words() < live.len() as u64 {
            return Err(HeapError::LogFull {
                needed_words: live.len() as u64,
                free_words: self.log.free_words(),
            });
        }
        live.sort_unstable();
        for &gtxid in &live {
            self.settle(gtxid);
        }
        Ok(live.len())
    }

    /// Sealed decisions not yet settled: what every compaction must
    /// carry forward.
    #[must_use]
    pub fn unsettled(&self) -> usize {
        self.unsettled.len()
    }
}

/// One write of a committed cross-shard transaction, as recovered from
/// the coordinator's routing log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedWrite {
    /// The transaction that carried the write.
    pub gtxid: u64,
    /// The participant shard the write landed on.
    pub shard: usize,
    /// Heap offset within that shard.
    pub addr: u64,
    /// The committed value.
    pub value: u64,
}

/// Scans a crashed coordinator's routing log (see
/// [`CoordinatorPool::with_routing`]) and returns every durably routed
/// write, decided or not — filter against [`recover_decisions`] before
/// replaying. Empty for a coordinator without routing.
#[must_use]
pub fn recover_routing(coordinator_image: &[u8]) -> Vec<RoutedWrite> {
    // An initialized tail word is never zero (TornLog::initialize packs
    // polarity = true), but a pool created without routing leaves
    // the word zeroed — and a zeroed region would decode as an endless
    // run of polarity-false Write records. Distinguish the two here.
    let tail = u64::from_le_bytes(
        coordinator_image[ROUTING_TAIL_ADDR as usize..ROUTING_TAIL_ADDR as usize + 8]
            .try_into()
            .expect("aligned read"),
    );
    if tail == 0 {
        return Vec::new();
    }
    TornLog::recover(
        coordinator_image,
        ROUTING_LOG_BASE,
        ROUTING_LOG_CAP,
        ROUTING_TAIL_ADDR,
    )
    .into_iter()
    .filter(|r| r.kind == RecordKind::Write)
    .map(|r| RoutedWrite {
        gtxid: r.txid,
        shard: (r.addr >> ROUTE_SHARD_SHIFT) as usize,
        addr: r.addr & ROUTE_ADDR_MASK,
        value: r.value,
    })
    .collect()
}

/// Replays the *decided* routed writes for `shard` onto a heap rebuilt
/// from a stale back-end checkpoint, returning how many words were
/// re-applied. Writes are applied in `(gtxid, addr)` order so a later
/// transaction's value wins; values are absolute, so replaying writes
/// the checkpoint already contains is idempotent. This is the last leg
/// of storm recovery: triage sacrificed the shard's NVRAM image, the
/// ladder rebuilt it from the back end, and the routing log closes the
/// gap up to the last committed cross-shard transaction.
///
/// # Errors
///
/// [`HeapError`] if a routed address is outside the rebuilt heap — the
/// checkpoint predates the allocation, i.e. it is older than the
/// routing log's reach.
pub fn reapply_routed(
    heap: &mut PersistentHeap,
    shard: usize,
    routed: &[RoutedWrite],
    decided: &FastSet<u64>,
) -> Result<u64, HeapError> {
    let mut mine: Vec<&RoutedWrite> = routed
        .iter()
        .filter(|w| w.shard == shard && decided.contains(&w.gtxid))
        .collect();
    if mine.is_empty() {
        return Ok(0);
    }
    mine.sort_by_key(|w| (w.gtxid, w.addr));
    let mut tx = heap.begin();
    for w in &mine {
        let p = PmPtr::new(w.addr).ok_or(HeapError::InvalidPointer { offset: w.addr })?;
        tx.write_word(p, w.value)?;
    }
    tx.commit()?;
    obs::count_by(obs::Ctr::TxnReroutedWrites, mine.len() as u64);
    obs::emit(
        "txn",
        "reroute",
        heap.elapsed(),
        shard as i64,
        mine.len() as i64,
    );
    Ok(mine.len() as u64)
}

/// Scans a crashed coordinator's durable log and returns the set of
/// global txids with a durable commit decision: every member of an
/// intact [`RecordKind::GroupDecision`] record. Everything absent is, by
/// the presumed-abort rule, aborted; a torn group record contributes
/// *none* of its members.
#[must_use]
pub fn recover_decisions(coordinator_image: &[u8]) -> FastSet<u64> {
    decision_records(coordinator_image)
        .iter()
        .filter(|r| is_decision(r))
        .map(|r| r.txid)
        .collect()
}

/// Scans a crashed coordinator's durable log for [`RecordKind::Settle`]
/// markers: decisions every participant has already confirmed, which
/// recovery-time compaction may prune.
#[must_use]
pub fn recover_settled(coordinator_image: &[u8]) -> FastSet<u64> {
    settled_in(&decision_records(coordinator_image))
}

fn settled_in(records: &[LogRecord]) -> FastSet<u64> {
    records
        .iter()
        .filter(|r| r.kind == RecordKind::Settle)
        .map(|r| r.txid)
        .collect()
}

fn is_decision(r: &LogRecord) -> bool {
    r.kind == RecordKind::GroupDecision
}

fn decision_records(coordinator_image: &[u8]) -> Vec<LogRecord> {
    TornLog::recover(
        coordinator_image,
        DECISION_LOG_BASE,
        DECISION_LOG_CAP,
        DECISION_TAIL_ADDR,
    )
}

/// One shard's fate after a cluster-wide 2PC crash resolution.
#[derive(Debug)]
pub struct ShardRecovery {
    /// Shard index.
    pub shard: usize,
    /// The recovered heap, when the shard's image was usable.
    pub heap: Option<PersistentHeap>,
    /// In-doubt resolution bookkeeping, when recovery ran.
    pub resolution: Option<TxnResolution>,
    /// Ladder verdict: `Recovered` via log replay, or `Degraded` with
    /// the loss quantified.
    pub outcome: RecoveryOutcome,
    /// The typed refusal for a shard that could not recover locally.
    pub refusal: Option<WspError>,
}

/// The fleet-wide result of [`resolve_cross_shard`].
#[derive(Debug)]
pub struct ClusterTxnRecovery {
    /// Per-shard verdicts, in shard order.
    pub shards: Vec<ShardRecovery>,
    /// Global txids with a durable coordinator decision.
    pub decided: FastSet<u64>,
}

impl ClusterTxnRecovery {
    /// True when every shard recovered locally (no degraded verdicts).
    #[must_use]
    pub fn fully_recovered(&self) -> bool {
        self.shards.iter().all(|s| s.outcome.is_recovered())
    }
}

/// Recovers a whole sharded deployment after a crash anywhere in the
/// 2PC protocol: replays the coordinator's decision log, then recovers
/// each shard with in-doubt transactions resolved against it
/// (presumed-abort for every txid the log does not answer for).
///
/// A shard whose image is `None` (lost outright — NVDIMM failure, torn
/// header) cannot recover locally: it receives a typed
/// [`WspError::BackendRecoveryRequired`] refusal and a
/// [`RecoveryOutcome::Degraded`] verdict at the cluster-rebuild rung,
/// with the rebuild time quantified from `cluster` — the PR 3 ladder
/// semantics, applied fleet-wide. Surviving shards still resolve to the
/// decision log, so committed cross-shard transactions stay visible on
/// every shard that still exists.
#[must_use]
pub fn resolve_cross_shard(
    coordinator_image: &[u8],
    shard_images: Vec<Option<CrashImage>>,
    cluster: &ClusterSpec,
) -> ClusterTxnRecovery {
    let decided = recover_decisions(coordinator_image);
    let mut shards = Vec::with_capacity(shard_images.len());
    for (shard, image) in shard_images.into_iter().enumerate() {
        let recovery = match image {
            Some(image) => {
                match PersistentHeap::recover_distributed(image, |g| decided.contains(&g)) {
                    Ok((heap, resolution)) => {
                        obs::emit(
                            "txn",
                            "resolve",
                            heap.elapsed(),
                            shard as i64,
                            resolution.in_doubt.len() as i64,
                        );
                        obs::count_by(
                            obs::Ctr::TxnInDoubtResolved,
                            resolution.in_doubt.len() as u64,
                        );
                        obs::count_by(obs::Ctr::TxnAborts, resolution.aborted.len() as u64);
                        let took = heap.elapsed();
                        ShardRecovery {
                            shard,
                            heap: Some(heap),
                            resolution: Some(resolution),
                            outcome: RecoveryOutcome::Recovered {
                                rung: LadderRung::HeapLogReplay,
                                took,
                            },
                            refusal: None,
                        }
                    }
                    Err(e) => {
                        let refusal = WspError::Heap(e);
                        let reason = format!(
                            "shard {shard} image unusable ({refusal}); rebuild from the back end"
                        );
                        obs::emit_detail(
                            "txn",
                            "refusal",
                            Nanos::ZERO,
                            shard as i64,
                            0,
                            refusal.kind().to_string(),
                        );
                        ShardRecovery {
                            shard,
                            heap: None,
                            resolution: None,
                            outcome: RecoveryOutcome::Degraded {
                                rung: LadderRung::ClusterRebuild,
                                reason,
                                took: cluster.backend_recovery_time(1),
                            },
                            refusal: Some(refusal),
                        }
                    }
                }
            }
            None => {
                let staleness = cluster.backend_recovery_time(1);
                let reason = format!(
                    "shard {shard} lost its NVRAM image mid-2PC; cluster rebuild streams \
                     the back end in ~{staleness} while peers serve stale reads"
                );
                let refusal = WspError::BackendRecoveryRequired {
                    reason: reason.clone(),
                };
                obs::emit_detail(
                    "txn",
                    "refusal",
                    Nanos::ZERO,
                    shard as i64,
                    staleness.as_nanos() as i64,
                    refusal.kind().to_string(),
                );
                ShardRecovery {
                    shard,
                    heap: None,
                    resolution: None,
                    outcome: RecoveryOutcome::Degraded {
                        rung: LadderRung::ClusterRebuild,
                        reason,
                        took: staleness,
                    },
                    refusal: Some(refusal),
                }
            }
        };
        shards.push(recovery);
    }
    ClusterTxnRecovery { shards, decided }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_pheap::{HeapConfig, PmPtr};

    fn shard_with_cell(config: HeapConfig, value: u64) -> (PersistentHeap, PmPtr) {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
        let mut tx = heap.begin();
        let p = tx.alloc(8).unwrap();
        tx.write_word(p, value).unwrap();
        tx.set_root(p).unwrap();
        tx.commit().unwrap();
        (heap, p)
    }

    fn cell(heap: &mut PersistentHeap) -> u64 {
        let root = heap.root().unwrap();
        let mut tx = heap.begin();
        let v = tx.read_word(root).unwrap();
        tx.commit().unwrap();
        v
    }

    /// Two shards holding one committed cell each (100 and 200), and a
    /// per-transaction coordinator: one coordinator, group size 1.
    fn rig(config: HeapConfig) -> (CoordinatorPool, Vec<PersistentHeap>, Vec<u64>) {
        let mut heaps = Vec::new();
        let mut cells = Vec::new();
        for value in [100u64, 200] {
            let (heap, p) = shard_with_cell(config, value);
            heaps.push(heap);
            cells.push(p.offset());
        }
        (CoordinatorPool::new(1, 1), heaps, cells)
    }

    /// Runs `txn` through the whole protocol on coordinator 0.
    fn commit(pool: &mut CoordinatorPool, heaps: &mut [PersistentHeap], txn: &CrossShardTxn) {
        assert_eq!(
            pool.submit(0, heaps, txn).unwrap(),
            SubmitOutcome::Committed { group: 1 }
        );
    }

    /// Prepares `txn` on every participant and seals its decision, with
    /// no phase 2: the canonical in-doubt point.
    fn decide_in_doubt(
        pool: &mut CoordinatorPool,
        heaps: &mut [PersistentHeap],
        txn: &CrossShardTxn,
    ) {
        for shard in txn.participants() {
            pool.prepare_shard(0, heaps, shard, txn).unwrap();
        }
        pool.buffer_decision(0, txn);
        assert_eq!(pool.seal_decisions(0), 1);
    }

    #[test]
    fn two_shard_commit_is_visible_everywhere() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let (mut pool, mut heaps, cells) = rig(config);
            let mut txn = pool.begin(0, 2);
            txn.stage(0, cells[0], 70);
            txn.stage(1, cells[1], 230);
            commit(&mut pool, &mut heaps, &txn);
            for (heap, want) in heaps.iter_mut().zip([70, 230]) {
                assert_eq!(cell(heap), want, "{config}");
            }
            // And it survives both shards crashing unsaved.
            for (heap, want) in heaps.into_iter().zip([70, 230]) {
                let mut r = PersistentHeap::recover(heap.crash(false)).unwrap();
                assert_eq!(cell(&mut r), want, "{config}");
            }
        }
    }

    #[test]
    fn refused_prepare_aborts_everywhere() {
        // Shard 1 is flush-on-fail: it cannot prepare, so the whole
        // transaction must abort and shard 0's prepare must roll back.
        let (heap0, p0) = shard_with_cell(HeapConfig::FocUndo, 100);
        let (heap1, p1) = shard_with_cell(HeapConfig::Fof, 200);
        let mut heaps = vec![heap0, heap1];
        let mut pool = CoordinatorPool::new(1, 1);
        let mut txn = pool.begin(0, 2);
        txn.stage(0, p0.offset(), 1);
        txn.stage(1, p1.offset(), 2);
        let outcome = pool.submit(0, &mut heaps, &txn).unwrap();
        assert!(matches!(outcome, SubmitOutcome::Aborted { .. }), "{outcome:?}");
        assert_eq!(pool.buffered(), 0);
        assert_eq!(cell(&mut heaps[0]), 100);
        assert_eq!(cell(&mut heaps[1]), 200);
    }

    #[test]
    fn decision_log_round_trips_through_a_crash() {
        let (mut pool, mut heaps, cells) = rig(HeapConfig::FocUndo);
        let mut committed_txn = pool.begin(0, 2);
        committed_txn.stage(0, cells[0], 1);
        committed_txn.stage(1, cells[1], 2);
        commit(&mut pool, &mut heaps, &committed_txn);
        let undecided = pool.begin(0, 2);
        let decisions = recover_decisions(&pool.crash_image());
        assert!(decisions.contains(&committed_txn.gtxid()));
        assert!(!decisions.contains(&undecided.gtxid()));
    }

    #[test]
    fn post_decision_crash_resolves_in_doubt_to_commit() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let (mut pool, mut heaps, cells) = rig(config);
            let mut txn = pool.begin(0, 2);
            txn.stage(0, cells[0], 11);
            txn.stage(1, cells[1], 22);
            decide_in_doubt(&mut pool, &mut heaps, &txn);
            // Power dies before any phase-2 marker.
            let coordinator_image = pool.crash_image();
            let images = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
            let recovery = resolve_cross_shard(
                &coordinator_image,
                images,
                &ClusterSpec::memcache_tier(8),
            );
            assert!(recovery.fully_recovered(), "{config}");
            for (s, want) in recovery.shards.into_iter().zip([11u64, 22]) {
                let mut heap = s.heap.unwrap();
                let resolution = s.resolution.unwrap();
                assert_eq!(resolution.committed, vec![txn.gtxid()], "{config}");
                assert_eq!(cell(&mut heap), want, "{config}");
            }
        }
    }

    #[test]
    fn pre_decision_crash_resolves_in_doubt_to_abort() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let (mut pool, mut heaps, cells) = rig(config);
            let mut txn = pool.begin(0, 2);
            txn.stage(0, cells[0], 11);
            txn.stage(1, cells[1], 22);
            for shard in [0, 1] {
                pool.prepare_shard(0, &mut heaps, shard, &txn).unwrap();
            }
            // Coordinator dies before the decision record.
            let coordinator_image = pool.crash_image();
            let images = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
            let recovery = resolve_cross_shard(
                &coordinator_image,
                images,
                &ClusterSpec::memcache_tier(8),
            );
            assert!(recovery.fully_recovered(), "{config}");
            for (s, want) in recovery.shards.into_iter().zip([100u64, 200]) {
                let mut heap = s.heap.unwrap();
                let resolution = s.resolution.unwrap();
                assert_eq!(resolution.aborted, vec![txn.gtxid()], "{config}");
                assert_eq!(cell(&mut heap), want, "{config}");
            }
        }
    }

    #[test]
    fn recovered_coordinator_never_reissues_a_decided_gtxid() {
        // Coordinator 1 commits two transfers, coordinator 0 one. Its
        // settle marker rides no fence, so coordinator 0's decision
        // survives as unsettled; coordinator 1's are settled and pruned.
        // Two recoveries later coordinator 1 must still resume above
        // its decided gtxids, under a generation of its own.
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(2, 1);
        let mut decided = Vec::new();
        for (t, coordinator) in [1usize, 1, 0].into_iter().enumerate() {
            let mut txn = pool.begin(coordinator, 2);
            txn.stage(0, cells[0][t], 10 + t as u64);
            txn.stage(1, cells[1][t], 20 + t as u64);
            assert_eq!(
                pool.submit(coordinator, &mut heaps, &txn).unwrap(),
                SubmitOutcome::Committed { group: 1 }
            );
            decided.push(txn.gtxid());
        }
        let once = CoordinatorPool::recover(&pool.crash_image(), 2, 1);
        let mut twice = CoordinatorPool::recover(&once.crash_image(), 2, 1);
        assert_eq!(
            twice.attribute(decided[1]),
            Some(GtxidOrigin {
                coordinator: 1,
                generation: 1
            })
        );

        let mut fresh = twice.begin(1, 2);
        assert!(fresh.gtxid() > decided[1], "gtxid reuse");
        assert!(twice.begin(0, 2).gtxid() > decided[2], "gtxid reuse");
        // The shards never crashed: a reissued gtxid would collide with
        // their decided markers. A fresh one commits cleanly.
        fresh.stage(0, cells[0][3], 60);
        fresh.stage(1, cells[1][3], 240);
        assert_eq!(
            twice.submit(1, &mut heaps, &fresh).unwrap(),
            SubmitOutcome::Committed { group: 1 }
        );
        assert_eq!(twice.attribute(fresh.gtxid()).unwrap().generation, 2);
    }

    #[test]
    fn recovery_keeps_marks_of_coordinators_past_the_pool_size() {
        // A four-coordinator pool decides on coordinator 3, restarts as
        // a two-coordinator pool, crashes again, and comes back with
        // four: coordinator 3 must resume above its old gtxid.
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(4, 1);
        let mut txn = pool.begin(3, 2);
        txn.stage(0, cells[0][0], 7);
        pool.submit(3, &mut heaps, &txn).unwrap();
        let mut other = pool.begin(0, 2);
        other.stage(1, cells[1][0], 8);
        pool.submit(0, &mut heaps, &other).unwrap();

        let small = CoordinatorPool::recover(&pool.crash_image(), 2, 1);
        assert!(recover_decisions(&small.crash_image()).contains(&txn.gtxid()));
        let mut large = CoordinatorPool::recover(&small.crash_image(), 4, 1);
        assert!(large.begin(3, 2).gtxid() > txn.gtxid());
        assert_eq!(large.attribute(txn.gtxid()).unwrap().generation, 1);
    }

    #[test]
    fn compaction_carries_an_idle_coordinators_mark() {
        // Coordinator 1 decides once and goes idle while coordinator 0
        // drives the log through many compactions: coordinator 1's mark
        // must survive them all.
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(2, 1);
        let mut idle = pool.begin(1, 2);
        idle.stage(0, cells[0][1], 5);
        pool.submit(1, &mut heaps, &idle).unwrap();
        for t in 0..1024u64 {
            let mut txn = pool.begin(0, 2);
            txn.stage(1, cells[1][(t % 4) as usize], t);
            pool.submit(0, &mut heaps, &txn).unwrap();
        }
        let image = pool.crash_image();
        assert!(recover_decisions(&image).contains(&idle.gtxid()));
        let mut recovered = CoordinatorPool::recover(&image, 2, 1);
        assert!(recovered.begin(1, 2).gtxid() > idle.gtxid());
    }

    #[test]
    fn compaction_carries_a_mark_above_an_out_of_order_decision() {
        // Coordinator 0 seals b before a, which it began first: a
        // compaction that runs while only a is buffered must still
        // carry b, its highest decided gtxid.
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 1);
        let mut pool = CoordinatorPool::new(1, 8);
        // One lone decision first (group record + settle marker: 3 log
        // words) shifts the 6-word pairs so that compactions land on
        // a's seals, not only on b's.
        let mut lone = pool.begin(0, 1);
        lone.stage(0, cells[0][2], 1);
        pool.submit(0, &mut heaps, &lone).unwrap();
        pool.drain(0, &mut heaps).unwrap();
        for t in 0..512u64 {
            let mut a = pool.begin(0, 1);
            let mut b = pool.begin(0, 1);
            a.stage(0, cells[0][0], t);
            b.stage(0, cells[0][1], t);
            pool.submit(0, &mut heaps, &b).unwrap();
            pool.drain(0, &mut heaps).unwrap();
            pool.submit(0, &mut heaps, &a).unwrap();
            pool.drain(0, &mut heaps).unwrap();
            let mut recovered = CoordinatorPool::recover(&pool.crash_image(), 1, 8);
            assert!(recovered.begin(0, 1).gtxid() > b.gtxid(), "transfer pair {t}");
        }
    }

    #[test]
    fn recovery_prunes_settled_decisions_but_keeps_unsettled_ones() {
        // A settled decision must vanish from the recovered log, an
        // unsettled one must survive so an in-doubt shard can still
        // resolve to commit, and the sequence must clear *both*.
        let (mut pool, mut heaps, cells) = rig(HeapConfig::FocUndo);
        let mut settled_txn = pool.begin(0, 2);
        settled_txn.stage(0, cells[0], 70);
        settled_txn.stage(1, cells[1], 230);
        commit(&mut pool, &mut heaps, &settled_txn);
        let mut unsettled_txn = pool.begin(0, 2);
        unsettled_txn.stage(0, cells[0], 60);
        unsettled_txn.stage(1, cells[1], 240);
        // Its seal fences the first decision's settle marker.
        decide_in_doubt(&mut pool, &mut heaps, &unsettled_txn);

        let mut recovered = CoordinatorPool::recover(&pool.crash_image(), 1, 1);
        let replayed = recover_decisions(&recovered.crash_image());
        assert!(
            !replayed.contains(&settled_txn.gtxid()),
            "settled decision must be pruned at recovery"
        );
        assert!(
            replayed.contains(&unsettled_txn.gtxid()),
            "unsettled decision must survive recovery"
        );
        // The in-doubt shards resolve the unsettled txn to commit
        // against the *recovered* pool's log.
        let images = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
        let recovery = resolve_cross_shard(
            &recovered.crash_image(),
            images,
            &ClusterSpec::memcache_tier(8),
        );
        assert!(recovery.fully_recovered());
        for (s, want) in recovery.shards.into_iter().zip([60u64, 240]) {
            let mut heap = s.heap.unwrap();
            assert_eq!(cell(&mut heap), want);
        }
        assert!(recovered.begin(0, 2).gtxid() > unsettled_txn.gtxid());
    }

    #[test]
    fn fresh_coordinator_recovers_to_empty_state() {
        let pool = CoordinatorPool::new(1, 1);
        let mut recovered = CoordinatorPool::recover(&pool.crash_image(), 1, 1);
        assert_eq!(recovered.begin(0, 1).gtxid(), GTXID_BASE);
        assert_eq!(recovered.unsettled(), 0);
    }

    #[test]
    fn routing_log_round_trips_committed_write_sets() {
        let (_, mut heaps, cells) = rig(HeapConfig::FocUndo);
        let mut pool = CoordinatorPool::new(1, 1).with_routing();
        let mut txn = pool.begin(0, 2);
        txn.stage(0, cells[0], 70);
        txn.stage(1, cells[1], 230);
        commit(&mut pool, &mut heaps, &txn);
        // Prepared but never decided: routed nothing.
        let mut undecided = pool.begin(0, 2);
        undecided.stage(0, cells[0], 1);
        pool.prepare_shard(0, &mut heaps, 0, &undecided).unwrap();

        let routed = recover_routing(&pool.crash_image());
        assert_eq!(
            routed,
            vec![
                RoutedWrite {
                    gtxid: txn.gtxid(),
                    shard: 0,
                    addr: cells[0],
                    value: 70
                },
                RoutedWrite {
                    gtxid: txn.gtxid(),
                    shard: 1,
                    addr: cells[1],
                    value: 230
                },
            ]
        );
        // A pool without routing routes nothing at all.
        let (mut plain, mut plain_heaps, plain_cells) = rig(HeapConfig::FocUndo);
        let mut t = plain.begin(0, 2);
        t.stage(0, plain_cells[0], 1);
        t.stage(1, plain_cells[1], 2);
        commit(&mut plain, &mut plain_heaps, &t);
        assert!(recover_routing(&plain.crash_image()).is_empty());
    }

    #[test]
    fn reapply_rebuilds_a_sacrificed_shard_from_a_stale_checkpoint() {
        let (_, mut heaps, cells) = rig(HeapConfig::FocUndo);
        let checkpoints = heaps.clone();
        let mut pool = CoordinatorPool::new(1, 1).with_routing();
        // Two committed transactions touching shard 1; the later value
        // must win the replay.
        for value in [230u64, 260] {
            let mut txn = pool.begin(0, 2);
            txn.stage(0, cells[0], 300 - value);
            txn.stage(1, cells[1], value);
            commit(&mut pool, &mut heaps, &txn);
        }
        let image = pool.crash_image();
        let decided = recover_decisions(&image);
        let routed = recover_routing(&image);
        // Shard 1's NVRAM image is sacrificed: rebuild from the stale
        // checkpoint, then replay its routed writes.
        let mut rebuilt = checkpoints.into_iter().nth(1).unwrap();
        assert_eq!(cell(&mut rebuilt), 200, "checkpoint is stale");
        let applied = reapply_routed(&mut rebuilt, 1, &routed, &decided).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(cell(&mut rebuilt), 260, "last committed value wins");
        // Replaying again is idempotent (absolute values).
        reapply_routed(&mut rebuilt, 1, &routed, &decided).unwrap();
        assert_eq!(cell(&mut rebuilt), 260);
        // Undecided gtxids replay nothing.
        let none = reapply_routed(&mut rebuilt, 1, &routed, &FastSet::default()).unwrap();
        assert_eq!(none, 0);
    }

    #[test]
    fn recovered_routed_coordinator_keeps_the_write_history() {
        let (_, mut heaps, cells) = rig(HeapConfig::FocUndo);
        let mut pool = CoordinatorPool::new(1, 1).with_routing();
        let mut first = pool.begin(0, 2);
        first.stage(0, cells[0], 70);
        first.stage(1, cells[1], 230);
        commit(&mut pool, &mut heaps, &first);
        // The second seal fences the first decision's settle marker.
        let mut second = pool.begin(0, 2);
        second.stage(0, cells[0], 80);
        commit(&mut pool, &mut heaps, &second);
        let image = pool.crash_image();
        assert!(recover_settled(&image).contains(&first.gtxid()));

        // The pool crashes and restarts; the routed history must survive
        // into the *new* pool's own crash image, and the settled first
        // decision stays answerable for as long as its writes do.
        let mut recovered = CoordinatorPool::recover_routed(&image, 1, 1);
        let again = recovered.crash_image();
        let routed = recover_routing(&again);
        assert_eq!(routed.len(), 3);
        assert!(routed.iter().any(|w| w.shard == 1 && w.value == 230));
        assert!(recover_decisions(&again).contains(&first.gtxid()));
        // The recovered pool keeps routing what it seals next.
        let mut third = recovered.begin(0, 2);
        assert!(third.gtxid() > second.gtxid());
        third.stage(1, cells[1], 250);
        commit(&mut recovered, &mut heaps, &third);
        assert_eq!(recover_routing(&recovered.crash_image()).len(), 4);
    }

    #[test]
    fn lost_shard_degrades_with_quantified_staleness() {
        let (mut pool, mut heaps, cells) = rig(HeapConfig::FocUndo);
        let mut txn = pool.begin(0, 2);
        txn.stage(0, cells[0], 11);
        txn.stage(1, cells[1], 22);
        decide_in_doubt(&mut pool, &mut heaps, &txn);
        let coordinator_image = pool.crash_image();
        let mut images: Vec<Option<CrashImage>> =
            heaps.into_iter().map(|h| Some(h.crash(false))).collect();
        images[0] = None; // shard 0's NVRAM image is gone
        let cluster = ClusterSpec::memcache_tier(8);
        let recovery = resolve_cross_shard(&coordinator_image, images, &cluster);
        assert!(!recovery.fully_recovered());
        let lost = &recovery.shards[0];
        assert!(
            matches!(
                lost.refusal,
                Some(WspError::BackendRecoveryRequired { .. })
            ),
            "{:?}",
            lost.refusal
        );
        match &lost.outcome {
            RecoveryOutcome::Degraded { rung, reason, took } => {
                assert_eq!(*rung, LadderRung::ClusterRebuild);
                assert_eq!(*took, cluster.backend_recovery_time(1));
                assert!(!reason.is_empty());
            }
            other => panic!("lost shard must degrade, got {other:?}"),
        }
        // The surviving shard still honours the durable decision.
        let survivor = recovery.shards.into_iter().nth(1).unwrap();
        let mut heap = survivor.heap.unwrap();
        assert_eq!(cell(&mut heap), 22);
    }

    /// Builds `n` shards, each with four committed cells holding 100 —
    /// enough distinct addresses that concurrent in-flight transactions
    /// can keep pairwise-disjoint write sets.
    fn pool_rig(config: HeapConfig, n: usize) -> (Vec<PersistentHeap>, Vec<Vec<u64>>) {
        let mut heaps = Vec::new();
        let mut cells = Vec::new();
        for _ in 0..n {
            let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
            let mut shard_cells = Vec::new();
            let mut tx = heap.begin();
            for i in 0..4 {
                let p = tx.alloc(8).unwrap();
                tx.write_word(p, 100).unwrap();
                if i == 0 {
                    tx.set_root(p).unwrap();
                }
                shard_cells.push(p.offset());
            }
            tx.commit().unwrap();
            heaps.push(heap);
            cells.push(shard_cells);
        }
        (heaps, cells)
    }

    #[test]
    fn grouped_commits_are_visible_and_crash_durable() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let (mut heaps, cells) = pool_rig(config, 3);
            let mut pool = CoordinatorPool::new(2, 4);
            // Four transactions with pairwise-disjoint write sets; the
            // fourth submission trips the size trigger.
            let mut outcomes = Vec::new();
            for t in 0..4usize {
                let coord = t % 2;
                let mut txn = pool.begin(coord, 3);
                // Cell index == txn index: all (shard, cell) pairs are
                // distinct across the in-flight group.
                txn.stage(t % 3, cells[t % 3][t], t as u64);
                txn.stage((t + 1) % 3, cells[(t + 1) % 3][t], (t + 1) as u64 * 10);
                outcomes.push(pool.submit(coord, &mut heaps, &txn).unwrap());
            }
            assert!(outcomes[..3]
                .iter()
                .all(|o| *o == SubmitOutcome::Buffered));
            assert_eq!(outcomes[3], SubmitOutcome::Committed { group: 4 }, "{config}");
            // One fenced group record decided all four: every write is
            // visible after a full-fleet unsaved crash.
            let coordinator_image = pool.crash_image();
            let images = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
            let recovery =
                resolve_cross_shard(&coordinator_image, images, &ClusterSpec::memcache_tier(8));
            assert!(recovery.fully_recovered(), "{config}");
            assert_eq!(recovery.decided.len(), 4, "{config}");
        }
    }

    #[test]
    fn buffered_decisions_presume_abort_on_crash() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(1, 8);
        let mut txn = pool.begin(0, 2);
        txn.stage(0, cells[0][0], 1);
        txn.stage(1, cells[1][0], 2);
        assert_eq!(
            pool.submit(0, &mut heaps, &txn).unwrap(),
            SubmitOutcome::Buffered
        );
        // Crash with the decision buffered but unsealed: nothing durable
        // names the gtxid, so both prepared shards presume abort.
        let coordinator_image = pool.crash_image();
        let images = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
        let recovery =
            resolve_cross_shard(&coordinator_image, images, &ClusterSpec::memcache_tier(8));
        assert!(recovery.fully_recovered());
        for s in recovery.shards {
            let mut heap = s.heap.unwrap();
            assert_eq!(s.resolution.unwrap().aborted, vec![txn.gtxid()]);
            assert_eq!(cell(&mut heap), 100);
        }
    }

    #[test]
    fn sealed_but_uncommitted_group_resolves_to_commit_everywhere() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(2, 8);
        let mut a = pool.begin(0, 2);
        a.stage(0, cells[0][0], 11);
        let mut b = pool.begin(1, 2);
        b.stage(1, cells[1][0], 22);
        for (coord, txn) in [(0, &a), (1, &b)] {
            assert!(pool.prepare(coord, &mut heaps, txn).unwrap().is_none());
            pool.buffer_decision(coord, txn);
        }
        // Sealed (decision durable) but phase 2 never runs.
        assert_eq!(pool.seal_decisions(0), 2);
        let coordinator_image = pool.crash_image();
        let images = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
        let recovery =
            resolve_cross_shard(&coordinator_image, images, &ClusterSpec::memcache_tier(8));
        assert!(recovery.fully_recovered());
        for (s, want) in recovery.shards.into_iter().zip([11u64, 22]) {
            let mut heap = s.heap.unwrap();
            assert_eq!(s.resolution.unwrap().committed.len(), 1);
            assert_eq!(cell(&mut heap), want);
        }
    }

    #[test]
    fn torn_group_record_prefix_presumes_abort_for_every_member() {
        // Words 0..full of the covering record durable: any strict
        // prefix must resolve every member aborted; the complete record
        // commits them all — all-or-nothing at group granularity.
        for durable_words in 0..4usize {
            let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
            let mut pool = CoordinatorPool::new(2, 8);
            let mut a = pool.begin(0, 2);
            a.stage(0, cells[0][0], 11);
            let mut b = pool.begin(1, 2);
            b.stage(1, cells[1][0], 22);
            for (coord, txn) in [(0, &a), (1, &b)] {
                assert!(pool.prepare(coord, &mut heaps, txn).unwrap().is_none());
                pool.buffer_decision(coord, txn);
            }
            let coordinator_image = pool.crash_mid_group_seal(durable_words);
            let decided = recover_decisions(&coordinator_image);
            if durable_words == 3 {
                assert_eq!(decided.len(), 2, "complete record decides all");
            } else {
                assert!(
                    decided.is_empty(),
                    "{durable_words} durable words must decide nothing"
                );
            }
        }
    }

    #[test]
    fn concurrent_coordinators_overlap_on_the_simulated_clock() {
        // The same 8 disjoint transactions, one coordinator vs four:
        // the pool's wall clock must show real overlap (prepares and
        // phase-2 markers on different shards run concurrently).
        let wall_with = |coordinators: usize| {
            let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 8);
            let mut pool = CoordinatorPool::new(coordinators, 4);
            for t in 0..8usize {
                let coord = t % coordinators;
                let shard = t % 8;
                let mut txn = pool.begin(coord, 8);
                txn.stage(shard, cells[shard][0], 7);
                pool.submit(coord, &mut heaps, &txn).unwrap();
            }
            pool.drain(0, &mut heaps).unwrap();
            pool.wall()
        };
        let serial = wall_with(1);
        let parallel = wall_with(4);
        assert!(
            parallel < serial,
            "4 coordinators must overlap: {parallel} !< {serial}"
        );
    }

    #[test]
    fn pool_recovery_attributes_gtxids_and_prunes_settled() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(2, 2);
        // Group 1 commits fully (settled); then one decision seals
        // without phase 2 (unsettled).
        let mut a = pool.begin(0, 2);
        a.stage(0, cells[0][0], 11);
        let mut b = pool.begin(1, 2);
        b.stage(1, cells[1][0], 22);
        pool.submit(0, &mut heaps, &a).unwrap();
        pool.submit(1, &mut heaps, &b).unwrap(); // seals + completes group 1
        let mut c = pool.begin(0, 2);
        c.stage(0, cells[0][1], 33);
        assert!(pool.prepare(0, &mut heaps, &c).unwrap().is_none());
        pool.buffer_decision(0, &c);
        assert_eq!(pool.seal_decisions(1), 1); // durable, never completed

        let recovered = CoordinatorPool::recover(&pool.crash_image(), 2, 2);
        // Settled group-1 decisions pruned; unsettled decision survives.
        // Coordinator 1 decided nothing after b, so b stays as its mark,
        // settled.
        let image = recovered.crash_image();
        let replayed = recover_decisions(&image);
        assert!(!replayed.contains(&a.gtxid()));
        assert!(replayed.contains(&b.gtxid()));
        assert!(recover_settled(&image).contains(&b.gtxid()));
        assert!(replayed.contains(&c.gtxid()));
        assert_eq!(recovered.unsettled(), 1);
        // Attribution still names issuer and generation for every
        // decided gtxid the log answers for.
        assert_eq!(
            recovered.attribute(c.gtxid()),
            Some(GtxidOrigin {
                coordinator: 0,
                generation: 1
            })
        );
        assert_eq!(coordinator_of(b.gtxid()), 1);
        // Fresh gtxids never collide with pre-crash ones, per slot.
        let mut recovered = recovered;
        let fresh_a = recovered.begin(0, 2);
        let fresh_b = recovered.begin(1, 2);
        assert!(fresh_a.gtxid() > c.gtxid());
        assert!(fresh_b.gtxid() > b.gtxid());
        // And the recovered incarnation seals under a bumped generation.
        let mut d = recovered.begin(0, 2);
        d.stage(0, cells[0][2], 44);
        assert!(recovered.prepare(0, &mut heaps, &d).unwrap().is_none());
        recovered.buffer_decision(0, &d);
        recovered.seal_decisions(0);
        assert_eq!(
            recovered.attribute(d.gtxid()).unwrap().generation,
            2,
            "recovered incarnation must seal under a new generation"
        );
    }

    #[test]
    fn group_size_one_seals_every_submission() {
        // A pool with group size 1 seals every submission immediately:
        // the per-transaction coordinator.
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(1, 1);
        for t in 0..3u64 {
            let mut txn = pool.begin(0, 2);
            txn.stage((t % 2) as usize, cells[(t % 2) as usize][0], t + 1);
            assert_eq!(
                pool.submit(0, &mut heaps, &txn).unwrap(),
                SubmitOutcome::Committed { group: 1 }
            );
        }
        assert_eq!(pool.buffered(), 0);
    }

    #[test]
    fn age_trigger_seals_a_lagging_group() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(1, 64).with_group_age(Nanos::ZERO);
        let mut txn = pool.begin(0, 2);
        txn.stage(0, cells[0][0], 5);
        // Size trigger is far away, but a zero age expires immediately.
        assert_eq!(
            pool.submit(0, &mut heaps, &txn).unwrap(),
            SubmitOutcome::Committed { group: 1 }
        );
    }

    #[test]
    fn pool_decision_log_recycles_under_sustained_load() {
        // Far more groups than the 8 KiB decision log holds in one pass:
        // settle markers + compaction must keep it recycling, while one
        // pinned unsettled decision survives every compaction.
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(2, 4);
        let mut pinned = pool.begin(0, 2);
        pinned.stage(0, cells[0][0], 9);
        assert!(pool.prepare(0, &mut heaps, &pinned).unwrap().is_none());
        pool.buffer_decision(0, &pinned);
        pool.seal_decisions(0);
        // Emulate an unreachable participant: phase 2 never runs for the
        // pinned decision, so it stays unsettled for the whole soak.
        pool.sealed.clear();
        for t in 0..2048u64 {
            let coord = (t % 2) as usize;
            let mut txn = pool.begin(coord, 2);
            txn.stage(1, cells[1][(t % 4) as usize], t);
            pool.submit(coord, &mut heaps, &txn).unwrap();
        }
        pool.drain(0, &mut heaps).unwrap();
        assert!(
            recover_decisions(&pool.crash_image()).contains(&pinned.gtxid()),
            "pinned unsettled decision lost to pool compaction"
        );
    }
}
