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
//! 2. **Decide** — the coordinator appends one fenced commit record for
//!    the global txid to its own durable torn-bit log. This single
//!    store is the transaction's commit point.
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
//! PR 7's prepare rebates left the *decision record* — one fenced store
//! per transaction — as the dominant serial cost on the 2PC path. The
//! [`CoordinatorPool`] amortizes it exactly the way the epoch seal
//! amortizes local commits: coordinators buffer decided gtxids and seal
//! the whole batch with a single fenced
//! [`wsp_pheap::RecordKind::GroupDecision`] record, so N transactions
//! pay one decision fence. Multiple coordinators share that one
//! decision log, stamped with per-coordinator *generation numbers*
//! packed into each group entry; recovery replays the shared log and
//! [`CoordinatorPool::attribute`]s every decided gtxid back to the
//! coordinator generation that sealed it. Presumed abort extends to
//! torn group records: any strict prefix of the record's words recovers
//! *no* member, so a group is decided all-or-nothing.

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
/// records every committed transaction's write set so a shard whose
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
/// until [`TxnCoordinator::commit`] runs the two-phase seal.
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

/// How a cross-shard commit ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Decision marker durable and every participant holds its local
    /// commit marker.
    Committed,
    /// A prepare was refused before the decision; every already-prepared
    /// participant was rolled back.
    Aborted {
        /// The refusing shard's error.
        reason: String,
    },
}

/// The 2PC coordinator: assigns global txids and owns the durable
/// decision log that in-doubt shards are resolved against.
///
/// # Examples
///
/// ```
/// use wsp_core::TxnCoordinator;
/// use wsp_pheap::{HeapConfig, PersistentHeap};
/// use wsp_units::ByteSize;
///
/// let mut shards = vec![
///     PersistentHeap::create(ByteSize::kib(256), HeapConfig::FocUndo),
///     PersistentHeap::create(ByteSize::kib(256), HeapConfig::FocUndo),
/// ];
/// // One committed cell per shard to transact over.
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
/// let mut coordinator = TxnCoordinator::new();
/// let mut txn = coordinator.begin(shards.len());
/// txn.stage(0, cells[0], 70); // transfer 30 from shard 0 ...
/// txn.stage(1, cells[1], 130); // ... to shard 1
/// let outcome = coordinator.commit(&mut shards, &txn).unwrap();
/// assert_eq!(outcome, wsp_core::TxnOutcome::Committed);
/// ```
#[derive(Debug, Clone)]
pub struct TxnCoordinator {
    mem: PersistentMemory,
    log: TornLog,
    next: u64,
    /// Recorded decisions some participant may still ask for (no durable
    /// local marker everywhere yet). While any remain the decision log
    /// must not truncate; once the set drains every logged decision is
    /// dead weight and the log can recycle.
    unsettled: FastSet<u64>,
    /// The write-routing log, when this coordinator was opened with
    /// [`TxnCoordinator::with_routing`]. `None` keeps the classic
    /// coordinator bit-for-bit unchanged.
    routing: Option<TornLog>,
}

impl Default for TxnCoordinator {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnCoordinator {
    /// A fresh coordinator with an empty, initialized decision log.
    #[must_use]
    pub fn new() -> Self {
        let mut mem = PersistentMemory::new(DECISION_REGION);
        let log = TornLog::new(DECISION_LOG_BASE, DECISION_LOG_CAP, DECISION_TAIL_ADDR);
        log.initialize(&mut mem);
        TxnCoordinator {
            mem,
            log,
            next: 0,
            unsettled: FastSet::default(),
            routing: None,
        }
    }

    /// A fresh coordinator that additionally routes every committed
    /// transaction's write set into a second durable log. Routing costs
    /// one fenced append per write at decision time and buys the storm
    /// path its strongest guarantee: a shard sacrificed by the power
    /// domain's triage can be rebuilt from a *stale* back-end checkpoint
    /// and still end up holding every committed cross-shard write.
    #[must_use]
    pub fn with_routing() -> Self {
        let mut coordinator = Self::new();
        let routing = TornLog::new(ROUTING_LOG_BASE, ROUTING_LOG_CAP, ROUTING_TAIL_ADDR);
        routing.initialize(&mut coordinator.mem);
        coordinator.routing = Some(routing);
        coordinator
    }

    /// [`TxnCoordinator::recover`], for a coordinator that was opened
    /// with [`TxnCoordinator::with_routing`]: the routed write history
    /// is carried across the restart along with the decisions, so a
    /// shard sacrificed *before* the coordinator itself crashed can
    /// still be rebuilt afterwards.
    #[must_use]
    pub fn recover_routed(coordinator_image: &[u8]) -> Self {
        let mut coordinator = Self::recover(coordinator_image);
        let mut routing = TornLog::new(ROUTING_LOG_BASE, ROUTING_LOG_CAP, ROUTING_TAIL_ADDR);
        routing.initialize(&mut coordinator.mem);
        let mut routed = recover_routing(coordinator_image);
        routed.sort_by_key(|w| (w.gtxid, w.shard, w.addr));
        for w in &routed {
            routing.append(
                &mut coordinator.mem,
                &LogRecord::write(
                    w.gtxid,
                    ((w.shard as u64) << ROUTE_SHARD_SHIFT) | w.addr,
                    w.value,
                ),
                true,
            );
        }
        // A settled decision is prunable for *in-doubt* resolution, but
        // the routed-rebuild path still needs it: a shard sacrificed in
        // a later outage is rebuilt from its checkpoint plus a replay of
        // routed writes filtered on the decided set. Re-pin every
        // settled decision the routing log still carries writes for —
        // they stay answerable (and survive compaction as unsettled)
        // until the routing history itself is pruned.
        let decided = recover_decisions(coordinator_image);
        let settled = recover_settled(coordinator_image);
        let mut pins: Vec<u64> = routed
            .iter()
            .map(|w| w.gtxid)
            .filter(|g| settled.contains(g) && decided.contains(g))
            .collect();
        pins.sort_unstable();
        pins.dedup();
        for &gtxid in &pins {
            coordinator
                .log
                .append(&mut coordinator.mem, &LogRecord::commit(gtxid), true);
            coordinator.unsettled.insert(gtxid);
        }
        coordinator.mem.sfence();
        coordinator.routing = Some(routing);
        coordinator
    }

    /// Rebuilds a coordinator from its crashed decision log: every
    /// *unsettled* durable decision is re-appended to a fresh log (so
    /// in-doubt shards can still be resolved against it) and the txid
    /// counter resumes above every decided gtxid — settled or not — as a
    /// restarted coordinator must never reissue a gtxid that a surviving
    /// shard's log already holds a decision marker for, or that shard's
    /// recovery would mistake a new in-doubt transaction for a decided
    /// one.
    ///
    /// Decisions covered by a durable [`RecordKind::Settle`] marker are
    /// *pruned* here: every participant already holds its local phase-2
    /// marker, so no recovery will ever ask for them again and replaying
    /// them forever would only grow the log. Decisions without a settle
    /// marker start out unsettled; call [`TxnCoordinator::settle`] once
    /// every participant is known to hold its local marker. An
    /// issued-but-undecided gtxid from before the crash can be reissued,
    /// which is safe: recovered shards resolved it by presumed abort and
    /// scrubbed their logs, and a surviving shard still holding it
    /// prepared refuses the reissue with a conflict.
    #[must_use]
    pub fn recover(coordinator_image: &[u8]) -> Self {
        let mut coordinator = Self::new();
        let settled = recover_settled(coordinator_image);
        let mut decided: Vec<u64> = recover_decisions(coordinator_image).into_iter().collect();
        decided.sort_unstable();
        for &gtxid in decided.iter().filter(|g| !settled.contains(g)) {
            coordinator
                .log
                .append(&mut coordinator.mem, &LogRecord::commit(gtxid), true);
            coordinator.unsettled.insert(gtxid);
        }
        coordinator.mem.sfence();
        coordinator.next = decided.last().map_or(0, |&g| g - GTXID_BASE + 1);
        coordinator
    }

    /// Simulated time the coordinator's own durable operations have
    /// cost.
    #[must_use]
    pub fn elapsed(&self) -> Nanos {
        self.mem.elapsed()
    }

    /// Opens a cross-shard transaction over `shards` shards.
    pub fn begin(&mut self, shards: usize) -> CrossShardTxn {
        let gtxid = GTXID_BASE + self.next;
        self.next += 1;
        let txn = CrossShardTxn {
            gtxid,
            writes: vec![Vec::new(); shards],
        };
        obs::emit(
            "txn",
            "begin",
            self.mem.elapsed(),
            txn.short_id(),
            shards as i64,
        );
        txn
    }

    /// Phase 1 on one participant: durable PREPARED record on `heap`.
    ///
    /// # Errors
    ///
    /// Whatever [`PersistentHeap::prepare_distributed`] refuses with;
    /// the caller (or [`TxnCoordinator::commit`]) must then abort the
    /// already-prepared participants.
    pub fn prepare_shard(
        &mut self,
        heap: &mut PersistentHeap,
        shard: usize,
        txn: &CrossShardTxn,
    ) -> Result<(), HeapError> {
        heap.prepare_distributed(txn.gtxid, txn.writes_for(shard))?;
        obs::emit(
            "txn",
            "prepare",
            heap.elapsed(),
            shard as i64,
            txn.short_id(),
        );
        obs::count(obs::Ctr::TxnPrepares);
        Ok(())
    }

    /// The commit point: appends the fenced decision record for `txn` to
    /// the coordinator's durable log. After this store the transaction
    /// commits everywhere, no matter which nodes crash.
    pub fn record_decision(&mut self, txn: &CrossShardTxn) {
        self.truncate_if_settled();
        // Route the write set *before* the decision record: a crash
        // between the two leaves routed writes for an undecided gtxid,
        // which replay ignores (presumed abort); the reverse order could
        // leave a decided transaction with no routed writes to rebuild
        // a sacrificed shard from.
        if let Some(routing) = &mut self.routing {
            for shard in txn.participants() {
                for &(addr, value) in txn.writes_for(shard) {
                    routing.append(
                        &mut self.mem,
                        &LogRecord::write(
                            txn.gtxid,
                            ((shard as u64) << ROUTE_SHARD_SHIFT) | addr,
                            value,
                        ),
                        true,
                    );
                }
            }
        }
        self.log
            .append(&mut self.mem, &LogRecord::commit(txn.gtxid), true);
        self.mem.sfence();
        self.unsettled.insert(txn.gtxid);
        obs::emit("txn", "decide", self.mem.elapsed(), txn.short_id(), 1);
        obs::count(obs::Ctr::TxnDecisions);
    }

    /// Phase 2 on one participant: durable local commit marker on
    /// `heap`.
    ///
    /// # Errors
    ///
    /// [`HeapError::NoTransaction`] if the txn was never prepared there.
    pub fn commit_shard(
        &mut self,
        heap: &mut PersistentHeap,
        shard: usize,
        txn: &CrossShardTxn,
    ) -> Result<(), HeapError> {
        heap.commit_distributed(txn.gtxid)?;
        obs::emit(
            "txn",
            "commit_shard",
            heap.elapsed(),
            shard as i64,
            txn.short_id(),
        );
        obs::count(obs::Ctr::TxnShardCommits);
        Ok(())
    }

    /// Rolls back a prepared participant (coordinator-initiated abort).
    ///
    /// # Errors
    ///
    /// [`HeapError::NoTransaction`] if the txn was never prepared there.
    pub fn abort_shard(
        &mut self,
        heap: &mut PersistentHeap,
        shard: usize,
        txn: &CrossShardTxn,
    ) -> Result<(), HeapError> {
        heap.abort_distributed(txn.gtxid)?;
        obs::emit(
            "txn",
            "abort_shard",
            heap.elapsed(),
            shard as i64,
            txn.short_id(),
        );
        Ok(())
    }

    /// Marks `gtxid`'s decision as settled: every participant holds a
    /// durable local marker, so no recovery will ever ask the decision
    /// log for it again. Protocol drivers that record decisions directly
    /// (via [`TxnCoordinator::record_decision`]) must call this once the
    /// phase-2 markers land, or the decision log can never truncate.
    ///
    /// Settling is itself made durable with a [`RecordKind::Settle`]
    /// marker (unfenced — it rides the next fence; losing it merely
    /// means a conservative replay), which is what lets
    /// [`TxnCoordinator::recover`] prune the decision instead of
    /// carrying it forever.
    pub fn settle(&mut self, gtxid: u64) {
        self.unsettled.remove(&gtxid);
        self.log
            .append(&mut self.mem, &LogRecord::settle(gtxid), true);
        self.truncate_if_settled();
    }

    /// Truncates the decision log when it is running low. With nothing
    /// unsettled the whole log is dead weight and drops in one step;
    /// otherwise the unsettled decisions are re-appended ahead of the
    /// new tail first (the PR 6 preserving-truncation protocol), so an
    /// in-doubt shard can still resolve against them at any crash point
    /// while the settled bulk recycles.
    fn truncate_if_settled(&mut self) {
        if !self.log.needs_truncation() {
            return;
        }
        if self.unsettled.is_empty() {
            self.log.truncate(&mut self.mem, true);
            return;
        }
        let mark = self.log.mark();
        let mut live: Vec<u64> = self.unsettled.iter().copied().collect();
        live.sort_unstable();
        for &gtxid in &live {
            self.log
                .append(&mut self.mem, &LogRecord::commit(gtxid), true);
        }
        self.mem.sfence();
        self.log.truncate_to(&mut self.mem, mark, true);
    }

    /// Runs the full two-phase seal for `txn` against `heaps`: prepares
    /// every participant in ascending shard order, records the durable
    /// decision, then writes every participant's commit marker. A
    /// refused prepare aborts the already-prepared participants and
    /// returns [`TxnOutcome::Aborted`] — the transaction is then visible
    /// on no shard.
    ///
    /// # Errors
    ///
    /// Only on protocol misuse (e.g. a participant shard that was
    /// swapped out mid-commit); prepare refusals are a normal
    /// [`TxnOutcome::Aborted`], not an error.
    pub fn commit(
        &mut self,
        heaps: &mut [PersistentHeap],
        txn: &CrossShardTxn,
    ) -> Result<TxnOutcome, HeapError> {
        let participants = txn.participants();
        let clock = |mem_elapsed: Nanos, heaps: &[PersistentHeap]| {
            participants
                .iter()
                .fold(mem_elapsed, |acc, &s| acc + heaps[s].elapsed())
        };
        let t0 = clock(self.mem.elapsed(), heaps);
        let mut prepared: Vec<usize> = Vec::with_capacity(participants.len());
        let mut phase_times: Vec<(usize, Nanos)> = Vec::with_capacity(participants.len());
        for &shard in &participants {
            let p0 = heaps[shard].elapsed();
            match self.prepare_shard(&mut heaps[shard], shard, txn) {
                Ok(()) => {
                    prepared.push(shard);
                    phase_times.push((shard, heaps[shard].elapsed() - p0));
                }
                Err(refusal) => {
                    for &p in &prepared {
                        self.abort_shard(&mut heaps[p], p, txn)?;
                    }
                    obs::emit("txn", "abort", self.mem.elapsed(), txn.short_id(), 0);
                    obs::count(obs::Ctr::TxnAborts);
                    return Ok(TxnOutcome::Aborted {
                        reason: refusal.to_string(),
                    });
                }
            }
        }
        // The participants prepared concurrently in real time; only the
        // slowest one bounds the phase. The fleet clock sums per-shard
        // charges, so rebate every other participant's prepare.
        Self::rebate_overlapped(heaps, &mut phase_times);
        self.record_decision(txn);
        for &shard in &participants {
            let c0 = heaps[shard].elapsed();
            self.commit_shard(&mut heaps[shard], shard, txn)?;
            phase_times.push((shard, heaps[shard].elapsed() - c0));
        }
        // Phase-2 markers land concurrently too.
        Self::rebate_overlapped(heaps, &mut phase_times);
        self.settle(txn.gtxid());
        let t1 = clock(self.mem.elapsed(), heaps);
        obs::observe(obs::Hist::TxnCommit, t1 - t0);
        Ok(TxnOutcome::Committed)
    }

    /// Rebates all but the slowest entry of one concurrent 2PC phase:
    /// the participants ran their prepares (or phase-2 commits) in
    /// parallel, so a fleet clock that sums per-shard time should
    /// advance by the phase's maximum, not its total. Drains `times`
    /// for reuse by the next phase.
    fn rebate_overlapped(heaps: &mut [PersistentHeap], times: &mut Vec<(usize, Nanos)>) {
        if times.len() < 2 {
            times.clear();
            return;
        }
        let slowest = times
            .iter()
            .enumerate()
            .max_by_key(|&(_, &(_, d))| d)
            .map(|(i, _)| i)
            .expect("non-empty");
        for (i, (shard, d)) in times.drain(..).enumerate() {
            if i != slowest {
                heaps[shard].rebate(d);
            }
        }
    }

    /// The coordinator's durable bytes as they would survive a power
    /// failure right now: every fenced decision record, nothing else.
    /// Feed this to [`recover_decisions`] or [`resolve_cross_shard`].
    #[must_use]
    pub fn crash_image(&self) -> Vec<u8> {
        self.mem.clone().crash(false)
    }

    /// Discards the routed write history (a no-op without routing).
    /// Call only once every shard's back-end checkpoint is newer than
    /// every routed write — replayed rebuilds reach no further back
    /// than the surviving routing log.
    pub fn prune_routing(&mut self) {
        if let Some(routing) = &mut self.routing {
            routing.truncate(&mut self.mem, true);
            self.mem.sfence();
        }
    }
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
    /// This coordinator's simulated clock.
    clock: Nanos,
}

/// A pool of concurrent 2PC coordinators sharing one durable decision
/// log, with group-decided commit: decided gtxids buffer until a size
/// (or age) trigger seals them all under a *single* fenced
/// [`RecordKind::GroupDecision`] record — N transactions, one decision
/// fence. Concurrency is modeled on the simulated clock exactly like
/// PR 7's participant rebates: each coordinator owns a clock, shards
/// and the shared log are resources with availability times, and the
/// pool's wall clock is the maximum coordinator clock — so only the
/// slowest coordinator in a group pays unrebated time.
///
/// The decision-log layout matches [`TxnCoordinator`]'s, so
/// [`resolve_cross_shard`] and [`recover_decisions`] work unchanged on
/// a pool's crash image.
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
        }
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
            let h0 = heaps[shard].elapsed();
            match heaps[shard].prepare_distributed(txn.gtxid, txn.writes_for(shard)) {
                Ok(()) => {
                    let end = self.run_on_shard(coordinator, shard, heaps[shard].elapsed() - h0);
                    phase_end = phase_end.max(end);
                    obs::emit("txn", "prepare", end, shard as i64, txn.short_id());
                    obs::count(obs::Ctr::TxnPrepares);
                }
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

    /// Buffers `txn`'s commit decision on `coordinator`. The decision is
    /// *volatile* until a seal covers it: a crash before the covering
    /// group record fences resolves the transaction by presumed abort.
    pub fn buffer_decision(&mut self, coordinator: usize, txn: &CrossShardTxn) {
        self.buffer_on(coordinator, txn.gtxid, txn.participants());
    }

    fn buffer_on(&mut self, coordinator: usize, gtxid: u64, participants: Vec<usize>) {
        let slot = &self.coords[coordinator];
        self.pending.push(PendingDecision {
            coordinator,
            generation: slot.generation,
            gtxid,
            participants,
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
    /// [`HeapError::LogFull`] when the log lacks room for the
    /// compaction's re-sealed group, or afterwards for the new group
    /// record and — with `settle_room` — the settle marker phase 2
    /// appends for each member. A refusal of the second kind comes after
    /// a completed compaction: the re-sealed group is durable, the log
    /// truncated and the pool's simulated clock advanced. The new
    /// group's record is never appended on refusal.
    fn try_seal(&mut self, sealer: usize, settle_room: bool) -> Result<usize, HeapError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        self.compact_decision_log()?;
        let group = self.pending.len() as u64;
        let needed = group + 1 + if settle_room { group } else { 0 };
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
                let h0 = heaps[shard].elapsed();
                heaps[shard].commit_distributed(p.gtxid)?;
                let end = self.run_on_shard(p.coordinator, shard, heaps[shard].elapsed() - h0);
                phase_end = phase_end.max(end);
                obs::emit(
                    "txn",
                    "commit_shard",
                    end,
                    shard as i64,
                    (p.gtxid - GTXID_BASE) as i64,
                );
                obs::count(obs::Ctr::TxnShardCommits);
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
        self.buffer_on(coordinator, txn.gtxid, participants);
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
    /// unsettled decisions (re-sealed as one group record carrying
    /// their original generations) ahead of the new tail.
    fn compact_decision_log(&mut self) -> Result<(), HeapError> {
        if !self.log.needs_truncation() {
            return Ok(());
        }
        let live_words = self.unsettled.len() as u64 + 1;
        if !self.unsettled.is_empty() && self.log.free_words() < live_words {
            return Err(HeapError::LogFull {
                needed_words: live_words,
                free_words: self.log.free_words(),
            });
        }
        let mark = self.log.mark();
        if !self.unsettled.is_empty() {
            let mut live: Vec<u64> = self.unsettled.iter().copied().collect();
            live.sort_unstable();
            let entries: Vec<u64> = live
                .iter()
                .map(|g| pack_group_entry(self.decided[g], *g))
                .collect();
            self.log.append_group_decision(&mut self.mem, &entries, true);
            self.mem.sfence();
        }
        self.log.truncate_to(&mut self.mem, mark, true);
        Ok(())
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
    /// bumped past every generation the log holds for it. Once
    /// [`resolve_cross_shard`] has brought every shard back, call
    /// [`settle_recovered`](Self::settle_recovered) so the re-sealed
    /// decisions do not pile up across later recoveries.
    #[must_use]
    pub fn recover(coordinator_image: &[u8], coordinators: usize, group_size: usize) -> Self {
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
            if coordinator < pool.coords.len() {
                let slot = &mut pool.coords[coordinator];
                let seq = (gtxid - GTXID_BASE) & POOL_SEQ_MASK;
                slot.next_seq = slot.next_seq.max(seq + 1);
                slot.generation = slot.generation.max((generation + 1).min(GROUP_ENTRY_GEN_MAX));
            }
            pool.decided.insert(gtxid, generation);
        }
        let live: Vec<u64> = decided
            .iter()
            .map(|&(g, _)| g)
            .filter(|g| !settled.contains(g))
            .collect();
        if !live.is_empty() {
            let entries: Vec<u64> = live
                .iter()
                .map(|g| pack_group_entry(pool.decided[g], *g))
                .collect();
            pool.log.append_group_decision(&mut pool.mem, &entries, true);
            pool.mem.sfence();
            pool.unsettled.extend(&live);
        }
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

    /// Marks a recovered decision as settled once every participant is
    /// known to hold its phase-2 marker (mirror of
    /// [`TxnCoordinator::settle`]).
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

/// Reads the `WSP_TXN_GROUP` environment knob: the decision group size
/// for workloads and benches that honour it (clamped to at least 1);
/// `default` when unset or unparsable.
#[must_use]
pub fn group_size_from_env(default: usize) -> usize {
    std::env::var("WSP_TXN_GROUP")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(default, |v| v.max(1))
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
/// [`TxnCoordinator::with_routing`]) and returns every durably routed
/// write, decided or not — filter against [`recover_decisions`] before
/// replaying. Empty for a coordinator without routing.
#[must_use]
pub fn recover_routing(coordinator_image: &[u8]) -> Vec<RoutedWrite> {
    // An initialized tail word is never zero (TornLog::initialize packs
    // polarity = true), but a coordinator created without routing leaves
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
/// routing log's reach (see [`TxnCoordinator::prune_routing`]).
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
/// global txids with a durable commit decision — classic per-txn
/// [`RecordKind::Commit`] records and every member of an intact
/// [`RecordKind::GroupDecision`] record alike. Everything absent is, by
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
    matches!(r.kind, RecordKind::Commit | RecordKind::GroupDecision)
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

    fn rig(config: HeapConfig) -> (TxnCoordinator, Vec<PersistentHeap>, Vec<u64>) {
        let mut heaps = Vec::new();
        let mut cells = Vec::new();
        for value in [100u64, 200] {
            let (heap, p) = shard_with_cell(config, value);
            heaps.push(heap);
            cells.push(p.offset());
        }
        (TxnCoordinator::new(), heaps, cells)
    }

    #[test]
    fn two_shard_commit_is_visible_everywhere() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let (mut coordinator, mut heaps, cells) = rig(config);
            let mut txn = coordinator.begin(2);
            txn.stage(0, cells[0], 70);
            txn.stage(1, cells[1], 230);
            let outcome = coordinator.commit(&mut heaps, &txn).unwrap();
            assert_eq!(outcome, TxnOutcome::Committed, "{config}");
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
        let mut coordinator = TxnCoordinator::new();
        let mut txn = coordinator.begin(2);
        txn.stage(0, p0.offset(), 1);
        txn.stage(1, p1.offset(), 2);
        let outcome = coordinator.commit(&mut heaps, &txn).unwrap();
        assert!(matches!(outcome, TxnOutcome::Aborted { .. }), "{outcome:?}");
        assert_eq!(cell(&mut heaps[0]), 100);
        assert_eq!(cell(&mut heaps[1]), 200);
    }

    #[test]
    fn decision_log_round_trips_through_a_crash() {
        let (mut coordinator, mut heaps, cells) = rig(HeapConfig::FocUndo);
        let mut committed_txn = coordinator.begin(2);
        committed_txn.stage(0, cells[0], 1);
        committed_txn.stage(1, cells[1], 2);
        coordinator.commit(&mut heaps, &committed_txn).unwrap();
        let undecided = coordinator.begin(2);
        let decisions = recover_decisions(&coordinator.crash_image());
        assert!(decisions.contains(&committed_txn.gtxid()));
        assert!(!decisions.contains(&undecided.gtxid()));
    }

    #[test]
    fn post_decision_crash_resolves_in_doubt_to_commit() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let (mut coordinator, mut heaps, cells) = rig(config);
            let mut txn = coordinator.begin(2);
            txn.stage(0, cells[0], 11);
            txn.stage(1, cells[1], 22);
            for shard in [0, 1] {
                coordinator
                    .prepare_shard(&mut heaps[shard], shard, &txn)
                    .unwrap();
            }
            coordinator.record_decision(&txn);
            // Power dies before any phase-2 marker.
            let coordinator_image = coordinator.crash_image();
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
            let (mut coordinator, mut heaps, cells) = rig(config);
            let mut txn = coordinator.begin(2);
            txn.stage(0, cells[0], 11);
            txn.stage(1, cells[1], 22);
            for shard in [0, 1] {
                coordinator
                    .prepare_shard(&mut heaps[shard], shard, &txn)
                    .unwrap();
            }
            // Coordinator dies before the decision record.
            let coordinator_image = coordinator.crash_image();
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
        let (mut coordinator, mut heaps, cells) = rig(HeapConfig::FocUndo);
        let mut txn = coordinator.begin(2);
        txn.stage(0, cells[0], 70);
        txn.stage(1, cells[1], 230);
        coordinator.commit(&mut heaps, &txn).unwrap();
        let image = coordinator.crash_image();

        let mut recovered = TxnCoordinator::recover(&image);
        // commit() settled the decision, so recovery pruned it — but the
        // gtxid is still never reissued, even against shards that did
        // not crash.
        let mut txn2 = recovered.begin(2);
        assert!(txn2.gtxid() > txn.gtxid(), "gtxid reuse");
        txn2.stage(0, cells[0], 60);
        txn2.stage(1, cells[1], 240);
        let outcome = recovered.commit(&mut heaps, &txn2).unwrap();
        assert_eq!(outcome, TxnOutcome::Committed);
        for (heap, want) in heaps.iter_mut().zip([60, 240]) {
            assert_eq!(cell(heap), want);
        }
    }

    #[test]
    fn recovery_prunes_settled_decisions_but_keeps_unsettled_ones() {
        // Regression test for recovery-time compaction: a settled
        // decision must vanish from the recovered log, an unsettled one
        // must survive so an in-doubt shard can still resolve to commit,
        // and the txid counter must still clear *both*.
        let (mut coordinator, mut heaps, cells) = rig(HeapConfig::FocUndo);
        let mut settled_txn = coordinator.begin(2);
        settled_txn.stage(0, cells[0], 70);
        settled_txn.stage(1, cells[1], 230);
        coordinator.commit(&mut heaps, &settled_txn).unwrap(); // settles
        let mut unsettled_txn = coordinator.begin(2);
        unsettled_txn.stage(0, cells[0], 60);
        unsettled_txn.stage(1, cells[1], 240);
        for shard in [0, 1] {
            coordinator
                .prepare_shard(&mut heaps[shard], shard, &unsettled_txn)
                .unwrap();
        }
        coordinator.record_decision(&unsettled_txn); // decided, never settled

        let recovered = TxnCoordinator::recover(&coordinator.crash_image());
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
        // against the *recovered* coordinator's log.
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
        // And the counter cleared the pruned gtxid too.
        let mut recovered = recovered;
        assert!(recovered.begin(2).gtxid() > unsettled_txn.gtxid());
    }

    #[test]
    fn preserving_truncation_keeps_unsettled_decisions_under_pressure() {
        // Thousands of settled decisions around one long-lived unsettled
        // decision: the log must recycle (no "log full" panic) while the
        // unsettled decision stays answerable at every point.
        let mut coordinator = TxnCoordinator::new();
        let pinned = coordinator.begin(1);
        coordinator.record_decision(&pinned);
        for i in 0..4096 {
            let txn = coordinator.begin(1);
            coordinator.record_decision(&txn);
            coordinator.settle(txn.gtxid());
            if i % 64 == 0 {
                assert!(
                    recover_decisions(&coordinator.crash_image()).contains(&pinned.gtxid()),
                    "unsettled decision lost to truncation"
                );
            }
        }
        assert!(recover_decisions(&coordinator.crash_image()).contains(&pinned.gtxid()));
    }

    #[test]
    fn fresh_coordinator_recovers_to_empty_state() {
        let coordinator = TxnCoordinator::new();
        let mut recovered = TxnCoordinator::recover(&coordinator.crash_image());
        assert_eq!(recovered.begin(1).gtxid(), GTXID_BASE);
    }

    #[test]
    fn decision_log_truncates_once_decisions_settle() {
        // Far more decisions than the 8 KiB decision log holds in one
        // pass; settling each one lets the log recycle indefinitely
        // (this used to diverge and panic after ~1000 decisions when
        // decisions were recorded outside TxnCoordinator::commit).
        let mut coordinator = TxnCoordinator::new();
        for _ in 0..4096 {
            let txn = coordinator.begin(1);
            coordinator.record_decision(&txn);
            coordinator.settle(txn.gtxid());
        }
    }

    #[test]
    fn routing_log_round_trips_committed_write_sets() {
        let mut heaps = Vec::new();
        let mut cells = Vec::new();
        for value in [100u64, 200] {
            let (heap, p) = shard_with_cell(HeapConfig::FocUndo, value);
            heaps.push(heap);
            cells.push(p.offset());
        }
        let mut coordinator = TxnCoordinator::with_routing();
        let mut txn = coordinator.begin(2);
        txn.stage(0, cells[0], 70);
        txn.stage(1, cells[1], 230);
        coordinator.commit(&mut heaps, &txn).unwrap();
        // Prepared but never decided: routed nothing.
        let mut undecided = coordinator.begin(2);
        undecided.stage(0, cells[0], 1);
        coordinator
            .prepare_shard(&mut heaps[0], 0, &undecided)
            .unwrap();

        let image = coordinator.crash_image();
        let routed = recover_routing(&image);
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
        // A classic coordinator routes nothing at all.
        let (mut classic, mut classic_heaps, classic_cells) = rig(HeapConfig::FocUndo);
        let mut t = classic.begin(2);
        t.stage(0, classic_cells[0], 1);
        t.stage(1, classic_cells[1], 2);
        classic.commit(&mut classic_heaps, &t).unwrap();
        assert!(recover_routing(&classic.crash_image()).is_empty());
    }

    #[test]
    fn reapply_rebuilds_a_sacrificed_shard_from_a_stale_checkpoint() {
        let mut heaps = Vec::new();
        let mut cells = Vec::new();
        let mut checkpoints = Vec::new();
        for value in [100u64, 200] {
            let (heap, p) = shard_with_cell(HeapConfig::FocUndo, value);
            checkpoints.push(heap.clone());
            heaps.push(heap);
            cells.push(p.offset());
        }
        let mut coordinator = TxnCoordinator::with_routing();
        // Two committed transactions touching shard 1; the later value
        // must win the replay.
        for value in [230u64, 260] {
            let mut txn = coordinator.begin(2);
            txn.stage(0, cells[0], 300 - value);
            txn.stage(1, cells[1], value);
            coordinator.commit(&mut heaps, &txn).unwrap();
        }
        let image = coordinator.crash_image();
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
        let mut heaps = Vec::new();
        let mut cells = Vec::new();
        for value in [100u64, 200] {
            let (heap, p) = shard_with_cell(HeapConfig::FocUndo, value);
            heaps.push(heap);
            cells.push(p.offset());
        }
        let mut coordinator = TxnCoordinator::with_routing();
        let mut txn = coordinator.begin(2);
        txn.stage(0, cells[0], 70);
        txn.stage(1, cells[1], 230);
        coordinator.commit(&mut heaps, &txn).unwrap();

        // Coordinator crashes and restarts; the routed history must
        // survive into the *new* coordinator's own crash image.
        let recovered = TxnCoordinator::recover_routed(&coordinator.crash_image());
        let routed = recover_routing(&recovered.crash_image());
        assert_eq!(routed.len(), 2);
        assert!(routed.iter().any(|w| w.shard == 1 && w.value == 230));
        // Pruning empties it once checkpoints catch up.
        let mut recovered = recovered;
        recovered.prune_routing();
        assert!(recover_routing(&recovered.crash_image()).is_empty());
    }

    #[test]
    fn lost_shard_degrades_with_quantified_staleness() {
        let (mut coordinator, mut heaps, cells) = rig(HeapConfig::FocUndo);
        let mut txn = coordinator.begin(2);
        txn.stage(0, cells[0], 11);
        txn.stage(1, cells[1], 22);
        for shard in [0, 1] {
            coordinator
                .prepare_shard(&mut heaps[shard], shard, &txn)
                .unwrap();
        }
        coordinator.record_decision(&txn);
        let coordinator_image = coordinator.crash_image();
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
        let replayed = recover_decisions(&recovered.crash_image());
        assert!(!replayed.contains(&a.gtxid()));
        assert!(!replayed.contains(&b.gtxid()));
        assert!(replayed.contains(&c.gtxid()));
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
    fn group_size_one_matches_classic_decision_count() {
        // A pool with group size 1 seals every submission immediately —
        // the degenerate case the bench compares against.
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
