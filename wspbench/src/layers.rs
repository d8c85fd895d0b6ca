//! Per-layer accounting: the calls the benchmark makes into each
//! layer's public functions, timed on the host clock when the run is
//! traced, plus the counts the program itself keeps.

use std::time::Instant;

use wsp_obs::MetricsSnapshot;
use wsp_pheap::PersistentHeap;
use wsp_units::Nanos;

/// A public function the benchmark calls and times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `KvServer::execute`.
    KvExecute,
    /// `CoordinatorPool::submit`.
    TxnSubmit,
    /// `CoordinatorPool::drain`.
    TxnDrain,
    /// `resolve_cross_shard` plus `CoordinatorPool::recover`.
    TxnResolve,
    /// `supervised_save`.
    SupervisorSave,
    /// `run_recovery_ladder`.
    LadderRecover,
    /// `ThreadMachine::step`.
    LockfreeStep,
    /// `PersistentHeap::crash`.
    HeapCrash,
}

impl Call {
    /// Every call, in slot order.
    pub const ALL: [Call; 8] = [
        Call::KvExecute,
        Call::TxnSubmit,
        Call::TxnDrain,
        Call::TxnResolve,
        Call::SupervisorSave,
        Call::LadderRecover,
        Call::LockfreeStep,
        Call::HeapCrash,
    ];
}

/// Call count and summed host and simulated time of one [`Call`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Host ns spent inside them (traced passes only).
    pub host_ns: u64,
    /// Simulated ns they charged.
    pub sim_ns: u64,
}

/// A heap's own counts over a measured phase: its cache model's
/// `CacheStats` and its `HeapStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapCounts {
    /// Loads plus stores.
    pub accesses: u64,
    /// Hits in the innermost level.
    pub l1_hits: u64,
    /// Accesses that missed every level.
    pub misses: u64,
    /// `clflush` plus `clwb` instructions.
    pub line_flushes: u64,
    /// Undo plus redo log records appended.
    pub log_records: u64,
}

impl HeapCounts {
    /// The counts `heap` has accumulated so far.
    #[must_use]
    pub fn of(heap: &PersistentHeap) -> Self {
        let cache = heap.mem().cache().stats();
        let stats = heap.stats();
        HeapCounts {
            accesses: cache.accesses(),
            l1_hits: cache.hits.first().copied().unwrap_or(0),
            misses: cache.misses,
            line_flushes: cache.clflushes + cache.clwbs,
            log_records: stats.undo_records + stats.redo_records,
        }
    }

    /// Adds the counts accrued between two readings of one heap.
    pub fn add_delta(&mut self, before: &HeapCounts, after: &HeapCounts) {
        self.accesses += after.accesses - before.accesses;
        self.l1_hits += after.l1_hits - before.l1_hits;
        self.misses += after.misses - before.misses;
        self.line_flushes += after.line_flushes - before.line_flushes;
        self.log_records += after.log_records - before.log_records;
    }

    /// Folds the counts into a fingerprint.
    pub fn fold(&self, fp: &mut crate::stats::Fingerprint) {
        fp.words(&[
            self.accesses,
            self.l1_hits,
            self.misses,
            self.line_flushes,
            self.log_records,
        ]);
    }
}

/// Lock-free layer counts (`MachineStats` summed over clients).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockfreeTotals {
    /// CAS attempts.
    pub cas: u64,
    /// CAS attempts that lost a race.
    pub conflicts: u64,
    /// Help notes recorded.
    pub helps: u64,
    /// Visible steps executed.
    pub steps: u64,
}

/// Everything one pass records per layer.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    traced: bool,
    calls: [CallStats; Call::ALL.len()],
    /// Heap counts of the measured phase.
    pub heap: HeapCounts,
    /// Lock-free layer counts.
    pub lockfree: LockfreeTotals,
    /// The program's own `obs` counters and histograms (traced passes).
    pub obs: Option<MetricsSnapshot>,
}

impl Layers {
    /// Fresh accounting; host time is taken only when `traced`.
    #[must_use]
    pub fn new(traced: bool) -> Self {
        Layers {
            traced,
            ..Layers::default()
        }
    }

    /// Runs `f` as one call of `call`, timing it when traced.
    #[inline]
    pub fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let slot = &mut self.calls[call as usize];
        slot.calls += 1;
        if !self.traced {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.calls[call as usize].host_ns += start.elapsed().as_nanos() as u64;
        out
    }

    /// Adds what one measured phase's `obs` capture recorded.
    pub fn absorb(&mut self, metrics: Option<MetricsSnapshot>) {
        match (&mut self.obs, metrics) {
            (Some(mine), Some(more)) => mine.merge(&more),
            (mine @ None, more) => *mine = more,
            (Some(_), None) => {}
        }
    }

    /// A program counter recorded by the traced measured phases (0 in
    /// untraced passes).
    #[must_use]
    pub fn counter(&self, id: wsp_obs::Ctr) -> u64 {
        self.obs.as_ref().map_or(0, |m| m.counter(id))
    }

    /// Charges simulated time to `call`.
    pub fn sim(&mut self, call: Call, d: Nanos) {
        self.calls[call as usize].sim_ns += d.as_nanos();
    }

    /// The accumulated stats of `call`.
    #[must_use]
    pub fn call(&self, call: Call) -> CallStats {
        self.calls[call as usize]
    }

    /// Folds the deterministic parts (call counts, simulated time,
    /// program counts) into a fingerprint.
    pub fn fold(&self, fp: &mut crate::stats::Fingerprint) {
        for c in &self.calls {
            fp.words(&[c.calls, c.sim_ns]);
        }
        self.heap.fold(fp);
        let lf = self.lockfree;
        fp.words(&[lf.cas, lf.conflicts, lf.helps, lf.steps]);
    }
}
