//! Fixed-slot metrics: counters, gauges and latency histograms.
//!
//! Every metric has a compile-time identifier, so the hot path is an
//! array increment — no hashing, no allocation, no string comparison.
//! Snapshots are mergeable (sharded sweep workers each accumulate their
//! own slab; the sweep merges them in deterministic point order) and
//! export to JSON.

use wsp_units::{LatencyHistogram, Nanos};

macro_rules! metric_ids {
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every identifier, in slot order.
            $vis const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of slots.
            $vis const COUNT: usize = $name::ALL.len();

            /// Stable metric name used in JSON exports.
            #[must_use]
            $vis fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Slot index.
            #[must_use]
            $vis fn index(self) -> usize {
                self as usize
            }
        }
    };
}

metric_ids! {
    /// Monotonic event counters across the save/restore/faultsim stack.
    pub enum Ctr {
        /// Figure-4 save steps executed.
        SaveSteps => "save.steps",
        /// Plain saves that completed inside the window.
        SavesCompleted => "save.completed",
        /// Plain saves truncated by an injected fault or the window.
        SavesInterrupted => "save.interrupted",
        /// Supervised saves ending `Complete`.
        SupervisedComplete => "supervisor.complete",
        /// Supervised saves ending `PartialPriority`.
        SupervisedPartial => "supervisor.partial",
        /// Supervised saves ending `Failed`.
        SupervisedFailed => "supervisor.failed",
        /// Glitch storms the debounce filter absorbed.
        GlitchesIgnored => "supervisor.glitches_ignored",
        /// Valid markers written.
        ValidMarkers => "supervisor.valid_markers",
        /// Partial markers written.
        PartialMarkers => "supervisor.partial_markers",
        /// NVDIMM save-command retries absorbed by backoff.
        NvdimmSaveRetries => "nvram.save_retries",
        /// NVDIMM save commands that exhausted their retry budget.
        NvdimmSaveFailures => "nvram.save_failures",
        /// NVDIMM modules armed (save command accepted).
        NvdimmModulesArmed => "nvram.modules_armed",
        /// Restore attempts started.
        RestoreAttempts => "restore.attempts",
        /// Restore refusals (typed `WspError` returns).
        RestoreRefusals => "restore.refusals",
        /// Recovery-ladder rungs attempted.
        RungAttempts => "ladder.rung_attempts",
        /// Ladder rungs that refused and passed the climb downward.
        RungRefusals => "ladder.rung_refusals",
        /// Power cycles taken by crashes during recovery.
        PowerCycles => "ladder.power_cycles",
        /// Ladder runs ending `Recovered`.
        LadderRecovered => "ladder.recovered",
        /// Ladder runs ending `Degraded`.
        LadderDegraded => "ladder.degraded",
        /// Cluster back-end rebuilds performed (bottom rung reached).
        ClusterRebuilds => "cluster.rebuilds",
        /// Heap transactions committed.
        TxCommits => "pheap.commits",
        /// Heap transactions aborted or rolled back.
        TxAborts => "pheap.aborts",
        /// Heap commits refused by STM validation.
        TxConflicts => "pheap.conflicts",
        /// Priority (stage-A) flushes run.
        PriorityFlushes => "pheap.priority_flushes",
        /// Committed data lines made durable by priority flushes.
        PriorityLinesFlushed => "pheap.priority_lines",
        /// `wbinvd` walks of the simulated hierarchy.
        WbinvdWalks => "cache.wbinvd_walks",
        /// Dirty lines written back by `wbinvd` walks.
        WbinvdLinesWritten => "cache.wbinvd_lines",
        /// Faults injected by the sweep engines.
        FaultsInjected => "faultsim.faults_injected",
        /// Durability epochs sealed by the group-commit mode.
        EpochSeals => "pheap.epoch_seals",
        /// Transactions absorbed into sealed epochs.
        EpochTxs => "pheap.epoch_txs",
        /// Duplicate dirty-line flushes coalesced away by epoch sealing.
        EpochLinesCoalesced => "pheap.epoch_coalesced_lines",
        /// KV server commands executed.
        KvOps => "kv.ops",
        /// KV shard result merges performed (one per shard, in shard order).
        KvShardMerges => "kv.shard_merges",
        /// Cross-shard 2PC phase-1 PREPARED records made durable.
        TxnPrepares => "txn.prepares",
        /// Coordinator decision markers made durable.
        TxnDecisions => "txn.decisions",
        /// Fenced group-decision records sealed (each covers one or
        /// more decided gtxids; the batching denominator is
        /// [`Hist::TxnDecisionsPerGroup`]).
        TxnDecisionGroups => "txn.decision_groups",
        /// Per-shard phase-2 commit markers made durable.
        TxnShardCommits => "txn.shard_commits",
        /// Cross-shard transactions aborted (coordinator-initiated or
        /// presumed on recovery).
        TxnAborts => "txn.aborts",
        /// In-doubt shard transactions resolved against the
        /// coordinator's decision log on recovery.
        TxnInDoubtResolved => "txn.indoubt_resolved",
        /// Persistence actions (log record + eventual flush) elided by
        /// the FliT per-word tracking table: the word already had a
        /// pending record, so the write updated it in place.
        FlushSkipped => "pheap.flush_skipped",
        /// Line flushes actually issued by seal/truncation walks — the
        /// denominator for FliT elision rates.
        FlushIssued => "pheap.flush_issued",
        /// Shared-power-domain triage passes: each one ranks every
        /// shard and carves the global window into staged budgets.
        DomainTriageRuns => "domain.triage_runs",
        /// Shards the domain triage sacrificed (no durable image; a
        /// typed refusal routed them to the cluster-rebuild rung).
        ShardsSacrificed => "domain.shards_sacrificed",
        /// Sequential micro-outages fired by the power-storm scenario
        /// family.
        StormOutages => "faultsim.storm_outages",
        /// Committed cross-shard writes re-applied to a rebuilt shard
        /// from the coordinator's routing log.
        TxnReroutedWrites => "txn.rerouted_writes",
        /// Lock-free structure operations completed (all kinds).
        LockfreeOps => "lockfree.ops",
        /// CAS attempts issued by lock-free operations (linearizing
        /// and help-note).
        LockfreeCas => "lockfree.cas_attempts",
        /// CAS attempts that lost a race and retried.
        LockfreeCasConflicts => "lockfree.cas_conflicts",
        /// Help notes recorded before overwriting another thread's
        /// tagged value.
        LockfreeHelps => "lockfree.helps",
        /// Post-crash detectability classifications performed.
        LockfreeRecoveries => "lockfree.recoveries",
        /// Detectability classifications refused with a typed error
        /// (torn descriptor / unresolvable operation).
        LockfreeRefusals => "lockfree.refusals",
    }
}

metric_ids! {
    /// Last-value gauges.
    pub enum Gauge {
        /// Committed-but-unflushed heap lines (stage-A working set).
        UnflushedLines => "pheap.unflushed_lines",
        /// The most recently budgeted residual window, in nanoseconds.
        ResidualWindow => "supervisor.residual_window_ns",
        /// Dirty bytes the last bulk-flush estimate covered.
        DirtyEstimate => "save.dirty_estimate_bytes",
        /// Shortfall of the shared domain window against the fleet's
        /// total full-save demand at the last triage, in nanoseconds
        /// (zero when every shard fit a complete save).
        WindowDeficit => "power.window_deficit",
    }
}

metric_ids! {
    /// Latency histograms (simulated time, recorded via
    /// [`LatencyHistogram`]).
    pub enum Hist {
        /// Per-step save-path times.
        SaveStep => "save.step_time",
        /// Total save-path times.
        SaveTotal => "save.total",
        /// Supervised-save wall clock (`used`).
        SupervisorUsed => "supervisor.used",
        /// Stage-A (priority flush) times.
        StageA => "supervisor.stage_a",
        /// Stage-B (bulk flush) times.
        StageB => "supervisor.stage_b",
        /// Restore-path totals.
        RestoreTotal => "restore.total",
        /// Terminal recovery times reported by the ladder.
        RecoveryTook => "ladder.took",
        /// Per-commit simulated heap time.
        TxCommit => "pheap.commit_time",
        /// `wbinvd` walk latencies.
        Wbinvd => "cache.wbinvd_time",
        /// Epoch-seal (group-commit flush + marker) latencies.
        EpochSeal => "pheap.epoch_seal_time",
        /// Per-command simulated KV service time.
        KvOp => "kv.op_time",
        /// Foreground time an epoch seal actually cost after pipelining:
        /// seal execution minus the portion overlapped with the commits
        /// that ran since the batch was staged. Zero means the seal hid
        /// completely behind foreground work.
        SealStall => "pheap.seal_stall_time",
        /// Decided gtxids covered per sealed group-decision record.
        /// Counts, not times: recorded as `Nanos::new(count)` so the
        /// fixed-slot histogram machinery can track the distribution.
        TxnDecisionsPerGroup => "txn.decisions_per_group",
        /// Time a decided gtxid waited in the coordinator's buffer
        /// before its group record was sealed (simulated clock).
        TxnDecisionStall => "txn.decision_stall_time",
        /// Wall clock consumed by domain-supervised (multi-shard
        /// triage) saves.
        DomainUsed => "domain.used",
        /// Per-operation simulated time of lock-free structure ops.
        LockfreeOp => "lockfree.op_time",
    }
}

/// A mergeable point-in-time copy of every metric slot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub(crate) counters: Vec<u64>,
    pub(crate) gauges: Vec<i64>,
    pub(crate) hists: Vec<LatencyHistogram>,
}

impl MetricsSnapshot {
    /// An all-zero snapshot.
    #[must_use]
    pub fn empty() -> Self {
        MetricsSnapshot {
            counters: vec![0; Ctr::COUNT],
            gauges: vec![0; Gauge::COUNT],
            hists: vec![LatencyHistogram::new(); Hist::COUNT],
        }
    }

    /// Value of one counter.
    #[must_use]
    pub fn counter(&self, id: Ctr) -> u64 {
        self.counters[id.index()]
    }

    /// Value of one gauge.
    #[must_use]
    pub fn gauge(&self, id: Gauge) -> i64 {
        self.gauges[id.index()]
    }

    /// One latency histogram.
    #[must_use]
    pub fn hist(&self, id: Hist) -> &LatencyHistogram {
        &self.hists[id.index()]
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self.hists.iter().all(|h| h.count() == 0)
    }

    /// Merges `other` into `self` (counters add, gauges take the other's
    /// value when it was touched, histograms merge populations).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, &b) in self.gauges.iter_mut().zip(&other.gauges) {
            if b != 0 {
                *a = b;
            }
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Exports every non-zero metric as one JSON object: counters and
    /// gauges by label, histograms as `{count, p50, p95, p99, max}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for &id in Ctr::ALL {
            let v = self.counter(id);
            if v == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{v}", id.label()));
        }
        out.push_str("},\"gauges\":{");
        first = true;
        for &id in Gauge::ALL {
            let v = self.gauge(id);
            if v == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{v}", id.label()));
        }
        out.push_str("},\"histograms\":{");
        first = true;
        for &id in Hist::ALL {
            let h = self.hist(id);
            if h.count() == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                id.label(),
                h.count(),
                h.percentile(50.0).as_nanos(),
                h.percentile(95.0).as_nanos(),
                h.percentile(99.0).as_nanos(),
                h.max().as_nanos(),
            ));
        }
        out.push_str("}}");
        out
    }

    /// A readable first-difference report against `other`, or `None`
    /// when every slot matches. Used by the `parallel_*_matches_serial`
    /// contract tests to explain a sharding-order regression.
    #[must_use]
    pub fn first_difference(&self, other: &MetricsSnapshot) -> Option<String> {
        for &id in Ctr::ALL {
            if self.counter(id) != other.counter(id) {
                return Some(format!(
                    "counter {}: {} vs {}",
                    id.label(),
                    self.counter(id),
                    other.counter(id)
                ));
            }
        }
        for &id in Gauge::ALL {
            if self.gauge(id) != other.gauge(id) {
                return Some(format!(
                    "gauge {}: {} vs {}",
                    id.label(),
                    self.gauge(id),
                    other.gauge(id)
                ));
            }
        }
        for &id in Hist::ALL {
            if self.hist(id) != other.hist(id) {
                return Some(format!(
                    "histogram {}: count {} vs {}",
                    id.label(),
                    self.hist(id).count(),
                    other.hist(id).count()
                ));
            }
        }
        None
    }

    pub(crate) fn record(&mut self, id: Hist, value: Nanos) {
        self.hists[id.index()].record(value);
    }
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_nonempty() {
        let mut seen: Vec<&str> = Vec::new();
        for &c in Ctr::ALL {
            assert!(!c.label().is_empty());
            assert!(!seen.contains(&c.label()), "{}", c.label());
            seen.push(c.label());
        }
        for &g in Gauge::ALL {
            assert!(!seen.contains(&g.label()), "{}", g.label());
            seen.push(g.label());
        }
        for &h in Hist::ALL {
            assert!(!seen.contains(&h.label()), "{}", h.label());
            seen.push(h.label());
        }
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsSnapshot::empty();
        let mut b = MetricsSnapshot::empty();
        a.counters[Ctr::TxCommits.index()] = 2;
        b.counters[Ctr::TxCommits.index()] = 3;
        b.gauges[Gauge::UnflushedLines.index()] = 7;
        a.record(Hist::TxCommit, Nanos::new(100));
        b.record(Hist::TxCommit, Nanos::new(200));
        a.merge(&b);
        assert_eq!(a.counter(Ctr::TxCommits), 5);
        assert_eq!(a.gauge(Gauge::UnflushedLines), 7);
        assert_eq!(a.hist(Hist::TxCommit).count(), 2);
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        assert!(MetricsSnapshot::empty().is_empty());
        let mut m = MetricsSnapshot::empty();
        m.counters[0] = 1;
        assert!(!m.is_empty());
    }

    #[test]
    fn json_skips_zero_slots() {
        let mut m = MetricsSnapshot::empty();
        m.counters[Ctr::TxCommits.index()] = 4;
        m.record(Hist::SaveTotal, Nanos::new(1000));
        let json = m.to_json();
        assert!(json.contains("\"pheap.commits\":4"), "{json}");
        assert!(json.contains("\"save.total\""), "{json}");
        assert!(!json.contains("pheap.aborts"), "{json}");
    }

    #[test]
    fn first_difference_names_the_slot() {
        let mut a = MetricsSnapshot::empty();
        let b = MetricsSnapshot::empty();
        a.counters[Ctr::PowerCycles.index()] = 1;
        let d = a.first_difference(&b).unwrap();
        assert!(d.contains("ladder.power_cycles"), "{d}");
        assert!(MetricsSnapshot::empty()
            .first_difference(&MetricsSnapshot::empty())
            .is_none());
    }
}
