//! The repository benchmark: four workloads of the WSP reproduction,
//! measured end to end on both clocks, with a traced run that breaks
//! the figures down by layer.
//!
//! A *run* measures one workload for a fixed host duration. It is made
//! of *passes*: each pass sets the workload up from the run seed, runs
//! a fixed, seed-generated op stream, and audits the outputs. Every
//! pass of a run therefore simulates exactly the same thing, which the
//! run checks through the pass's simulated fingerprint; host figures
//! are the median over passes.
//!
//! Simulated time (`sim-ns`, `op/sim-s`) is what the modelled hardware
//! would take. Host time (`ns`, `ms`, `s`, `op/s`) is what the
//! simulator takes to run on the benchmarking machine.

pub mod diff;
pub mod json;
pub mod kv_foc;
pub mod kv_lockfree;
pub mod layers;
pub mod power_cycle;
pub mod probe;
pub mod run;
pub mod stats;
pub mod xshard;

use wsp_pheap::HeapConfig;

pub use layers::{Call, Layers};
pub use run::{run_workload, RunReport};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// YCSB-A through `KvServer::execute` on four FoC+UL shard heaps.
    KvFoc,
    /// Bank transfers through the 2PC coordinator pool, with periodic
    /// fleet crashes resolved against the decision log.
    Xshard2pc,
    /// YCSB-A on one flush-on-fail heap, with a whole-system outage
    /// (save, power loss, recovery ladder) every 5,000 commands.
    PowerCycle,
    /// YCSB-A as Get/Update plans of four simulated clients on one
    /// detectable lock-free hash.
    KvLockfree,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::KvFoc,
        Workload::Xshard2pc,
        Workload::PowerCycle,
        Workload::KvLockfree,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvFoc => "kv-foc",
            Workload::Xshard2pc => "xshard-2pc",
            Workload::PowerCycle => "power-cycle",
            Workload::KvLockfree => "kv-lockfree",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's pass sizes.
    Full,
    /// A tenth of the measured ops, for the benchmark's own tests.
    Short,
}

impl Scale {
    /// Scales a measured-op count.
    #[must_use]
    pub fn ops(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Short => (full / 10).max(1),
        }
    }
}

/// Switches the program already has, set to the benchmark's
/// configuration by [`Knobs::default`]. The sensitivity tests flip one
/// at a time to show that the benchmark sees the layer it claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Pass size.
    pub scale: Scale,
    /// `kv-foc`: FliT per-word flush tracking (`set_flit_enabled`).
    pub flit: bool,
    /// `xshard-2pc`: decisions sealed per group record.
    pub decision_group: usize,
    /// `power-cycle`: the serving heap's configuration.
    pub power_cycle_config: HeapConfig,
    /// `kv-lockfree`: simulated clients sharing the op stream.
    pub lockfree_clients: usize,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            scale: Scale::Full,
            flit: true,
            decision_group: 32,
            power_cycle_config: HeapConfig::Fof,
            lockfree_clients: 4,
        }
    }
}

/// One end-to-end or per-layer metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("host_ops_per_s", "op/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.25),
    e2e("sim_ops_per_s", "op/sim-s", "higher", 0.05),
    e2e("sim_read_p50_ns", "sim-ns", "lower", 0.05),
    e2e("sim_read_tail_ns", "sim-ns", "lower", 0.25),
    e2e("sim_write_p50_ns", "sim-ns", "lower", 0.05),
    e2e("sim_write_tail_ns", "sim-ns", "lower", 0.20),
];

/// Per-layer metrics, printed by every traced run (zero where the
/// workload does not reach the layer).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("cache.accesses", "count", "lower"),
    layer("cache.l1_miss_rate", "ratio", "lower"),
    layer("cache.l3_miss_rate", "ratio", "lower"),
    layer("cache.wbinvd_lines", "count", "lower"),
    layer("cache.host_ns_per_access", "ns", "lower"),
    layer("cache.host_share_bound", "ratio", "lower"),
    layer("pheap.tx_commits", "count", "lower"),
    layer("pheap.epochs_sealed", "count", "lower"),
    layer("pheap.line_flushes", "count", "lower"),
    layer("pheap.log_records", "count", "lower"),
    layer("pheap.flit_elided", "count", "higher"),
    layer("pheap.flit_elision_ratio", "ratio", "higher"),
    layer("pheap.mem.host_ns_per_access", "ns", "lower"),
    layer("pheap.crash.host_ns", "ns", "lower"),
    layer("kvserver.execute.calls", "count", "lower"),
    layer("kvserver.execute.host_ns", "ns", "lower"),
    layer("kvserver.execute.sim_ns", "sim-ns", "lower"),
    layer("txn.submit.calls", "count", "lower"),
    layer("txn.submit.host_ns", "ns", "lower"),
    layer("txn.submit.sim_ns", "sim-ns", "lower"),
    layer("txn.drain.calls", "count", "lower"),
    layer("txn.drain.host_ns", "ns", "lower"),
    layer("txn.decision_groups", "count", "lower"),
    layer("txn.decisions_per_group", "count", "higher"),
    layer("txn.decision_stall", "sim-ns", "lower"),
    layer("txn.prepared", "count", "lower"),
    layer("txn.aborts", "count", "lower"),
    layer("txn.resolve.calls", "count", "lower"),
    layer("txn.resolve.host_ns", "ns", "lower"),
    layer("txn.resolve.sim_ns", "sim-ns", "lower"),
    layer("supervisor.save.calls", "count", "lower"),
    layer("supervisor.save.host_ns", "ns", "lower"),
    layer("supervisor.save.sim_ns", "sim-ns", "lower"),
    layer("supervisor.stage_a_sim_ns", "sim-ns", "lower"),
    layer("supervisor.stage_b_sim_ns", "sim-ns", "lower"),
    layer("supervisor.complete_frac", "ratio", "higher"),
    layer("sim_save_tail_ns", "sim-ns", "lower"),
    layer("ladder.recover.calls", "count", "lower"),
    layer("ladder.recover.host_ns", "ns", "lower"),
    layer("ladder.recover.sim_ns", "sim-ns", "lower"),
    layer("ladder.rungs_attempted", "count", "lower"),
    layer("sim_resume_p50_ns", "sim-ns", "lower"),
    layer("host_outage_p50_ms", "ms", "lower"),
    layer("lockfree.step.calls", "count", "lower"),
    layer("lockfree.step.host_ns", "ns", "lower"),
    layer("lockfree.step.sim_ns", "sim-ns", "lower"),
    layer("lockfree.cas", "count", "lower"),
    layer("lockfree.cas_conflicts", "count", "lower"),
    layer("lockfree.cas_success_ratio", "ratio", "higher"),
    layer("lockfree.helps", "count", "lower"),
    layer("lockfree.steps_per_op", "step/op", "lower"),
    layer("obs.trace_overhead_frac", "ratio", "lower"),
    layer("failed_frac", "ratio", "lower"),
];

/// Looks a metric up by name in either table.
#[must_use]
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
