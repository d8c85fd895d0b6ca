//! The run loop: repeats identical passes of one workload for the
//! requested host duration, checks that every pass simulated the same
//! thing, and reduces the passes to the benchmark's metrics.

use std::time::{Duration, Instant};

use wsp_obs as obs;
use wsp_obs::{Ctr, Hist, MetricsSnapshot};
use wsp_units::Nanos;

use crate::json::Json;
use crate::layers::{Call, Layers};
use crate::stats::{self, Fingerprint, Tail};
use crate::{kv_foc, kv_lockfree, power_cycle, probe, xshard, Knobs, Workload};

/// Passes a run makes at least, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Host speed on a shared machine rises in bursts: between runs, the
/// median pass moves by more than the benchmark's bound, while the
/// slowest tenth of passes stays put. Host figures are therefore the
/// throughput sustained by nine passes in ten (and the set-up time nine
/// in ten beat).
const HOST_QUANTILE: f64 = 0.1;

/// Everything one pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host time from the first set-up step to the first measured op.
    pub setup: Duration,
    /// Host time of the measured phase (audits excluded).
    pub host: Duration,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that completed and were acknowledged.
    pub ops: u64,
    /// Heap errors, unexpected aborts or refusals, and audit misses.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Simulated latency of every read, in issue order.
    pub reads: Vec<u64>,
    /// Simulated latency of every write, in issue order.
    pub writes: Vec<u64>,
    /// Simulated serving time the measured ops took.
    pub sim_serving: Nanos,
    /// `StagedSaveReport::used` of every outage.
    pub saves: Vec<u64>,
    /// Stage-A cost of every outage.
    pub stage_a: Vec<u64>,
    /// Stage-B cost of every outage.
    pub stage_b: Vec<u64>,
    /// Saves that ended `Complete`.
    pub saves_complete: u64,
    /// Simulated power-on-to-serving time of every outage.
    pub resumes: Vec<u64>,
    /// Host time of every save → crash → ladder → reopen cycle.
    pub outage_host: Vec<Duration>,
    /// Per-layer accounting.
    pub layers: Layers,
    /// [`Pass::fingerprint`], taken by the run loop before it drops the
    /// latency samples of every pass but the first.
    pub digest: u64,
}

impl Pass {
    /// Records a failure.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Sizes the read and write sample buffers for `ops` measured ops,
    /// so a pass's allocations do not depend on its op mix.
    pub fn reserve_samples(&mut self, ops: usize) {
        self.reads.reserve_exact(ops);
        self.writes.reserve_exact(ops);
    }

    /// Digest of everything the pass simulated: latencies, simulated
    /// clocks, and the program's counters. Host time is left out, so
    /// passes, runs and builds that simulate the same thing agree.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::default();
        fp.words(&[
            self.attempted,
            self.ops,
            self.failed,
            self.sim_serving.as_nanos(),
        ]);
        for v in [
            &self.reads,
            &self.writes,
            &self.saves,
            &self.stage_a,
            &self.stage_b,
            &self.resumes,
        ] {
            fp.words(v);
        }
        fp.word(self.saves_complete);
        self.layers.fold(&mut fp);
        fp.digest()
    }
}

/// Runs `f` as a measured phase: inside an `obs` capture when traced
/// (the recorder is off otherwise), returning what it recorded.
pub fn measured<T>(traced: bool, f: impl FnOnce() -> T) -> (T, Option<MetricsSnapshot>) {
    if traced {
        let (out, cap) = obs::capture(f);
        (out, Some(cap.metrics))
    } else {
        (f(), None)
    }
}

/// One pass of `workload`.
#[must_use]
pub fn pass(workload: Workload, seed: u64, knobs: &Knobs, traced: bool) -> Pass {
    match workload {
        Workload::KvFoc => kv_foc::pass(seed, knobs, traced),
        Workload::Xshard2pc => xshard::pass(seed, knobs, traced),
        Workload::PowerCycle => power_cycle::pass(seed, knobs, traced),
        Workload::KvLockfree => kv_lockfree::pass(seed, knobs, traced),
    }
}

/// The reduced result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Untraced passes made.
    pub passes: usize,
    /// Traced passes made.
    pub traced_passes: usize,
    /// Ops attempted over every pass.
    pub attempted: u64,
    /// Failed ops over every pass, including fingerprint mismatches.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// The simulated fingerprint every pass agreed on.
    pub fingerprint: u64,
    /// Read and write tails of one pass.
    pub read_tail: Tail,
    /// Write tail of one pass.
    pub write_tail: Tail,
    /// Save tail of one pass.
    pub save_tail: Tail,
    /// End-to-end metrics by name.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics by name (traced runs only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Host op/s of every untraced pass, in pass order.
    pub pass_ops_per_s: Vec<f64>,
}

impl RunReport {
    /// True when no op failed and every pass simulated the same thing.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Looks a metric up in either table.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The `metrics` object the contract asks for: end-to-end metrics
    /// for an untraced run, per-layer metrics for a traced one.
    #[must_use]
    pub fn metrics_json(&self, traced: bool) -> Json {
        let (table, values) = if traced {
            (crate::PER_LAYER, &self.per_layer)
        } else {
            (crate::END_TO_END, &self.end_to_end)
        };
        Json::Obj(
            table
                .iter()
                .map(|spec| {
                    let v = values
                        .iter()
                        .find(|(n, _)| *n == spec.name)
                        .map_or(0.0, |p| p.1);
                    (
                        spec.name.to_owned(),
                        Json::object([("value", Json::from(v)), ("unit", Json::from(spec.unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The contract's result line.
    #[must_use]
    pub fn result_json(&self, traced: bool) -> Json {
        Json::object([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", self.metrics_json(traced)),
        ])
    }

    /// The detailed report line: workload, seed, fingerprint, tail
    /// percentiles with their sample counts, and every metric measured.
    #[must_use]
    pub fn detail_json(&self) -> Json {
        let tail = |t: &Tail| {
            Json::object([
                ("percentile", Json::from(t.percentile)),
                ("samples", Json::from(t.samples)),
            ])
        };
        let table = |v: &[(&'static str, f64)]| {
            Json::Obj(
                v.iter()
                    .map(|&(n, x)| (n.to_owned(), Json::from(x)))
                    .collect(),
            )
        };
        Json::object([
            ("workload", Json::from(self.workload.name())),
            ("seed", Json::from(self.seed)),
            ("passes", Json::from(self.passes as u64)),
            ("traced_passes", Json::from(self.traced_passes as u64)),
            (
                "fingerprint",
                Json::from(format!("{:016x}", self.fingerprint)),
            ),
            ("read_tail", tail(&self.read_tail)),
            ("write_tail", tail(&self.write_tail)),
            ("save_tail", tail(&self.save_tail)),
            ("end_to_end", table(&self.end_to_end)),
            ("per_layer", table(&self.per_layer)),
            (
                "pass_ops_per_s",
                Json::array(self.pass_ops_per_s.iter().map(|&x| Json::from(x.round()))),
            ),
            (
                "failures",
                Json::array(self.failures.iter().map(|f| Json::from(f.as_str()))),
            ),
        ])
    }
}

fn host_ops_per_s(p: &Pass) -> f64 {
    stats::ratio(p.ops as f64, p.host.as_secs_f64())
}

/// Runs `workload` for `seconds` of host time (at least [`MIN_PASSES`]
/// passes). A traced run alternates untraced and traced passes, so the
/// tracing overhead is measured under the same conditions.
#[must_use]
pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    knobs: &Knobs,
) -> RunReport {
    obs::set_enabled(false);
    let start = Instant::now();
    let probes = traced.then(|| probe::probe(workload, seed));
    let mut plain: Vec<Pass> = Vec::new();
    let mut with_trace: Vec<Pass> = Vec::new();
    // Later passes only need their digest and host figures: dropping
    // their samples keeps memory from growing with the pass count.
    let keep = |passes: &mut Vec<Pass>, mut p: Pass| {
        p.digest = p.fingerprint();
        if !passes.is_empty() {
            for v in [
                &mut p.reads,
                &mut p.writes,
                &mut p.saves,
                &mut p.stage_a,
                &mut p.stage_b,
                &mut p.resumes,
            ] {
                *v = Vec::new();
            }
            p.layers.obs = None;
        }
        passes.push(p);
    };
    let mut peak_rss_mib = 0.0;
    loop {
        keep(&mut plain, pass(workload, seed, knobs, false));
        if plain.len() == 1 {
            // Memory a user of the simulator needs for one pass. The
            // high-water mark of later passes depends on how the
            // allocator happens to reuse freed memory, not on the program.
            peak_rss_mib = stats::peak_rss_mib();
        }
        if traced {
            keep(&mut with_trace, pass(workload, seed, knobs, true));
        }
        if plain.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let first = &plain[0];
    let fingerprint = first.digest;
    let mut attempted = 0;
    let mut failed = 0;
    let mut failures = Vec::new();
    for (i, p) in plain.iter().chain(&with_trace).enumerate() {
        attempted += p.attempted;
        failed += p.failed;
        failures.extend(p.failures.iter().take(4).cloned());
        if p.digest != fingerprint {
            // A pass that simulated something else is wrong as a whole.
            failed += p.attempted;
            failures.push(format!(
                "pass {i} fingerprint {:016x} differs from the first pass's {fingerprint:016x}",
                p.digest
            ));
        }
    }
    failures.truncate(16);

    let mut reads = first.reads.clone();
    reads.sort_unstable();
    let mut writes = first.writes.clone();
    writes.sort_unstable();
    let mut saves = first.saves.clone();
    saves.sort_unstable();
    let read_tail = stats::tail(&reads);
    let write_tail = stats::tail(&writes);
    let save_tail = stats::tail(&saves);

    let host_ops: Vec<f64> = plain.iter().map(host_ops_per_s).collect();
    let setups: Vec<f64> = plain.iter().map(|p| p.setup.as_secs_f64()).collect();
    let end_to_end = vec![
        ("host_ops_per_s", stats::quantile(&host_ops, HOST_QUANTILE)),
        ("setup_s", stats::quantile(&setups, 1.0 - HOST_QUANTILE)),
        ("peak_rss_mib", peak_rss_mib),
        (
            "sim_ops_per_s",
            stats::ratio(first.ops as f64, first.sim_serving.as_secs_f64()),
        ),
        ("sim_read_p50_ns", stats::median_of_sorted(&reads)),
        ("sim_read_tail_ns", read_tail.value),
        ("sim_write_p50_ns", stats::median_of_sorted(&writes)),
        ("sim_write_tail_ns", write_tail.value),
    ];
    let per_layer = match probes {
        Some(probes) => per_layer(&plain, &with_trace, &probes, attempted, failed),
        None => Vec::new(),
    };

    RunReport {
        workload,
        seed,
        passes: plain.len(),
        traced_passes: with_trace.len(),
        attempted,
        failed,
        failures,
        fingerprint,
        read_tail,
        write_tail,
        save_tail,
        end_to_end,
        per_layer,
        pass_ops_per_s: host_ops,
    }
}

/// Per-layer metrics from the traced passes (counts repeat exactly in
/// every pass; host times are medians over passes).
fn per_layer(
    plain: &[Pass],
    traced: &[Pass],
    probes: &probe::Probes,
    attempted: u64,
    failed: u64,
) -> Vec<(&'static str, f64)> {
    let t = &traced[0];
    let l = &t.layers;
    let ctr = |c: Ctr| l.counter(c) as f64;
    let median_of =
        |f: &dyn Fn(&Pass) -> f64| stats::median(&traced.iter().map(f).collect::<Vec<f64>>());
    let host_per_call = |call: Call| {
        median_of(&|p: &Pass| {
            let c = p.layers.call(call);
            stats::ratio(c.host_ns as f64, c.calls as f64)
        })
    };
    let sim_per_call = |call: Call| {
        let c = l.call(call);
        stats::ratio(c.sim_ns as f64, c.calls as f64)
    };
    let heap = l.heap;
    let lf = l.lockfree;
    let traced_host_ns = median_of(&|p: &Pass| p.host.as_nanos() as f64);
    let flushes = ctr(Ctr::FlushIssued);
    let elided = ctr(Ctr::FlushSkipped);
    let mut saves = t.saves.clone();
    saves.sort_unstable();
    let mut resumes = t.resumes.clone();
    resumes.sort_unstable();
    let outage_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.outage_host.iter().map(|d| d.as_secs_f64() * 1e3))
        .collect();
    // Each traced pass runs right after an untraced one, so the pair
    // shares the machine's speed of the moment.
    let slowdowns: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(u, t)| 1.0 - stats::ratio(host_ops_per_s(t), host_ops_per_s(u)))
        .collect();

    let mut out = vec![
        ("cache.accesses", heap.accesses as f64),
        (
            "cache.l1_miss_rate",
            stats::ratio((heap.accesses - heap.l1_hits) as f64, heap.accesses as f64),
        ),
        (
            "cache.l3_miss_rate",
            stats::ratio(heap.misses as f64, heap.accesses as f64),
        ),
        ("cache.wbinvd_lines", ctr(Ctr::WbinvdLinesWritten)),
        ("cache.host_ns_per_access", probes.cache_ns),
        (
            "cache.host_share_bound",
            stats::ratio(probes.cache_ns * heap.accesses as f64, traced_host_ns),
        ),
        ("pheap.tx_commits", ctr(Ctr::TxCommits)),
        ("pheap.epochs_sealed", ctr(Ctr::EpochSeals)),
        ("pheap.line_flushes", heap.line_flushes as f64),
        ("pheap.log_records", heap.log_records as f64),
        ("pheap.flit_elided", elided),
        (
            "pheap.flit_elision_ratio",
            stats::ratio(elided, elided + flushes),
        ),
        ("pheap.mem.host_ns_per_access", probes.mem_ns),
        ("pheap.crash.host_ns", host_per_call(Call::HeapCrash)),
        ("txn.decision_groups", ctr(Ctr::TxnDecisionGroups)),
        (
            "txn.decisions_per_group",
            stats::ratio(ctr(Ctr::TxnDecisions), ctr(Ctr::TxnDecisionGroups)),
        ),
        (
            "txn.decision_stall",
            l.obs.as_ref().map_or(0, |m| {
                m.hist(Hist::TxnDecisionStall).percentile(50.0).as_nanos()
            }) as f64,
        ),
        ("txn.prepared", ctr(Ctr::TxnPrepares)),
        ("txn.aborts", ctr(Ctr::TxnAborts)),
        ("supervisor.stage_a_sim_ns", stats::mean(&t.stage_a)),
        ("supervisor.stage_b_sim_ns", stats::mean(&t.stage_b)),
        (
            "supervisor.complete_frac",
            stats::ratio(t.saves_complete as f64, t.saves.len() as f64),
        ),
        ("sim_save_tail_ns", stats::tail(&saves).value),
        ("ladder.rungs_attempted", ctr(Ctr::RungAttempts)),
        ("sim_resume_p50_ns", stats::median_of_sorted(&resumes)),
        ("host_outage_p50_ms", stats::median(&outage_ms)),
        ("lockfree.cas", lf.cas as f64),
        ("lockfree.cas_conflicts", lf.conflicts as f64),
        (
            "lockfree.cas_success_ratio",
            if lf.cas == 0 {
                0.0
            } else {
                1.0 - lf.conflicts as f64 / lf.cas as f64
            },
        ),
        ("lockfree.helps", lf.helps as f64),
        (
            "lockfree.steps_per_op",
            if lf.steps == 0 {
                0.0
            } else {
                stats::ratio(lf.steps as f64, t.ops as f64)
            },
        ),
        ("obs.trace_overhead_frac", stats::median(&slowdowns)),
        ("failed_frac", stats::ratio(failed as f64, attempted as f64)),
    ];
    // `<layer>.<function>.calls`, `.host_ns` and `.sim_ns`.
    let timed: [(Call, &[&'static str]); 7] = [
        (
            Call::KvExecute,
            &[
                "kvserver.execute.calls",
                "kvserver.execute.host_ns",
                "kvserver.execute.sim_ns",
            ],
        ),
        (
            Call::TxnSubmit,
            &[
                "txn.submit.calls",
                "txn.submit.host_ns",
                "txn.submit.sim_ns",
            ],
        ),
        (Call::TxnDrain, &["txn.drain.calls", "txn.drain.host_ns"]),
        (
            Call::TxnResolve,
            &[
                "txn.resolve.calls",
                "txn.resolve.host_ns",
                "txn.resolve.sim_ns",
            ],
        ),
        (
            Call::SupervisorSave,
            &[
                "supervisor.save.calls",
                "supervisor.save.host_ns",
                "supervisor.save.sim_ns",
            ],
        ),
        (
            Call::LadderRecover,
            &[
                "ladder.recover.calls",
                "ladder.recover.host_ns",
                "ladder.recover.sim_ns",
            ],
        ),
        (
            Call::LockfreeStep,
            &[
                "lockfree.step.calls",
                "lockfree.step.host_ns",
                "lockfree.step.sim_ns",
            ],
        ),
    ];
    for (call, names) in timed {
        let values = [
            l.call(call).calls as f64,
            host_per_call(call),
            sim_per_call(call),
        ];
        out.extend(names.iter().copied().zip(values));
    }
    out
}
