//! Sensitivity checks: each flips one switch the program already has
//! and asserts that the benchmark sees the layer it claims to measure —
//! the named layer metric and end-to-end metric move in the predicted
//! direction, the end-to-end one by more than its `BENCHMARK.json`
//! bound. Short passes; run with `--release` for speed.

use wspbench::{run_workload, spec, Knobs, RunReport, Scale, Workload};

const SEED: u64 = 7;

fn short() -> Knobs {
    Knobs {
        scale: Scale::Short,
        ..Knobs::default()
    }
}

/// A traced run of the minimum pass count, which must be correct.
fn run(workload: Workload, knobs: Knobs) -> RunReport {
    let report = run_workload(workload, SEED, 0.0, true, &knobs);
    assert!(
        report.correct(),
        "{}: {:?}",
        workload.name(),
        report.failures
    );
    report
}

fn metric(r: &RunReport, name: &str) -> f64 {
    r.metric(name)
        .unwrap_or_else(|| panic!("{name} missing from the report"))
}

fn bound(name: &str) -> f64 {
    spec(name)
        .and_then(|s| s.bound)
        .expect("an end-to-end metric with a bound")
}

/// `after` exceeds `before` by more than the metric's bound.
fn rises_beyond_bound(name: &str, before: &RunReport, after: &RunReport) {
    let (b, a) = (metric(before, name), metric(after, name));
    eprintln!("{name}: {b} -> {a} (bound {})", bound(name));
    assert!(
        a > b * (1.0 + bound(name)),
        "{name}: {b} -> {a} does not rise beyond the bound"
    );
}

/// `after` differs from `before` by more than the metric's bound.
fn moves_beyond_bound(name: &str, before: &RunReport, after: &RunReport) {
    let (b, a) = (metric(before, name), metric(after, name));
    eprintln!("{name}: {b} -> {a} (bound {})", bound(name));
    assert!(
        (a - b).abs() > b * bound(name),
        "{name}: {b} -> {a} does not move beyond the bound"
    );
}

#[test]
fn kv_foc_sees_flit_tracking() {
    let on = run(Workload::KvFoc, short());
    let off = run(
        Workload::KvFoc,
        Knobs {
            flit: false,
            ..short()
        },
    );
    // With epoch 32, FliT's saving is the duplicate a repeated write
    // never buffers (`pheap.flit_elided`) and the cheaper per-word
    // barrier. The seal coalesces duplicates either way, so line flushes
    // and log records are the same with FliT off: both modes reach the
    // same durable state.
    assert!(
        metric(&on, "pheap.flit_elided") > 0.0,
        "FliT elides repeated writes"
    );
    assert_eq!(
        metric(&off, "pheap.flit_elided"),
        0.0,
        "nothing is elided with FliT off"
    );
    for same in ["pheap.line_flushes", "pheap.log_records"] {
        assert_eq!(metric(&off, same), metric(&on, same), "{same}");
    }
    rises_beyond_bound("sim_write_p50_ns", &on, &off);
}

#[test]
fn xshard_sees_decision_grouping() {
    let grouped = run(Workload::Xshard2pc, short());
    let single = run(
        Workload::Xshard2pc,
        Knobs {
            decision_group: 1,
            ..short()
        },
    );
    assert!(
        metric(&single, "txn.decision_groups") > metric(&grouped, "txn.decision_groups"),
        "group 1 must seal more decision records"
    );
    moves_beyond_bound("sim_write_tail_ns", &grouped, &single);
}

#[test]
fn power_cycle_sees_the_flush_layer() {
    let fof = run(Workload::PowerCycle, short());
    let foc = run(
        Workload::PowerCycle,
        Knobs {
            power_cycle_config: wsp_pheap::HeapConfig::FocUndo,
            ..short()
        },
    );
    assert_eq!(
        metric(&fof, "pheap.line_flushes"),
        0.0,
        "flush-on-fail serving issues no flushes"
    );
    assert!(
        metric(&foc, "pheap.line_flushes") > 0.0,
        "flush-on-commit serving flushes"
    );
    rises_beyond_bound("sim_write_p50_ns", &fof, &foc);
}

#[test]
fn kv_lockfree_sees_cas_contention() {
    let one = run(
        Workload::KvLockfree,
        Knobs {
            lockfree_clients: 1,
            ..short()
        },
    );
    let four = run(Workload::KvLockfree, short());
    assert_eq!(
        metric(&one, "lockfree.cas_conflicts"),
        0.0,
        "one client never loses a CAS"
    );
    assert!(
        metric(&four, "lockfree.cas_conflicts") > 0.0,
        "four clients contend"
    );
    rises_beyond_bound("sim_ops_per_s", &one, &four);
}
