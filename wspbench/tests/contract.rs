//! The benchmark against its own declaration: `BENCHMARK.json` lists
//! exactly the workloads and metrics the binary prints, every workload
//! is deterministic per seed, and each traced run reaches the layers
//! its workload claims.

use std::collections::BTreeSet;

use wspbench::json::{compact, Json};
use wspbench::{run_workload, Knobs, MetricSpec, Scale, Workload, END_TO_END, PER_LAYER};

fn declaration() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn short() -> Knobs {
    Knobs {
        scale: Scale::Short,
        ..Knobs::default()
    }
}

fn names(list: &Json) -> Vec<String> {
    match list {
        Json::Arr(items) => items
            .iter()
            .map(|i| {
                i.get("name")
                    .and_then(Json::as_str)
                    .expect("named entry")
                    .to_owned()
            })
            .collect(),
        _ => panic!("expected a list"),
    }
}

fn check_table(list: &Json, table: &[MetricSpec]) {
    let Json::Arr(items) = list else {
        panic!("expected a metric list")
    };
    assert_eq!(items.len(), table.len());
    for (item, spec) in items.iter().zip(table) {
        assert_eq!(item.get("name").and_then(Json::as_str), Some(spec.name));
        assert_eq!(
            item.get("unit").and_then(Json::as_str),
            Some(spec.unit),
            "{}",
            spec.name
        );
        assert_eq!(
            item.get("better").and_then(Json::as_str),
            Some(spec.better),
            "{}",
            spec.name
        );
        assert_eq!(
            item.get("bound").and_then(Json::as_f64),
            spec.bound,
            "{}",
            spec.name
        );
    }
}

#[test]
fn declaration_matches_the_binary() {
    let doc = declaration();
    let workloads = names(doc.get("workloads").expect("workloads"));
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
    check_table(doc.get("end_to_end").expect("end_to_end"), END_TO_END);
    check_table(doc.get("per_layer").expect("per_layer"), PER_LAYER);
    let all: BTreeSet<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "metric names are unique"
    );
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
}

#[test]
fn result_lines_carry_exactly_the_declared_metrics() {
    for traced in [false, true] {
        let report = run_workload(Workload::KvFoc, 3, 0.0, traced, &short());
        let line = compact(&report.result_json(traced));
        let doc = Json::parse(&line).expect("one-line JSON");
        let keys: Vec<&str> = doc
            .entries()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics = doc
            .get("metrics")
            .and_then(Json::entries)
            .expect("metrics object");
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = table.iter().map(|m| m.name).collect();
        assert_eq!(printed, declared);
    }
}

#[test]
fn same_seed_same_fingerprint_and_other_seed_differs() {
    for w in Workload::ALL {
        let a = run_workload(w, 11, 0.0, false, &short());
        let b = run_workload(w, 11, 0.0, false, &short());
        let c = run_workload(w, 12, 0.0, false, &short());
        assert!(a.correct() && b.correct() && c.correct(), "{}", w.name());
        assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
        assert_ne!(a.fingerprint, c.fingerprint, "{}", w.name());
        let sim = |r: &wspbench::RunReport| {
            r.end_to_end
                .iter()
                .filter(|(n, _)| n.starts_with("sim_"))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(sim(&a), sim(&b), "{}", w.name());
    }
}

#[test]
fn traced_runs_reach_each_workloads_layers() {
    let reaches: [(Workload, &[&str]); 4] = [
        (
            Workload::KvFoc,
            &[
                "kvserver.execute.calls",
                "pheap.tx_commits",
                "pheap.epochs_sealed",
                "cache.accesses",
            ],
        ),
        (
            Workload::Xshard2pc,
            &[
                "txn.submit.calls",
                "txn.decision_groups",
                "txn.prepared",
                "txn.resolve.calls",
            ],
        ),
        (
            Workload::PowerCycle,
            &[
                "supervisor.save.calls",
                "sim_save_tail_ns",
                "ladder.recover.calls",
                "sim_resume_p50_ns",
            ],
        ),
        (
            Workload::KvLockfree,
            &[
                "lockfree.step.calls",
                "lockfree.cas",
                "lockfree.steps_per_op",
            ],
        ),
    ];
    for (w, layer_metrics) in reaches {
        let r = run_workload(w, 5, 0.0, true, &short());
        assert!(r.correct(), "{}: {:?}", w.name(), r.failures);
        for name in layer_metrics {
            assert!(
                r.metric(name).unwrap_or(0.0) > 0.0,
                "{}: {name} is zero",
                w.name()
            );
        }
        assert!(r.metric("obs.trace_overhead_frac").is_some());
        assert_eq!(r.metric("failed_frac"), Some(0.0));
    }
}
