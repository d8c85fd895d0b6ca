//! `power-cycle`: YCSB-A on one flush-on-fail heap (WSP mode: no log,
//! no flushes) with 8,192 records, and a whole-system outage every
//! [`OUTAGE_EVERY`] commands: `supervised_save` on a clean `PWR_OK`
//! trace under busy load, power loss and power-on, `heap.crash`,
//! `run_recovery_ladder`, `KvServer::open`.
//!
//! One simulated client runs a closed loop. Every write acknowledged
//! before an outage is read back after the recovery; the whole store
//! is read back at the end of the pass. The measured phase covers
//! serving and outages; simulated serving time excludes the downtime,
//! which is reported on its own.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use wsp_cluster::ClusterSpec;
use wsp_core::{
    clean_failure_trace, run_recovery_ladder, supervised_save, LadderInput, LadderRung,
    RecoveryOutcome, RestartStrategy, SaveBudget, SaveVerdict,
};
use wsp_det::{DetRng, Rng};
use wsp_machine::{Machine, SystemLoad};
use wsp_pheap::{BackendStore, PersistentHeap, RecoveryLadder};
use wsp_units::ByteSize;
use wsp_workloads::{Command, KvServer, Response, Zipfian};

use crate::layers::{Call, HeapCounts};
use crate::run::{measured, Pass};
use crate::{Knobs, Layers};

/// Records in the store.
pub const RECORDS: u64 = 8_192;
/// Commands between outages.
pub const OUTAGE_EVERY: u64 = 5_000;
/// Outages in the measured phase of a pass.
pub const OUTAGES: u64 = 20;
/// Heap region.
pub const REGION: ByteSize = ByteSize::mib(2);
/// Zipf skew.
pub const THETA: f64 = 0.99;

struct Node {
    machine: Machine,
    heap: PersistentHeap,
    server: KvServer,
    backend: RecoveryLadder,
    cluster: ClusterSpec,
    load_rng: DetRng,
}

/// The closed-loop client: its command stream and the model of what
/// the store must hold.
struct Client {
    zipf: Zipfian,
    rng: DetRng,
    model: Vec<u64>,
}

impl Client {
    fn next(&mut self) -> Command {
        let key = self.zipf.sample(&mut self.rng);
        if self.rng.gen::<f64>() < 0.5 {
            Command::Get(key)
        } else {
            Command::Set(key, self.rng.gen())
        }
    }
}

/// Serves `commands` closed-loop commands, checking every response.
/// Returns the keys written.
fn serve(
    node: &mut Node,
    commands: u64,
    client: &mut Client,
    layers: &mut Layers,
    pass: &mut Pass,
    record: bool,
) -> BTreeSet<u64> {
    let mut written = BTreeSet::new();
    let (heap, server) = (&mut node.heap, &mut node.server);
    let counts0 = HeapCounts::of(heap);
    let t0 = heap.elapsed();
    for _ in 0..commands {
        let cmd = client.next();
        let model = &mut client.model;
        let before = heap.elapsed();
        let res = layers.time(Call::KvExecute, || server.execute(heap, &cmd));
        let lat = heap.elapsed() - before;
        layers.sim(Call::KvExecute, lat);
        match (&cmd, res) {
            (Command::Get(k), Ok(Response::Value(v))) if v == model[*k as usize] => {
                if record {
                    pass.reads.push(lat.as_nanos());
                }
            }
            (Command::Set(k, v), Ok(Response::Stored)) => {
                model[*k as usize] = *v;
                written.insert(*k);
                if record {
                    pass.writes.push(lat.as_nanos());
                }
            }
            (_, res) => pass.fail(|| format!("{cmd:?} answered {res:?}")),
        }
    }
    if record {
        pass.sim_serving += heap.elapsed() - t0;
        pass.attempted += commands;
        pass.ops += commands;
        layers.heap.add_delta(&counts0, &HeapCounts::of(heap));
    }
    written
}

/// One outage: save, power cycle, crash image, ladder, reopen.
/// Returns `None` when the node did not come back.
fn outage(mut node: Node, layers: &mut Layers, pass: &mut Pass, record: bool) -> Option<Node> {
    let start = Instant::now();
    let seed = node.load_rng.gen();
    node.machine.apply_load(SystemLoad::Busy, seed);
    let (machine, heap) = (&mut node.machine, &mut node.heap);
    let saved = layers.time(Call::SupervisorSave, || {
        supervised_save(
            machine,
            heap,
            SystemLoad::Busy,
            &clean_failure_trace(),
            SaveBudget::trusting(),
        )
    });
    let report = match saved {
        Ok(r) => r,
        Err(e) => {
            pass.fail(|| format!("supervised save: {e}"));
            return None;
        }
    };
    layers.sim(Call::SupervisorSave, report.used);
    let complete = report.verdict == SaveVerdict::Complete;
    if record {
        pass.saves.push(report.used.as_nanos());
        pass.stage_a.push(report.stage_a.as_nanos());
        pass.stage_b.push(report.stage_b.as_nanos());
        pass.saves_complete += u64::from(complete);
    }
    if !complete {
        pass.fail(|| format!("save ended {:?}", report.verdict));
    }
    node.machine.system_power_loss();
    node.machine.system_power_on();
    let heap = node.heap;
    let image = layers.time(Call::HeapCrash, || heap.crash(complete));
    let (machine, backend, cluster) = (&mut node.machine, &node.backend, &node.cluster);
    let (ladder, recovered) = layers.time(Call::LadderRecover, || {
        run_recovery_ladder(LadderInput {
            machine,
            strategy: RestartStrategy::RestorePathReinit,
            image: Some(image),
            backend,
            cluster,
            crash_at: None,
        })
    });
    let took = match ladder.outcome {
        RecoveryOutcome::Recovered {
            rung: LadderRung::LocalWsp,
            took,
        } => took,
        other => {
            pass.fail(|| format!("ladder ended {other:?}"));
            return None;
        }
    };
    layers.sim(Call::LadderRecover, took);
    let mut heap = recovered?;
    let server = match KvServer::open(&mut heap) {
        Ok(s) => s,
        Err(e) => {
            pass.fail(|| format!("reopen: {e}"));
            return None;
        }
    };
    if record {
        pass.resumes.push(took.as_nanos());
        pass.outage_host.push(start.elapsed());
    }
    Some(Node {
        heap,
        server,
        ..node
    })
}

/// Reads `keys` back and checks each against the model.
fn audit(node: &mut Node, keys: impl IntoIterator<Item = u64>, model: &[u64], pass: &mut Pass) {
    let table = node.server.table();
    for k in keys {
        match table.get(&mut node.heap, k) {
            Ok(Some(v)) if v == model[k as usize] => {}
            got => pass.fail(|| {
                format!(
                    "audit: key {k} read {got:?}, expected {}",
                    model[k as usize]
                )
            }),
        }
    }
}

/// One pass: set-up (with one warm-up interval and outage), measured
/// intervals, audits.
#[must_use]
pub fn pass(seed: u64, knobs: &Knobs, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut layers = Layers::new(traced);
    let setup = Instant::now();
    let mut rng = DetRng::seed_from_u64(seed);
    let model: Vec<u64> = (0..RECORDS).map(|_| rng.gen()).collect();
    let mut heap = PersistentHeap::create(REGION, knobs.power_cycle_config);
    let server = KvServer::create(&mut heap).expect("fresh heap holds the table");
    let table = server.table();
    for (k, &v) in model.iter().enumerate() {
        table
            .insert(&mut heap, k as u64, v)
            .expect("preload fits the region");
    }
    let mut backend = RecoveryLadder::new(BackendStore::disk_array());
    backend.checkpoint(&heap);
    let mut node = Node {
        machine: Machine::intel_testbed(),
        heap,
        server,
        backend,
        cluster: ClusterSpec::memcache_tier(64),
        load_rng: rng.split(),
    };
    let mut client = Client {
        zipf: Zipfian::new(RECORDS, THETA),
        rng: rng.split(),
        model,
    };

    let mut warm = Layers::new(false);
    serve(
        &mut node,
        OUTAGE_EVERY,
        &mut client,
        &mut warm,
        &mut pass,
        false,
    );
    let Some(node) = outage(node, &mut warm, &mut pass, false) else {
        pass.setup = setup.elapsed();
        return pass;
    };
    pass.setup = setup.elapsed();

    let mut host = Duration::ZERO;
    let mut node = Some(node);
    let outages = knobs
        .scale
        .ops(OUTAGES * OUTAGE_EVERY)
        .div_ceil(OUTAGE_EVERY);
    pass.reserve_samples((outages * OUTAGE_EVERY) as usize);
    for _ in 0..outages {
        let Some(mut n) = node.take() else { break };
        let start = Instant::now();
        let ((next, written), metrics) = measured(traced, || {
            let written = serve(
                &mut n,
                OUTAGE_EVERY,
                &mut client,
                &mut layers,
                &mut pass,
                true,
            );
            (outage(n, &mut layers, &mut pass, true), written)
        });
        host += start.elapsed();
        layers.absorb(metrics);
        node = next;
        if let Some(n) = node.as_mut() {
            audit(n, written, &client.model, &mut pass);
        }
    }
    if let Some(n) = node.as_mut() {
        audit(n, 0..RECORDS, &client.model, &mut pass);
    }
    pass.host = host;
    pass.layers = layers;
    pass
}
