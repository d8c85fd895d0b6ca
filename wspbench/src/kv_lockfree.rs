//! `kv-lockfree`: YCSB-A as Get/Update plans for four simulated
//! clients on one detectable lock-free hash (`LfRegion`, flush-on-commit
//! policy, 4,096 records). The benchmark drives `ThreadMachine::step`
//! itself, picking the next client uniformly at random from a stream
//! seeded by the run seed. Each client's clock advances only by its own
//! steps' simulated time, so the simulated serving time is the slowest
//! client's clock.
//!
//! At the end of a pass the region crashes; every client's last
//! operation is classified by `recover_op` on the recovered image, and
//! every key is read back through the structure and checked against a
//! real-time-order model of the updates.

use std::collections::HashMap;
use std::time::Instant;

use wsp_det::{DetRng, Rng};
use wsp_pheap::lockfree::{
    preload_hash, recover_op, recovered_arena_next, FlushPolicy, LfLayout, LfRegion, OpKind,
    OpResult, OpVerdict, ThreadMachine,
};
use wsp_units::Nanos;
use wsp_workloads::Zipfian;

use crate::layers::Call;
use crate::run::{measured, Pass};
use crate::{Knobs, Layers};

/// Records in the hash.
pub const RECORDS: u64 = 4_096;
/// Measured operations per pass, split evenly over the clients.
pub const MEASURED_OPS: u64 = 96_000;
/// Warm-up operations per pass (part of set-up).
pub const WARMUP_OPS: u64 = 9_600;
/// Zipf skew.
pub const THETA: f64 = 0.99;

/// One update as the model sees it, stamped with the global step count
/// at which its operation began and returned.
#[derive(Debug, Clone, Copy)]
struct Update {
    began: u64,
    returned: u64,
    value: u64,
}

fn plan(zipf: &Zipfian, rng: &mut DetRng, ops: u64) -> Vec<OpKind> {
    (0..ops)
        .map(|_| {
            let key = zipf.sample(rng);
            let roll: f64 = rng.gen();
            if roll < 0.5 {
                OpKind::Get(key)
            } else {
                OpKind::Update(key, roll.to_bits())
            }
        })
        .collect()
}

/// Whether `key` may hold `value` after every update: the preload value
/// when it was never updated, otherwise the value of an update that no
/// other update began after.
fn allowed(key: u64, preload: &[u64], updates: &HashMap<u64, Vec<Update>>, value: u64) -> bool {
    match updates.get(&key) {
        None => value == preload[key as usize],
        Some(us) => {
            let latest_start = us.iter().map(|u| u.began).max().unwrap_or(0);
            us.iter()
                .any(|u| u.value == value && u.returned >= latest_start)
        }
    }
}

/// The seeded scheduler and the update history the audit checks
/// against.
struct Scheduler {
    rng: DetRng,
    /// Visible steps executed so far: the model's real-time clock.
    steps: u64,
    updates: HashMap<u64, Vec<Update>>,
}

impl Scheduler {
    /// Runs `machines` to completion under uniform random scheduling.
    /// Returns each client's simulated clock.
    fn run(
        &mut self,
        region: &mut LfRegion,
        machines: &mut [ThreadMachine],
        layers: &mut Layers,
        pass: &mut Pass,
        record: bool,
    ) -> Vec<Nanos> {
        let clients = machines.len();
        let mut clocks = vec![Nanos::ZERO; clients];
        let mut op_start = vec![Nanos::ZERO; clients];
        let mut began = vec![self.steps; clients];
        for m in machines.iter_mut() {
            m.prepare(region);
        }
        loop {
            let live: Vec<usize> = (0..clients).filter(|&i| !machines[i].done()).collect();
            if live.is_empty() {
                return clocks;
            }
            let i = live[self.rng.gen_range(0..live.len())];
            let m = &mut machines[i];
            let before = region.elapsed();
            let returned = m.results().len();
            layers.time(Call::LockfreeStep, || m.step(region));
            let spent = region.elapsed() - before;
            layers.sim(Call::LockfreeStep, spent);
            clocks[i] += spent;
            self.steps += 1;
            for idx in returned..m.results().len() {
                let lat = (clocks[i] - op_start[i]).as_nanos();
                op_start[i] = clocks[i];
                match (m.plan()[idx], m.results()[idx]) {
                    (OpKind::Get(_), OpResult::Found(_)) => {
                        if record {
                            pass.reads.push(lat);
                        }
                    }
                    (OpKind::Update(key, value), OpResult::Updated) => {
                        self.updates.entry(key).or_default().push(Update {
                            began: began[i],
                            returned: self.steps,
                            value,
                        });
                        if record {
                            pass.writes.push(lat);
                        }
                    }
                    (op, res) => pass.fail(|| format!("client {i}: {op:?} returned {res:?}")),
                }
                began[i] = self.steps;
            }
        }
    }
}

/// One pass: set-up with warm-up, measured phase, final crash, audit.
#[must_use]
pub fn pass(seed: u64, knobs: &Knobs, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut layers = Layers::new(traced);
    let setup = Instant::now();
    let clients = knobs.lockfree_clients;
    let ops = knobs.scale.ops(MEASURED_OPS);
    let warm_ops = knobs.scale.ops(WARMUP_OPS);
    let per_client = ops / clients as u64;
    let warm_per_client = warm_ops / clients as u64;

    let mut rng = DetRng::seed_from_u64(seed);
    let preload: Vec<u64> = (0..RECORDS).map(|_| rng.gen()).collect();
    let slots = (RECORDS * 2).next_power_of_two() as usize;
    // Every update publishes a fresh entry line in its client's arena;
    // the preload arena holds one line per record.
    let arena_lines = ((per_client + warm_per_client) as usize).max(RECORDS as usize) + 1;
    let lay = LfLayout::new(clients, slots, arena_lines, FlushPolicy::FlushOnCommit);
    let mut region = LfRegion::create(lay);
    let pairs: Vec<(u64, u64)> = preload
        .iter()
        .enumerate()
        .map(|(k, &v)| (k as u64, v))
        .collect();
    preload_hash(&mut region, &pairs);

    let zipf = Zipfian::new(RECORDS, THETA);
    let mut client_rngs: Vec<DetRng> = (0..clients).map(|_| rng.split()).collect();
    let mut scheduler = Scheduler {
        rng: rng.split(),
        steps: 0,
        updates: HashMap::new(),
    };
    let mut warm: Vec<ThreadMachine> = client_rngs
        .iter_mut()
        .enumerate()
        .map(|(c, r)| ThreadMachine::new(lay, c as u8, plan(&zipf, r, warm_per_client)))
        .collect();
    let mut warm_layers = Layers::new(false);
    scheduler.run(&mut region, &mut warm, &mut warm_layers, &mut pass, false);
    pass.setup = setup.elapsed();

    let mut machines: Vec<ThreadMachine> = client_rngs
        .iter_mut()
        .zip(&warm)
        .enumerate()
        .map(|(c, (r, w))| {
            ThreadMachine::with_progress(
                lay,
                c as u8,
                plan(&zipf, r, per_client),
                warm_per_client + 1,
                w.arena_next(),
            )
        })
        .collect();
    pass.reserve_samples(ops as usize);
    let start = Instant::now();
    let (clocks, metrics) = measured(traced, || {
        scheduler.run(&mut region, &mut machines, &mut layers, &mut pass, true)
    });
    pass.host = start.elapsed();
    pass.attempted = per_client * clients as u64;
    pass.ops = pass.attempted;
    pass.sim_serving = clocks.into_iter().max().unwrap_or(Nanos::ZERO);
    layers.absorb(metrics);
    for m in &machines {
        let s = m.stats();
        layers.lockfree.cas += s.cas_attempts;
        layers.lockfree.conflicts += s.cas_conflicts;
        layers.lockfree.helps += s.helps;
        layers.lockfree.steps += s.steps;
    }

    // Power fails after the last return. Every client's last op must
    // classify: a finished Update as Completed, a Get (which never arms
    // a descriptor) as NotStarted.
    let mut recovered = LfRegion::from_image(region.crash_image(), lay);
    for m in &machines {
        let expect = match m.plan().last() {
            Some(OpKind::Update(..)) => OpVerdict::Completed,
            _ => OpVerdict::NotStarted,
        };
        match recover_op(&recovered, m.tid(), m.current_seq()) {
            Ok(v) if v == expect => {}
            got => pass.fail(|| {
                format!(
                    "client {}: recover_op {got:?}, expected {expect:?}",
                    m.tid()
                )
            }),
        }
    }

    // Read every key back through the structure on the recovered image.
    let reader = &machines[0];
    let mut audit = ThreadMachine::with_progress(
        lay,
        reader.tid(),
        (0..RECORDS).map(OpKind::Get).collect(),
        reader.current_seq() + 1,
        recovered_arena_next(&recovered, reader.tid()),
    );
    audit.prepare(&mut recovered);
    while !audit.done() {
        audit.step(&mut recovered);
        audit.prepare(&mut recovered);
    }
    for (k, res) in audit.results().iter().enumerate() {
        let ok = matches!(res, OpResult::Found(v) if allowed(k as u64, &preload, &scheduler.updates, *v));
        if !ok {
            pass.fail(|| format!("audit: key {k} read {res:?}"));
        }
    }
    pass.layers = layers;
    pass
}
