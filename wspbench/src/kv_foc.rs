//! `kv-foc`: YCSB-A (50 % Get, 50 % Set, Zipf 0.99) through
//! `KvServer::execute` on four FoC+UL shard heaps with epoch 32.
//!
//! Every Set puts the undo log, FliT tracking, epoch seal and cache
//! model on its blocking path; Gets share the path without the log.
//! 4,096 records per shard (about 256 KiB of table per heap) fit the
//! modelled 8 MiB L3 and keep the server's fixed 4,096-bucket table at
//! about one entry per bucket. Four simulated clients run a closed loop,
//! round-robin; shards serve in parallel, so the simulated serving time
//! is the slowest shard's clock.

use std::time::Instant;

use wsp_det::{DetRng, Rng};
use wsp_pheap::{HeapConfig, PersistentHeap};
use wsp_units::ByteSize;
use wsp_workloads::{Command, KvServer, Response, Zipfian};

use crate::layers::{Call, HeapCounts};
use crate::run::{measured, Pass};
use crate::{Knobs, Layers};

/// Shard heaps.
pub const SHARDS: u64 = 4;
/// Records per shard.
pub const RECORDS_PER_SHARD: u64 = 4_096;
/// Closed-loop simulated clients.
pub const CLIENTS: usize = 4;
/// Transactions per durability epoch.
pub const EPOCH: u64 = 32;
/// Measured commands per pass.
pub const MEASURED_OPS: u64 = 100_000;
/// Warm-up commands per pass (part of set-up).
pub const WARMUP_OPS: u64 = 10_000;
/// Heap region per shard.
pub const REGION: ByteSize = ByteSize::mib(2);
/// Zipf skew.
pub const THETA: f64 = 0.99;

struct Shard {
    heap: PersistentHeap,
    server: KvServer,
}

/// One closed-loop client's command stream.
fn next_command(zipf: &Zipfian, rng: &mut DetRng) -> Command {
    let key = zipf.sample(rng);
    if rng.gen::<f64>() < 0.5 {
        Command::Get(key)
    } else {
        Command::Set(key, rng.gen())
    }
}

/// Executes one command on its shard and checks the response against
/// the model. Returns the simulated latency and whether it was a read.
fn serve(
    shards: &mut [Shard],
    model: &mut [u64],
    cmd: &Command,
    layers: &mut Layers,
    pass: &mut Pass,
) -> (u64, bool) {
    let (key, read) = match *cmd {
        Command::Get(k) => (k, true),
        Command::Set(k, _) => (k, false),
        _ => unreachable!("the generator issues only Get and Set"),
    };
    let shard = &mut shards[(key % SHARDS) as usize];
    let before = shard.heap.elapsed();
    let res = layers.time(Call::KvExecute, || {
        shard.server.execute(&mut shard.heap, cmd)
    });
    let lat = shard.heap.elapsed() - before;
    layers.sim(Call::KvExecute, lat);
    match (cmd, res) {
        (Command::Get(k), Ok(Response::Value(v))) if v == model[*k as usize] => {}
        (Command::Set(k, v), Ok(Response::Stored)) => model[*k as usize] = *v,
        (_, res) => pass.fail(|| format!("{cmd:?} answered {res:?}")),
    }
    (lat.as_nanos(), read)
}

/// One pass: set-up, warm-up, measured phase, audit.
#[must_use]
pub fn pass(seed: u64, knobs: &Knobs, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut layers = Layers::new(traced);
    let setup = Instant::now();

    let mut rng = DetRng::seed_from_u64(seed);
    let keys = SHARDS * RECORDS_PER_SHARD;
    let mut model: Vec<u64> = (0..keys).map(|_| rng.gen()).collect();
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|s| {
            let mut heap = PersistentHeap::create(REGION, HeapConfig::FocUndo);
            heap.set_flit_enabled(knobs.flit);
            let server = KvServer::create(&mut heap).expect("fresh heap holds the table");
            heap.set_epoch_size(EPOCH);
            let table = server.table();
            for k in (s..keys).step_by(SHARDS as usize) {
                table
                    .insert(&mut heap, k, model[k as usize])
                    .expect("preload fits the region");
            }
            heap.seal_epoch();
            Shard { heap, server }
        })
        .collect();
    let zipf = Zipfian::new(keys, THETA);
    let mut clients: Vec<DetRng> = (0..CLIENTS).map(|_| rng.split()).collect();
    let mut warm = Layers::new(false);
    for i in 0..knobs.scale.ops(WARMUP_OPS) {
        let cmd = next_command(&zipf, &mut clients[i as usize % CLIENTS]);
        serve(&mut shards, &mut model, &cmd, &mut warm, &mut pass);
    }
    pass.setup = setup.elapsed();

    let ops = knobs.scale.ops(MEASURED_OPS);
    pass.reserve_samples(ops as usize);
    let before: Vec<(HeapCounts, wsp_units::Nanos)> = shards
        .iter()
        .map(|s| (HeapCounts::of(&s.heap), s.heap.elapsed()))
        .collect();
    let start = Instant::now();
    let ((), metrics) = measured(traced, || {
        for i in 0..ops {
            let cmd = next_command(&zipf, &mut clients[i as usize % CLIENTS]);
            let (lat, read) = serve(&mut shards, &mut model, &cmd, &mut layers, &mut pass);
            if read {
                pass.reads.push(lat);
            } else {
                pass.writes.push(lat);
            }
        }
        // The durability boundary: nothing is left in an open epoch.
        for s in &mut shards {
            s.heap.seal_epoch();
        }
    });
    pass.host = start.elapsed();
    pass.attempted = ops;
    pass.ops = ops;
    for (s, (counts0, t0)) in shards.iter().zip(&before) {
        layers.heap.add_delta(counts0, &HeapCounts::of(&s.heap));
        pass.sim_serving = pass.sim_serving.max(s.heap.elapsed() - *t0);
    }
    layers.absorb(metrics);

    // Audit: every key reads back its last acknowledged value.
    for (k, want) in model.iter().enumerate() {
        let s = &mut shards[k % SHARDS as usize];
        match s.server.table().get(&mut s.heap, k as u64) {
            Ok(Some(v)) if v == *want => {}
            got => pass.fail(|| format!("audit: key {k} read {got:?}, expected {want}")),
        }
    }
    pass.layers = layers;
    pass
}
