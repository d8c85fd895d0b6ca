//! `xshard-2pc`: bank transfers through `CoordinatorPool::submit` and
//! `drain`, configured as the repository's group-decided 2PC bench:
//! 8 FoC+UL shards × 64 accounts, every transfer spanning two shards,
//! 2 coordinators, decision group 32, drain on account conflict.
//!
//! Every [`CRASH_EVERY`] transfers the whole fleet crashes, with the
//! open decision group still buffered, and is rebuilt with
//! `resolve_cross_shard` and `CoordinatorPool::recover`. The audit then
//! reads every balance back and checks it against the acknowledged
//! model: buffered transfers must vanish whole and sealed ones survive
//! whole, and the total must be conserved.
//!
//! The workload's reads are the balance checks a client makes before
//! each transfer: one read-only transaction on the source account's
//! shard, after any conflicting open group has drained.

use std::collections::HashSet;
use std::time::Instant;

use wsp_cluster::ClusterSpec;
use wsp_core::{recover_settled, resolve_cross_shard, CoordinatorPool, SubmitOutcome};
use wsp_det::{DetRng, Rng};
use wsp_pheap::{HeapConfig, PersistentHeap, PmPtr};
use wsp_units::{ByteSize, Nanos};

use crate::layers::{Call, HeapCounts};
use crate::run::{measured, Pass};
use crate::{Knobs, Layers};

/// Participant shards.
pub const SHARDS: usize = 8;
/// Account cells per shard, one per cache line.
pub const ACCOUNTS: usize = 64;
/// Concurrent coordinators sharing the decision log.
pub const COORDINATORS: usize = 2;
/// Starting balance of every account.
pub const INITIAL_BALANCE: u64 = 10_000;
/// Heap region per shard.
pub const REGION: ByteSize = ByteSize::mib(1);
/// Transfers between fleet crashes.
pub const CRASH_EVERY: u64 = 1_000;
/// Measured transfers per pass.
pub const MEASURED_TRANSFERS: u64 = 32_000;
/// Warm-up transfers per pass (part of set-up).
pub const WARMUP_TRANSFERS: u64 = 1_000;

/// A transfer admitted but not yet acknowledged: its decision is
/// buffered in the pool's open group.
struct Open {
    owner: usize,
    admitted: Nanos,
    src: (usize, usize),
    dst: (usize, usize),
    amount: u64,
}

struct Fleet {
    heaps: Vec<PersistentHeap>,
    pool: CoordinatorPool,
    cells: Vec<Vec<PmPtr>>,
    /// Balances with every admitted transfer applied.
    model: Vec<Vec<u64>>,
    /// Transfers in the open group.
    open: Vec<Open>,
    /// Accounts the open group touches.
    locked: HashSet<(usize, usize)>,
    group: usize,
}

impl Fleet {
    fn create(group: usize) -> Fleet {
        let mut heaps = Vec::with_capacity(SHARDS);
        let mut cells = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            let mut heap = PersistentHeap::create(REGION, HeapConfig::FocUndo);
            let mut tx = heap.begin();
            let base = tx
                .alloc(ACCOUNTS as u64 * 64)
                .expect("accounts fit the region");
            let mut column = Vec::with_capacity(ACCOUNTS);
            for i in 0..ACCOUNTS {
                let p = base.byte_offset(i as u64 * 64);
                tx.write_word(p, INITIAL_BALANCE)
                    .expect("fresh cell is writable");
                column.push(p);
            }
            tx.set_root(base).expect("root is writable");
            tx.commit().expect("seeding commits");
            heap.seal_epoch();
            heaps.push(heap);
            cells.push(column);
        }
        Fleet {
            heaps,
            pool: CoordinatorPool::new(COORDINATORS, group),
            cells,
            model: vec![vec![INITIAL_BALANCE; ACCOUNTS]; SHARDS],
            open: Vec::new(),
            locked: HashSet::new(),
            group,
        }
    }

    /// Acknowledges every open transfer: its group is sealed and its
    /// phase 2 complete. Records each one's admission-to-ack latency.
    fn acknowledge(&mut self, pass: &mut Pass, record: bool) {
        for t in self.open.drain(..) {
            if record {
                pass.writes
                    .push((self.pool.clock(t.owner) - t.admitted).as_nanos());
            }
            pass.ops += u64::from(record);
        }
        self.locked.clear();
    }

    /// Seals and completes the open group.
    fn drain(&mut self, sealer: usize, layers: &mut Layers, pass: &mut Pass, record: bool) {
        let (heaps, pool) = (&mut self.heaps, &mut self.pool);
        let c0 = pool.clock(sealer);
        match layers.time(Call::TxnDrain, || pool.drain(sealer, heaps)) {
            Ok(_) => {
                layers.sim(Call::TxnDrain, pool.clock(sealer) - c0);
                self.acknowledge(pass, record);
            }
            Err(e) => pass.fail(|| format!("drain: {e}")),
        }
    }

    /// Reads one balance in a read-only transaction. Returns the value
    /// and the simulated time the shard heap spent.
    fn balance(&mut self, (shard, account): (usize, usize)) -> (Result<u64, String>, Nanos) {
        let heap = &mut self.heaps[shard];
        let before = heap.elapsed();
        let mut tx = heap.begin();
        let got = tx.read_word(self.cells[shard][account]);
        let committed = tx.commit();
        let value = match (got, committed) {
            (Ok(v), Ok(())) => Ok(v),
            (got, committed) => Err(format!("{got:?} ({committed:?})")),
        };
        (value, heap.elapsed() - before)
    }

    /// One transfer through the pool.
    fn transfer(
        &mut self,
        t: u64,
        rng: &mut DetRng,
        layers: &mut Layers,
        pass: &mut Pass,
        record: bool,
    ) {
        let src_shard = rng.gen_range(0..SHARDS);
        let d = rng.gen_range(0..SHARDS - 1);
        let dst_shard = if d >= src_shard { d + 1 } else { d };
        let src = (src_shard, rng.gen_range(0..ACCOUNTS));
        let dst = (dst_shard, rng.gen_range(0..ACCOUNTS));
        let amount = rng.gen_range(1..16u64);
        let owner = t as usize % COORDINATORS;
        pass.attempted += u64::from(record);

        if self.locked.contains(&src) || self.locked.contains(&dst) {
            self.drain(owner, layers, pass, record);
        }
        let (balance, lat) = self.balance(src);
        if record {
            pass.reads.push(lat.as_nanos());
        }
        match balance {
            Ok(v) if v == self.model[src.0][src.1] && v >= amount => {}
            got => {
                pass.fail(|| {
                    format!(
                        "transfer {t}: source balance read {got:?}, model {}",
                        self.model[src.0][src.1]
                    )
                });
                return;
            }
        }
        let mut txn = self.pool.begin(owner, SHARDS);
        let debited = self.model[src.0][src.1] - amount;
        let credited = self.model[dst.0][dst.1] + amount;
        txn.stage(src.0, self.cells[src.0][src.1].offset(), debited);
        txn.stage(dst.0, self.cells[dst.0][dst.1].offset(), credited);

        let admitted = self.pool.clock(owner);
        let (heaps, pool) = (&mut self.heaps, &mut self.pool);
        let outcome = layers.time(Call::TxnSubmit, || pool.submit(owner, heaps, &txn));
        layers.sim(Call::TxnSubmit, pool.clock(owner) - admitted);
        match outcome {
            Ok(SubmitOutcome::Aborted { reason }) => {
                pass.fail(|| format!("transfer {t} refused: {reason}"));
                return;
            }
            Err(e) => {
                pass.fail(|| format!("transfer {t}: {e}"));
                return;
            }
            Ok(SubmitOutcome::Buffered | SubmitOutcome::Committed { .. }) => {}
        }
        self.model[src.0][src.1] = debited;
        self.model[dst.0][dst.1] = credited;
        self.open.push(Open {
            owner,
            admitted,
            src,
            dst,
            amount,
        });
        self.locked.insert(src);
        self.locked.insert(dst);
        if matches!(outcome, Ok(SubmitOutcome::Committed { .. })) {
            self.acknowledge(pass, record);
        }
    }

    /// Crashes the whole fleet with the open group buffered and recovers
    /// it; `None` when a shard did not come back.
    fn crash_and_recover(mut self, layers: &mut Layers, pass: &mut Pass) -> Option<Fleet> {
        // Buffered decisions are not durable: presumed abort must roll
        // their transfers back everywhere.
        for t in self.open.drain(..) {
            self.model[t.src.0][t.src.1] += t.amount;
            self.model[t.dst.0][t.dst.1] -= t.amount;
        }
        self.locked.clear();
        let image = self.pool.crash_image();
        let images = self
            .heaps
            .into_iter()
            .map(|h| Some(layers.time(Call::HeapCrash, || h.crash(false))))
            .collect();
        let cluster = ClusterSpec::memcache_tier(SHARDS);
        let group = self.group;
        let (recovery, pool) = layers.time(Call::TxnResolve, || {
            let recovery = resolve_cross_shard(&image, images, &cluster);
            let mut pool = CoordinatorPool::recover(&image, COORDINATORS, group);
            // Every shard has now applied every decided transfer, so the
            // re-sealed decisions are settled; left unsettled, they would
            // be re-sealed at every later recovery until the log fills.
            let settled = recover_settled(&image);
            let mut live: Vec<u64> = recovery.decided.difference(&settled).copied().collect();
            live.sort_unstable();
            for gtxid in live {
                pool.settle(gtxid);
            }
            (recovery, pool)
        });
        let mut heaps = Vec::with_capacity(SHARDS);
        let mut took = Nanos::ZERO;
        for shard in recovery.shards {
            match (shard.heap, shard.outcome) {
                (Some(heap), wsp_core::RecoveryOutcome::Recovered { took: t, .. }) => {
                    took = took.max(t);
                    heaps.push(heap);
                }
                (_, outcome) => {
                    pass.fail(|| format!("shard {} did not recover: {outcome:?}", shard.shard));
                    return None;
                }
            }
        }
        layers.sim(Call::TxnResolve, took);
        Some(Fleet {
            heaps,
            pool,
            ..self
        })
    }

    /// Reads every balance back and checks it against the acknowledged
    /// model and the conserved total.
    fn audit(&mut self, pass: &mut Pass) {
        let mut total = 0u64;
        for s in 0..SHARDS {
            for a in 0..ACCOUNTS {
                match self.balance((s, a)).0 {
                    Ok(v) if v == self.model[s][a] => total += v,
                    got => pass.fail(|| {
                        format!(
                            "audit: shard {s} account {a} read {got:?}, expected {}",
                            self.model[s][a]
                        )
                    }),
                }
            }
        }
        let want = INITIAL_BALANCE * (SHARDS * ACCOUNTS) as u64;
        if total != want {
            pass.fail(|| format!("audit: total balance {total}, expected {want}"));
        }
    }
}

/// One pass: set-up, warm-up, measured crash intervals, audits.
#[must_use]
pub fn pass(seed: u64, knobs: &Knobs, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut layers = Layers::new(traced);
    let setup = Instant::now();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut fleet = Fleet::create(knobs.decision_group);
    let mut warm = Layers::new(false);
    for t in 0..knobs.scale.ops(WARMUP_TRANSFERS) {
        fleet.transfer(t, &mut rng, &mut warm, &mut pass, false);
    }
    fleet.drain(0, &mut warm, &mut pass, false);
    pass.setup = setup.elapsed();

    let transfers = knobs.scale.ops(MEASURED_TRANSFERS);
    pass.reserve_samples(transfers as usize);
    let intervals = transfers.div_ceil(CRASH_EVERY);
    let mut host = std::time::Duration::ZERO;
    let mut fleet = Some(fleet);
    for interval in 0..intervals {
        let Some(mut f) = fleet.take() else { break };
        let counts0: Vec<HeapCounts> = f.heaps.iter().map(HeapCounts::of).collect();
        let wall0 = f.pool.wall();
        let first = interval * CRASH_EVERY;
        let last = transfers.min(first + CRASH_EVERY);
        let start = Instant::now();
        let (next, metrics) = measured(traced, || {
            for t in first..last {
                f.transfer(t, &mut rng, &mut layers, &mut pass, true);
            }
            pass.sim_serving += f.pool.wall() - wall0;
            for (h, c0) in f.heaps.iter().zip(&counts0) {
                layers.heap.add_delta(c0, &HeapCounts::of(h));
            }
            f.crash_and_recover(&mut layers, &mut pass)
        });
        host += start.elapsed();
        layers.absorb(metrics);
        fleet = next;
        if let Some(f) = fleet.as_mut() {
            f.audit(&mut pass);
        }
    }
    pass.host = host;
    pass.layers = layers;
    pass
}
