//! Crash-safety of the Gauss-forest manifest commit protocol.
//!
//! A [`FaultComponentStores`] backend charges every component page write
//! and every manifest-slot write against one shared budget; the write
//! that exhausts it is dropped whole or torn (its first half lands over
//! the old bytes), and the backend "dies" (all later mutations fail, reads
//! survive). Sweeping the budget over a scripted insert/delete/flush/
//! maintain workload, in both kill modes, therefore lands a kill point on
//! every write of the multi-file commit protocol — mid component build,
//! between the data barrier and the manifest slot, mid merge cascade,
//! before and after the post-commit component unlink.
//!
//! Invariant checked at every kill point: reopening the post-crash disk
//! succeeds (when `create` had committed) and the recovered live set
//! equals an **actually committed** state — the live set at the last
//! memtable drain, or, when the kill interrupted a flush whose manifest
//! commit already landed, the state including that flush. Merges must
//! never change the live set, and the reopened forest must remain
//! writable.

use gausstree::pfv::Pfv;
use gausstree::storage::forest::FaultComponentStores;
use gausstree::storage::{KillMode, MemComponentStores};
use gausstree::tree::{ForestOptions, GaussForest, ReadView, TreeConfig};
use std::collections::BTreeMap;

const PAGE_SIZE: usize = 4096;
const MEMTABLE: usize = 4;

/// One step of the scripted workload.
#[derive(Debug, Clone, Copy)]
enum Step {
    Insert(u64, u64),
    Delete(u64),
    Flush,
    Maintain,
}

/// Deterministic value for `id` at `round` — distinct per round so a
/// recovered state can be told apart from any other round's state.
fn v(id: u64, round: u64) -> Pfv {
    let x = id as f64 - 5.0 + round as f64 * 0.25;
    Pfv::new(vec![x, 0.5 - x], vec![0.4, 0.8]).expect("valid pfv")
}

/// A fixed workload crossing every commit path: auto-flushes (memtable
/// capacity 4), explicit flushes, deletes that become tombstones, and
/// maintains that cascade multi-level merges.
fn script() -> Vec<Step> {
    let mut steps = Vec::new();
    for round in 0..6u64 {
        for i in 0..6u64 {
            steps.push(Step::Insert((round * 5 + i) % 12, round));
        }
        steps.push(Step::Delete((round * 2) % 12));
        steps.push(Step::Delete((round * 2 + 7) % 12));
        steps.push(Step::Flush);
        if round % 2 == 1 {
            steps.push(Step::Maintain);
        }
    }
    steps.push(Step::Flush);
    steps.push(Step::Maintain);
    steps
}

fn forest_opts() -> ForestOptions {
    ForestOptions::new()
        .memtable_capacity(MEMTABLE)
        .merge_factor(2)
}

/// What a (possibly killed) scripted run left on disk, logically.
struct Outcome {
    /// `create` committed its first manifest, so `open` must succeed.
    created: bool,
    /// The whole script ran without hitting the kill point.
    completed: bool,
    /// Live set at the last successful memtable drain — the newest state
    /// the durable manifest is known to hold.
    last_flush: BTreeMap<u64, Pfv>,
    /// Live set a flush interrupted by the kill would have committed had
    /// its manifest write landed (== `last_flush` for a killed maintain:
    /// merges never change the live set).
    pending: BTreeMap<u64, Pfv>,
}

/// Replays the script against a fault-injected forest, tracking the
/// committed-state candidates. Stops at the first injected failure.
fn run_script(faults: &FaultComponentStores) -> Outcome {
    let config = TreeConfig::new(2).with_capacities(6, 4);
    let mut model: BTreeMap<u64, Pfv> = BTreeMap::new();
    let mut last_flush: BTreeMap<u64, Pfv> = BTreeMap::new();
    let Ok(mut forest) = GaussForest::create(faults.clone(), config, forest_opts()) else {
        return Outcome {
            created: false,
            completed: false,
            last_flush: BTreeMap::new(),
            pending: BTreeMap::new(),
        };
    };
    for step in script() {
        // The state a flush interrupted inside this step would commit.
        let result = match step {
            Step::Insert(id, round) => {
                model.insert(id, v(id, round));
                forest.insert(id, &v(id, round))
            }
            Step::Delete(id) => {
                model.remove(&id);
                forest.delete(id).map(|_| ())
            }
            Step::Flush => forest.flush().map(|_| ()),
            Step::Maintain => forest.maintain().map(|_| ()),
        };
        match result {
            Ok(()) => {
                if forest.memtable_len() == 0 {
                    last_flush = model.clone();
                }
            }
            Err(_) => {
                let pending = match step {
                    // A killed maintain only merges: the live set of any
                    // manifest it committed equals the pre-kill one.
                    Step::Maintain => last_flush.clone(),
                    _ => model.clone(),
                };
                return Outcome {
                    created: true,
                    completed: false,
                    last_flush,
                    pending,
                };
            }
        }
    }
    Outcome {
        created: true,
        completed: true,
        last_flush,
        pending: model,
    }
}

/// The live `(id, value)` map visible in a forest.
fn live_map(forest: &GaussForest<MemComponentStores>) -> BTreeMap<u64, Pfv> {
    let snap = forest.snapshot().expect("snapshot");
    let mut out = BTreeMap::new();
    snap.for_each_entry(|id, value| {
        assert!(out.insert(id, value.clone()).is_none(), "duplicate id {id}");
    })
    .expect("for_each_entry");
    assert_eq!(out.len() as u64, forest.len(), "len() vs visible set");
    out
}

#[test]
fn kill_sweep_recovers_a_committed_state() {
    // Pass 1: count the writes of a clean run.
    let probe = FaultComponentStores::unlimited(MemComponentStores::new(PAGE_SIZE));
    let clean = run_script(&probe);
    assert!(clean.created && clean.completed, "clean run must finish");
    let total_writes = probe.write_ops();
    assert!(
        total_writes > 50,
        "script too small to sweep ({total_writes} writes)"
    );

    // The clean disk must reopen to exactly the final committed state.
    let reopened = GaussForest::open(probe.into_inner(), forest_opts()).expect("clean reopen");
    assert_eq!(live_map(&reopened), clean.last_flush);

    // Pass 2: kill at every write of the protocol, dropping or tearing it.
    for mode in [KillMode::Drop, KillMode::Tear] {
        let (opened, refused) = kill_sweep(total_writes, mode);
        println!("{mode:?}: {total_writes} writes swept, {opened} reopened, {refused} refused");
        assert!(opened > 0, "{mode:?}: no kill point reopened");
    }
}

/// Kills the script at each of its `total_writes` writes and checks what
/// recovery finds. Returns how many kill points reopened a forest and how
/// many were refused because `create` never committed.
fn kill_sweep(total_writes: u64, mode: KillMode) -> (u64, u64) {
    let (mut opened, mut refused) = (0, 0);
    for budget in 0..total_writes {
        let faults = FaultComponentStores::new(MemComponentStores::new(PAGE_SIZE), budget, mode);
        let outcome = run_script(&faults);
        assert!(
            !outcome.completed,
            "budget {budget} of {total_writes} ({mode:?}) did not kill"
        );
        assert!(
            faults.killed(),
            "budget {budget} ({mode:?}): backend not killed"
        );

        let disk = faults.into_inner();
        match GaussForest::open(disk, forest_opts()) {
            Ok(mut recovered) => {
                assert!(
                    outcome.created,
                    "budget {budget} ({mode:?}): opened a forest whose create never committed"
                );
                let got = live_map(&recovered);
                assert!(
                    got == outcome.last_flush || got == outcome.pending,
                    "budget {budget} ({mode:?}): recovered state is not a committed state\n\
                     got        {:?}\nlast flush {:?}\npending    {:?}",
                    got.keys().collect::<Vec<_>>(),
                    outcome.last_flush.keys().collect::<Vec<_>>(),
                    outcome.pending.keys().collect::<Vec<_>>(),
                );

                // Recovery must leave a writable forest: mutate, flush,
                // compact, and observe the change.
                recovered
                    .insert(99, &v(99, 9))
                    .expect("post-recovery insert");
                recovered.flush().expect("post-recovery flush");
                recovered.maintain().expect("post-recovery maintain");
                assert!(recovered.contains(99));
                opened += 1;
            }
            Err(e) => {
                assert!(
                    !outcome.created,
                    "budget {budget} ({mode:?}): reopen failed after create committed: {e:?}"
                );
                refused += 1;
            }
        }
    }
    (opened, refused)
}
