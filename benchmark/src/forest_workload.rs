//! `forest_drift`: a drifting-sensor stream of upserts and deletes into a
//! `GaussForest` over a directory of component files, with queries on the
//! snapshot taken at stream end — memtable and several components fan out.

use crate::harness::{maximum, median, minimum, BestOf};
use crate::layers;
use crate::measure::{put_query_metrics, run_rounds, Ctx, QuerySet, THETA};
use crate::oracle::brute_force;
use crate::tree_workload::build_warm;
use gauss_storage::{
    ComponentStores, DirComponentStores, Durability, FileStore, StoreError, DEFAULT_PAGE_SIZE,
};
use gauss_tree::{
    BulkLoadOptions, ForestOptions, ForestSnapshot, GaussForest, ReadView, TreeConfig, TreeError,
};
use gauss_workloads::{DriftConfig, DriftStream, SigmaSpec, StreamOp};
use pfv::Pfv;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct ForestSpec {
    pub events: usize,
    pub dims: usize,
    pub sensors: usize,
    pub memtable: usize,
    /// `maintain()` runs after every this many flushes.
    pub maintain_every: u64,
    /// A mid-ingest query probe runs every this many events (traced run).
    pub probe_every: usize,
    pub mliq_queries: usize,
    pub tiq_queries: usize,
    pub batch_queries: usize,
    /// Ingests per run: the first before round 0, the others spread through
    /// the rounds.
    pub ingest_reps: usize,
}

pub fn spec(quick: bool) -> ForestSpec {
    let full = ForestSpec {
        events: 120_000,
        dims: 8,
        sensors: 1024,
        memtable: 4096,
        maintain_every: 4,
        probe_every: 2000,
        mliq_queries: 400,
        tiq_queries: 800,
        batch_queries: 160,
        ingest_reps: 4,
    };
    if quick {
        ForestSpec {
            events: 6000,
            sensors: 128,
            memtable: 512,
            probe_every: 1000,
            mliq_queries: 24,
            tiq_queries: 8,
            batch_queries: 16,
            ingest_reps: 2,
            ..full
        }
    } else {
        full
    }
}

/// Manifest traffic, which no pool counter sees. Shared with the caller,
/// because the forest hands its backend back only by value.
#[derive(Default)]
struct ManifestCounters {
    writes: AtomicU64,
    bytes: AtomicU64,
}

/// A `ComponentStores` that passes everything to a directory backend and
/// counts the manifest slot writes on the way.
pub struct CountingStores {
    inner: DirComponentStores,
    manifest: Arc<ManifestCounters>,
}

/// Bytes a forest directory holds: component files and manifest slots.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

impl ComponentStores for CountingStores {
    type Store = FileStore;

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn create_component(&self, id: u64) -> Result<FileStore, StoreError> {
        self.inner.create_component(id)
    }
    fn open_component(&self, id: u64) -> Result<FileStore, StoreError> {
        self.inner.open_component(id)
    }
    fn remove_component(&self, id: u64) -> Result<(), StoreError> {
        self.inner.remove_component(id)
    }
    fn list_components(&self) -> Result<Vec<u64>, StoreError> {
        self.inner.list_components()
    }
    fn read_manifest_slot(&self, slot: usize) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read_manifest_slot(slot)
    }
    fn write_manifest_slot(&self, slot: usize, bytes: &[u8]) -> Result<(), StoreError> {
        // Statistics only: they publish no other data.
        self.manifest.writes.fetch_add(1, Ordering::Relaxed);
        self.manifest
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.write_manifest_slot(slot, bytes)
    }
    fn sync_manifest(&self, durability: Durability) -> Result<(), StoreError> {
        self.inner.sync_manifest(durability)
    }
}

/// What the traced ingest records per operation.
#[derive(Default)]
struct IngestProbe {
    insert_ns: Vec<f64>,
    flush_ms: Vec<f64>,
    maintain_ms: Vec<f64>,
    /// Best-of-three 1-MLIQ time of each mid-ingest probe, in µs.
    midingest_us: Vec<f64>,
}

/// One ingested stream, stopped before the final flush.
struct Ingested {
    forest: GaussForest<CountingStores>,
    snapshot: ForestSnapshot<FileStore>,
    manifest: Arc<ManifestCounters>,
    /// Directory creation through the first query answered on the snapshot.
    setup_s: f64,
    /// The event loop alone: inserts, deletes, flushes, merges, commits.
    ingest_s: f64,
    flushes: u64,
    merges: usize,
    entries_rewritten: u64,
}

fn ingest(
    spec: &ForestSpec,
    ops: &[StreamOp],
    dir: &Path,
    probe_queries: &[Pfv],
    mut probe: Option<&mut IngestProbe>,
) -> Result<Ingested, TreeError> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let manifest = Arc::new(ManifestCounters::default());
    let backend = CountingStores {
        inner: DirComponentStores::new(dir, DEFAULT_PAGE_SIZE)?,
        manifest: Arc::clone(&manifest),
    };
    let opts = ForestOptions::new()
        .memtable_capacity(spec.memtable)
        .merge_factor(2)
        .durability(Durability::Flush);
    let mut forest = GaussForest::create(backend, TreeConfig::new(spec.dims), opts)?;
    let (mut flushes, mut merges, mut entries_rewritten) = (0u64, 0usize, 0u64);
    let loop_start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let epoch = forest.epoch();
        let t = probe.is_some().then(Instant::now);
        match op {
            StreamOp::Upsert(id, v) => forest.insert(*id, v)?,
            StreamOp::Delete(id) => {
                forest.delete(*id)?;
            }
        }
        // An auto-flush commits the manifest, which bumps the epoch.
        let flushed = forest.epoch() != epoch;
        if let (Some(p), Some(t)) = (probe.as_deref_mut(), t) {
            let ns = t.elapsed().as_nanos() as f64;
            if flushed {
                p.flush_ms.push(ns / 1e6);
            } else {
                p.insert_ns.push(ns);
            }
        }
        if flushed {
            flushes += 1;
            if flushes % spec.maintain_every == 0 {
                let t = Instant::now();
                let report = forest.maintain()?;
                if let Some(p) = probe.as_deref_mut() {
                    p.maintain_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                merges += report.merges;
                entries_rewritten += report.entries_rewritten;
            }
        }
        if let Some(p) = probe.as_deref_mut() {
            if (i + 1) % spec.probe_every == 0 {
                let q = &probe_queries[(i / spec.probe_every) % probe_queries.len()];
                let mut best = f64::INFINITY;
                for _ in 0..3 {
                    let t = Instant::now();
                    forest.snapshot()?.k_mliq(q, 1)?;
                    best = best.min(t.elapsed().as_secs_f64() * 1e6);
                }
                p.midingest_us.push(best);
            }
        }
    }
    let ingest_s = loop_start.elapsed().as_secs_f64();
    let snapshot = forest.snapshot()?;
    snapshot.k_mliq(&probe_queries[0], 1)?;
    Ok(Ingested {
        forest,
        snapshot,
        manifest,
        setup_s: t0.elapsed().as_secs_f64(),
        ingest_s,
        flushes,
        merges,
        entries_rewritten,
    })
}

/// Replays the stream against a plain map: the live set, ascending by id.
fn live_set(ops: &[StreamOp]) -> Vec<(u64, Pfv)> {
    let mut live: BTreeMap<u64, Pfv> = BTreeMap::new();
    for op in ops {
        match op {
            StreamOp::Upsert(id, v) => {
                live.insert(*id, v.clone());
            }
            StreamOp::Delete(id) => {
                live.remove(id);
            }
        }
    }
    live.into_iter().collect()
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let spec = spec(ctx.quick);
    let t0 = Instant::now();
    let drift = DriftConfig {
        initial_sensors: spec.sensors,
        dims: spec.dims,
        sigma: SigmaSpec::uniform(0.05, 0.4),
        update_fraction: 0.55,
        delete_fraction: 0.05,
        ..DriftConfig::default()
    };
    let ops: Vec<StreamOp> = DriftStream::new(drift, ctx.seed)
        .take(spec.events)
        .collect();
    let queries: Vec<Pfv> = DriftStream::new(drift, ctx.seed ^ 0xABCD)
        .filter_map(|op| match op {
            StreamOp::Upsert(_, v) => Some(v),
            StreamOp::Delete(_) => None,
        })
        .take(ctx.query_count(spec.mliq_queries.max(spec.tiq_queries)))
        .collect();
    let qs = QuerySet::new(
        queries,
        ctx.query_count(spec.mliq_queries),
        ctx.query_count(spec.tiq_queries),
        spec.batch_queries,
    );
    let live = live_set(&ops);
    let upserts = ops
        .iter()
        .filter(|op| matches!(op, StreamOp::Upsert(..)))
        .count();
    let gen_s = t0.elapsed().as_secs_f64();
    ctx.metrics.put("harness.gen_s", gen_s);
    println!(
        "workload forest_drift: {} events ({upserts} upserts), {} dims, {} live at stream end, {} 1-MLIQ / {} TIQ / {} batch queries, generated in {gen_s:.2} s",
        spec.events, spec.dims, live.len(), qs.mliq.len(), qs.tiq.len(), qs.batch.len()
    );

    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
    let dir = |rep: usize| -> PathBuf { ctx.out_dir.join(format!("forest_drift-{rep}")) };
    let dirs: Vec<PathBuf> = (0..spec.ingest_reps).map(dir).collect();
    let result = run_ingested(ctx, &spec, &ops, &live, upserts, &qs, &dirs);
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    result
}

fn run_ingested(
    ctx: &mut Ctx,
    spec: &ForestSpec,
    ops: &[StreamOp],
    live: &[(u64, Pfv)],
    upserts: usize,
    qs: &QuerySet,
    dirs: &[PathBuf],
) -> Result<(), String> {
    let mut probe = ctx.trace.then(IngestProbe::default);
    let setup_span = ctx.tracer.enter("setup", 0, -1);
    let first = ingest(spec, ops, &dirs[0], &qs.queries, probe.as_mut())
        .map_err(|e| format!("ingest failed: {e}"))?;
    ctx.tracer.exit(setup_span);
    let (forest, snapshot) = (&first.forest, &first.snapshot);
    let comps = forest.component_stats();
    println!(
        "  forest: {} live, memtable {} of {}, {} components {:?}, {} flushes, {} merges",
        forest.len(),
        forest.memtable_len(),
        forest.memtable_capacity(),
        comps.len(),
        comps.iter().map(|c| c.len).collect::<Vec<_>>(),
        first.flushes,
        first.merges,
    );
    let written = forest.stats().snapshot();
    let backend_bytes = ctx.checked(dir_bytes(&dirs[0]), "directory size");
    let manifest_bytes = first.manifest.bytes.load(Ordering::Relaxed);
    let manifest_writes = first.manifest.writes.load(Ordering::Relaxed);

    // Correctness: the live set the forest reports, the brute-force oracle,
    // and bit-identity with one tree bulk-loaded over the live set.
    ctx.check(forest.len() == live.len() as u64, || {
        format!(
            "forest holds {} live objects, the stream leaves {}",
            forest.len(),
            live.len()
        )
    });
    let reference = build_warm(
        live.to_vec(),
        spec.dims,
        &qs.queries[0],
        &BulkLoadOptions::default(),
    )
    .map_err(|e| format!("reference tree: {e}"))?;
    let violations = ctx.checked(reference.tree.check_invariants(false), "check_invariants");
    ctx.check(violations.as_ref().is_some_and(Vec::is_empty), || {
        format!("invariant violations in the reference tree: {violations:?}")
    });
    let mut expected = brute_force(
        snapshot.config().combine,
        live,
        &qs.queries,
        &qs.tiq_flags(),
        THETA,
        ctx.threads,
    );
    ctx.metrics
        .put("harness.oracle_checked", expected.len() as f64);
    for &i in &qs.mliq {
        expected[i].identical =
            ctx.checked(reference.tree.k_mliq(&qs.queries[i], 1), "reference k_mliq");
    }

    let mut setups = vec![first.setup_s];
    let mut ingests = vec![first.ingest_s];
    let mut again = |ctx: &mut Ctx| {
        let dir = &dirs[setups.len()];
        let r = ingest(spec, ops, dir, &qs.queries, None);
        if let Some(r) = ctx.checked(r, "repeated ingest") {
            setups.push(r.setup_s);
            ingests.push(r.ingest_s);
        }
    };
    let t_rounds = Instant::now();
    let rounds = run_rounds(
        ctx,
        snapshot,
        forest.stats(),
        qs,
        &expected,
        &|| {},
        spec.ingest_reps - 1,
        &mut again,
    );
    let rounds_s = t_rounds.elapsed().as_secs_f64();

    if !ctx.trace {
        put_query_metrics(ctx, &rounds, qs);
        let m = &mut ctx.metrics;
        m.put("setup_s", minimum(&setups));
        m.put("ingest_ops_per_s", spec.events as f64 / minimum(&ingests));
        m.put(
            "space_bytes_per_obj",
            backend_bytes.unwrap_or(0) as f64 / live.len() as f64,
        );
        m.put(
            "write_amp",
            (written.physical_writes as f64 * DEFAULT_PAGE_SIZE as f64 + manifest_bytes as f64)
                / (upserts * (8 + 16 * spec.dims)) as f64,
        );
    }
    let m = &mut ctx.metrics;
    m.put("harness.rounds", rounds.mliq_us.rounds() as f64);
    println!(
        "  rounds: {} in {rounds_s:.1} s (1-MLIQ n = {} x {}, TIQ n = {}), ingests: {setups:.3?} s",
        rounds.mliq_us.rounds(),
        qs.mliq.len(),
        rounds.mliq_us.rounds(),
        qs.tiq.len(),
    );

    if let Some(p) = probe {
        let tree = &reference.tree;
        let probes = ctx.tracer.enter("layer_probes", 0, -1);
        let shape = layers::pfv_and_node(ctx, tree, qs)?;
        let writes = [
            written.write_calls + manifest_writes,
            written.physical_writes,
            written.syncs,
        ];
        layers::storage_counts(ctx, &rounds.counts, qs, writes);
        layers::query(ctx, snapshot, qs, &rounds);
        layers::executor(ctx, snapshot, qs, &|| {});
        layers::bulk(ctx, live, reference.report.spilled_entries);

        // The same queries on the one-tree reference: what fan-out costs.
        let mut single = BestOf::new(qs.mliq.len());
        for _ in 0..2 {
            let samples: Vec<f64> = qs
                .mliq
                .iter()
                .map(|&i| {
                    let t = Instant::now();
                    let r = tree.k_mliq(&qs.queries[i], 1);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    ctx.checked(r, "reference k_mliq");
                    us
                })
                .collect();
            single.round(&samples);
        }
        let mut snapshot_us = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            let s = forest.snapshot();
            snapshot_us = snapshot_us.min(t.elapsed().as_secs_f64() * 1e6);
            ctx.checked(s, "snapshot");
        }
        layers::storage_costs(ctx, tree, &shape, None)?;
        layers::ledger(ctx, &shape, &rounds, qs);
        layers::harness(ctx, &rounds);
        ctx.tracer.exit(probes);

        let m = &mut ctx.metrics;
        m.put("forest.insert_p50_ns", median(&p.insert_ns));
        m.put("forest.flush_ms_p50", median(&p.flush_ms));
        m.put("forest.flush_ms_max", maximum(&p.flush_ms));
        m.put("forest.maintain_ms_max", maximum(&p.maintain_ms));
        m.put("forest.maintain_ms_total", p.maintain_ms.iter().sum());
        m.put("forest.flushes", first.flushes as f64);
        m.put("forest.merges", first.merges as f64);
        m.put("forest.entries_rewritten", first.entries_rewritten as f64);
        m.put("forest.components_final", comps.len() as f64);
        m.put(
            "forest.tombstones_final",
            comps.iter().map(|c| c.tombstones).sum::<usize>() as f64,
        );
        m.put("forest.snapshot_us", snapshot_us);
        m.put("forest.midingest_mliq_max_us", maximum(&p.midingest_us));
        m.put(
            "forest.fanout_slowdown",
            rounds.mliq_us.percentile(0.5) / single.percentile(0.5),
        );
        layers::not_applicable(ctx, "fig7.");
    }
    Ok(())
}
