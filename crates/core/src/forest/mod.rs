//! The Gauss-forest: an LSM-style write-optimized store of Gauss-trees.
//!
//! A Gauss-tree file is written once, by the bulk loader (see
//! [`crate::tree`]); the forest is the durable writer on top of it. It
//! takes sustained inserts, upserts and deletes the way LSM-trees (O'Neil
//! et al.) and bkd-style stores layer writes over a static spatial index:
//!
//! * **Memtable** — an in-memory buffer absorbs [`GaussForest::insert`]
//!   and [`GaussForest::delete`] (deletes as tombstones). Values are
//!   quantised on entry when the leaf format calls for it, so memtable
//!   densities match post-flush densities bit for bit.
//! * **Flush** — at [`ForestOptions::memtable_capacity`] records the
//!   buffer is bulk-loaded (through the parallel pipeline of
//!   [`crate::bulk`]) into a fresh write-once level-0 component tree.
//! * **Merge** — [`GaussForest::maintain`] merges every level holding at
//!   least [`ForestOptions::merge_factor`] components into one component
//!   a level deeper, rewriting the union newest-wins and compacting
//!   tombstones away; with the default factor 2 component sizes double
//!   per level, bounding both component count and write amplification.
//! * **Manifest** — the component list is committed through
//!   [`gauss_storage::commit`], the protocol the single tree's meta pages
//!   use: this module supplies the two slots (the backend's manifest
//!   files), the data barrier (a sync of every component's pages) and the
//!   commit barrier; `forest/manifest.rs` supplies the payload. A crash
//!   at any point recovers to the last committed forest.
//!
//! Newer data shadows older: a component's entry or tombstone for id `x`
//! hides any entry for `x` in an older component, and the memtable hides
//! everything. Queries run on [`ForestSnapshot`]s — the memtable image
//! plus an `Arc` of every component tree, implementing
//! [`crate::ReadView`]. A component is never written after its commit, so
//! holding it is all a snapshot needs to keep answering for its live set
//! while the forest flushes, merges and drops components. There is no
//! forest query engine: the
//! algorithms in [`crate::query`] are written for "memtable + components
//! with shadow sets", a snapshot hands them its memtable image and pinned
//! components, and a single tree is the same thing with one component and
//! nothing else. Ids, order and density bits of every answer equal those
//! of one Gauss-tree holding the same live set; reported probability
//! intervals are guaranteed brackets that may differ within the requested
//! accuracy (see the [`crate::query`] module docs for both arguments).

pub(crate) mod manifest;
pub(crate) mod memtable;

use crate::bulk::BulkLoadOptions;
use crate::config::TreeConfig;
use crate::tree::{GaussTree, TreeError};
use crate::view::ReadView;
use gauss_storage::commit;
use gauss_storage::forest::ComponentStores;
use gauss_storage::store::{Durability, PageStore};
use gauss_storage::{AccessStats, SharedBufferPool};
use manifest::{ForestManifest, ManifestComponent, MANIFEST_KIND};
use memtable::Memtable;
use pfv::Pfv;
use std::collections::HashSet;
use std::sync::Arc;

/// Tuning knobs for a [`GaussForest`], builder-style like
/// [`crate::TreeOptions`].
#[derive(Debug, Clone, Copy)]
pub struct ForestOptions {
    pub(crate) memtable_capacity: usize,
    pub(crate) merge_factor: usize,
    pub(crate) durability: Durability,
    pub(crate) pool_frames: usize,
    pub(crate) threads: usize,
}

impl Default for ForestOptions {
    fn default() -> Self {
        Self {
            memtable_capacity: 4096,
            merge_factor: 2,
            durability: Durability::None,
            pool_frames: 2048,
            threads: 1,
        }
    }
}

impl ForestOptions {
    /// The defaults, ready for builder-style overrides.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Memtable records (tombstones included) that trigger an automatic
    /// flush. Persisted in the manifest; ignored by `open`.
    #[must_use]
    pub fn memtable_capacity(mut self, records: usize) -> Self {
        self.memtable_capacity = records.max(1);
        self
    }

    /// Components per level that trigger a merge in
    /// [`GaussForest::maintain`] (≥ 2; 2 doubles sizes per level).
    /// Persisted in the manifest; ignored by `open`.
    #[must_use]
    pub fn merge_factor(mut self, factor: usize) -> Self {
        self.merge_factor = factor.max(2);
        self
    }

    /// Durability policy for component builds and manifest commits.
    #[must_use]
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Buffer-pool frames per component tree.
    #[must_use]
    pub fn pool_frames(mut self, frames: usize) -> Self {
        self.pool_frames = frames.max(8);
        self
    }

    /// Worker threads for flush/merge bulk builds.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// One immutable component: a bulk-built Gauss-tree, shared with every
/// snapshot that pinned it, plus the shadowing metadata the forest keeps
/// in memory.
struct Component<S: PageStore> {
    id: u64,
    level: u32,
    tree: Arc<GaussTree<S>>,
    /// Ids stored in `tree` — shadow same-id entries in older components.
    ids: HashSet<u64>,
    /// Deleted ids this component records against older components.
    tombstones: HashSet<u64>,
}

/// Per-component statistics reported by [`GaussForest::component_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentInfo {
    /// Backend component id.
    pub id: u64,
    /// LSM level (0 = freshest flush).
    pub level: u32,
    /// Entries stored in the component's tree.
    pub len: u64,
    /// Tombstones the component carries.
    pub tombstones: usize,
}

/// What one [`GaussForest::maintain`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainReport {
    /// Level merges performed.
    pub merges: usize,
    /// Source components consumed by those merges.
    pub components_merged: usize,
    /// Entries rewritten into merged components.
    pub entries_rewritten: u64,
    /// Tombstones compacted away (shadowed, redundant or bottomed-out).
    pub tombstones_dropped: usize,
}

/// The write-optimized forest store. See the [module docs](self).
pub struct GaussForest<B: ComponentStores> {
    backend: B,
    config: TreeConfig,
    stats: Arc<AccessStats>,
    mem: Memtable,
    /// Immutable components, newest first; levels ascend down the list
    /// and equal levels are contiguous.
    comps: Vec<Component<B::Store>>,
    epoch: u64,
    next_component_id: u64,
    /// Live objects visible across memtable + components.
    live: u64,
    memtable_capacity: usize,
    merge_factor: usize,
    durability: Durability,
    pool_frames: usize,
    threads: usize,
}

impl<B: ComponentStores> GaussForest<B> {
    /// Creates an empty forest on `backend` and commits its first
    /// manifest (epoch 1).
    ///
    /// # Errors
    /// Fails if the backend already holds a valid forest manifest, or on
    /// store errors.
    pub fn create(backend: B, config: TreeConfig, opts: ForestOptions) -> Result<Self, TreeError> {
        if Self::committed_manifest(&backend)?.is_some() {
            return Err(TreeError::Corrupt("backend already holds a forest"));
        }
        // Stray components with no manifest are debris of an aborted
        // create; clear them so ids can be reused.
        for cid in backend.list_components()? {
            backend.remove_component(cid)?;
        }
        let mut forest = Self {
            backend,
            config,
            stats: AccessStats::new_shared(),
            mem: Memtable::new(),
            comps: Vec::new(),
            epoch: 0,
            next_component_id: 0,
            live: 0,
            memtable_capacity: opts.memtable_capacity,
            merge_factor: opts.merge_factor,
            durability: opts.durability,
            pool_frames: opts.pool_frames,
            threads: opts.threads,
        };
        forest.commit_manifest()?;
        Ok(forest)
    }

    /// Opens the forest committed on `backend`. Runtime knobs
    /// (durability, pool size, threads) come from `opts`; the persisted
    /// manifest supplies config, memtable capacity and merge factor.
    /// Components present on the backend but absent from the winning
    /// manifest — debris of a crashed flush or merge — are removed.
    ///
    /// # Errors
    /// [`TreeError::NotAGaussTree`] if neither manifest slot is valid;
    /// [`TreeError::Corrupt`] if a component disagrees with the
    /// manifest; store errors otherwise.
    pub fn open(backend: B, opts: ForestOptions) -> Result<Self, TreeError> {
        let m = Self::committed_manifest(&backend)?.ok_or(TreeError::NotAGaussTree)?;
        let manifest_ids: HashSet<u64> = m.components.iter().map(|c| c.id).collect();
        for cid in backend.list_components()? {
            if !manifest_ids.contains(&cid) {
                backend.remove_component(cid)?;
            }
        }
        let stats = AccessStats::new_shared();
        let mut comps = Vec::with_capacity(m.components.len());
        for mc in &m.components {
            let store = backend.open_component(mc.id)?;
            let pool = SharedBufferPool::new(store, opts.pool_frames, Arc::clone(&stats));
            let tree = GaussTree::open(pool)?;
            if tree.len() != mc.len || tree.config().dims != m.config.dims {
                return Err(TreeError::Corrupt("component disagrees with manifest"));
            }
            let mut ids = HashSet::with_capacity(usize::try_from(mc.len).unwrap_or(0));
            tree.for_each_entry(|id, _| {
                ids.insert(id);
            })?;
            comps.push(Component {
                id: mc.id,
                level: mc.level,
                tree: Arc::new(tree),
                ids,
                tombstones: mc.tombstones.iter().copied().collect(),
            });
        }
        let mut newer: HashSet<u64> = HashSet::new();
        let mut live = 0u64;
        for c in &comps {
            live += c.ids.iter().filter(|id| !newer.contains(id)).count() as u64;
            newer.extend(c.ids.iter().copied());
            newer.extend(c.tombstones.iter().copied());
        }
        Ok(Self {
            backend,
            config: m.config,
            stats,
            mem: Memtable::new(),
            comps,
            epoch: m.epoch,
            next_component_id: m.next_component_id,
            live,
            memtable_capacity: usize::try_from(m.memtable_capacity).unwrap_or(usize::MAX),
            merge_factor: m.merge_factor as usize,
            durability: opts.durability,
            pool_frames: opts.pool_frames,
            threads: opts.threads,
        })
    }

    /// The newest manifest committed on `backend`, if there is one.
    fn committed_manifest(backend: &B) -> Result<Option<ForestManifest>, TreeError> {
        let slots = [
            backend.read_manifest_slot(0)?,
            backend.read_manifest_slot(1)?,
        ];
        Ok(ForestManifest::newest([
            slots[0].as_deref(),
            slots[1].as_deref(),
        ]))
    }

    /// Live objects visible in the forest.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// Whether no live objects are visible.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Manifest commit epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Tree configuration shared by every component.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Records currently buffered in the memtable (tombstones included).
    pub fn memtable_len(&self) -> usize {
        self.mem.len()
    }

    /// Memtable records that trigger an automatic flush (from the
    /// manifest, not [`ForestOptions`], after an `open`).
    pub fn memtable_capacity(&self) -> usize {
        self.memtable_capacity
    }

    /// Components per level that trigger a merge in [`Self::maintain`].
    pub fn merge_factor(&self) -> usize {
        self.merge_factor
    }

    /// Shared I/O counters across every component pool.
    pub fn stats(&self) -> &Arc<AccessStats> {
        &self.stats
    }

    /// Per-component statistics, newest first.
    pub fn component_stats(&self) -> Vec<ComponentInfo> {
        self.comps
            .iter()
            .map(|c| ComponentInfo {
                id: c.id,
                level: c.level,
                len: c.tree.len(),
                tombstones: c.tombstones.len(),
            })
            .collect()
    }

    /// Whether `id` is live (memtable first, then components newest to
    /// oldest — the first entry or tombstone for `id` decides).
    pub fn contains(&self, id: u64) -> bool {
        match self.mem.get(id) {
            Some(Some(_)) => return true,
            Some(None) => return false,
            None => {}
        }
        for c in &self.comps {
            if c.ids.contains(&id) {
                return true;
            }
            if c.tombstones.contains(&id) {
                return false;
            }
        }
        false
    }

    /// Upserts one pfv. Quantises immediately under a quantised leaf
    /// format (so memtable and flushed densities agree bit for bit) and
    /// auto-flushes when the memtable reaches capacity.
    ///
    /// # Errors
    /// Dimensionality mismatch, quantisation range errors, or store
    /// errors from an auto-flush.
    pub fn insert(&mut self, id: u64, v: &Pfv) -> Result<(), TreeError> {
        if v.dims() != self.config.dims {
            return Err(TreeError::DimMismatch {
                expected: self.config.dims,
                got: v.dims(),
            });
        }
        let stored = match crate::tree::quantise_for(self.config.leaf_format, v)? {
            Some(q) => q,
            None => v.clone(),
        };
        if !self.contains(id) {
            self.live += 1;
        }
        self.mem.put(id, Some(stored));
        self.maybe_flush()
    }

    /// Deletes one object (a tombstone until merges compact it away).
    /// Returns whether the id was live.
    ///
    /// # Errors
    /// Store errors from an auto-flush.
    pub fn delete(&mut self, id: u64) -> Result<bool, TreeError> {
        let existed = self.contains(id);
        if existed {
            self.live -= 1;
        }
        self.mem.put(id, None);
        self.maybe_flush()?;
        Ok(existed)
    }

    fn maybe_flush(&mut self) -> Result<(), TreeError> {
        if self.mem.len() >= self.memtable_capacity {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes the memtable into a new level-0 component and commits the
    /// manifest. Returns whether a component was produced (a memtable of
    /// nothing but no-op tombstones commits nothing).
    ///
    /// # Errors
    /// Store errors; on error the memtable is retained.
    pub fn flush(&mut self) -> Result<bool, TreeError> {
        if self.mem.is_empty() {
            return Ok(false);
        }
        let entries = self.mem.live_entries();
        // A tombstone must persist only while some older component still
        // stores the id; everything else it could shadow is gone.
        let tombstones: HashSet<u64> = self
            .mem
            .tombstones()
            .into_iter()
            .filter(|t| self.comps.iter().any(|c| c.ids.contains(t)))
            .collect();
        if entries.is_empty() && tombstones.is_empty() {
            self.mem.clear();
            return Ok(false);
        }
        let ids: HashSet<u64> = entries.iter().map(|(id, _)| *id).collect();
        let comp = self.build_component(0, entries, ids, tombstones)?;
        self.comps.insert(0, comp);
        match self.commit_manifest() {
            Ok(()) => {
                self.mem.clear();
                Ok(true)
            }
            Err(e) => {
                // Unlink the uncommitted component so the in-memory list
                // matches the durable manifest; its store becomes an
                // orphan that `open` cleans up.
                self.comps.remove(0);
                Err(e)
            }
        }
    }

    /// Merges every level holding at least `merge_factor` components,
    /// repeatedly, until no level is over-full. Each merge rewrites the
    /// union of its level (newest entry per id wins), drops tombstones
    /// that are redundant or have nothing older left to shadow, commits
    /// the manifest and only then removes the consumed component stores.
    ///
    /// # Errors
    /// Store errors; the committed forest is never left half-merged.
    pub fn maintain(&mut self) -> Result<MaintainReport, TreeError> {
        let mut report = MaintainReport::default();
        loop {
            let mut run: Option<(u32, usize, usize)> = None; // (level, start, count)
            for (i, c) in self.comps.iter().enumerate() {
                match &mut run {
                    Some((level, _, count)) if *level == c.level => *count += 1,
                    Some((_, _, count)) if *count >= self.merge_factor => break,
                    _ => run = Some((c.level, i, 1)),
                }
            }
            let Some((level, start, count)) = run.filter(|&(_, _, n)| n >= self.merge_factor)
            else {
                break;
            };
            self.merge_run(level, start, count, &mut report)?;
            report.merges += 1;
        }
        Ok(report)
    }

    fn merge_run(
        &mut self,
        level: u32,
        start: usize,
        count: usize,
        report: &mut MaintainReport,
    ) -> Result<(), TreeError> {
        let group: Vec<Component<B::Store>> = self.comps.drain(start..start + count).collect();
        // Newest-first shadowing inside the group: an id already claimed
        // (entry or tombstone) by a newer group member wins.
        let mut group_seen: HashSet<u64> = HashSet::new();
        let mut entries: Vec<(u64, Pfv)> = Vec::new();
        for c in &group {
            c.tree.for_each_entry(|id, v| {
                if !group_seen.contains(&id) {
                    entries.push((id, v.clone()));
                }
            })?;
            group_seen.extend(c.ids.iter().copied());
            group_seen.extend(c.tombstones.iter().copied());
        }
        entries.sort_by_key(|(id, _)| *id);
        let ids: HashSet<u64> = entries.iter().map(|(id, _)| *id).collect();
        let below = &self.comps[start..];
        let group_tombs: usize = group.iter().map(|c| c.tombstones.len()).sum();
        // Keep a tombstone only if it still shadows something: not
        // superseded by a kept entry, and present in some older
        // component. At the oldest level every tombstone bottoms out.
        let tombstones: HashSet<u64> = group
            .iter()
            .flat_map(|c| c.tombstones.iter().copied())
            .filter(|t| !ids.contains(t) && below.iter().any(|c| c.ids.contains(t)))
            .collect();
        report.components_merged += group.len();
        report.entries_rewritten += entries.len() as u64;
        report.tombstones_dropped += group_tombs - tombstones.len();
        if entries.is_empty() && tombstones.is_empty() {
            // The whole level cancelled out; commit its removal.
            self.commit_manifest()?;
        } else {
            let comp = self.build_component(level + 1, entries, ids, tombstones)?;
            self.comps.insert(start, comp);
            if let Err(e) = self.commit_manifest() {
                self.comps.remove(start);
                return Err(e);
            }
        }
        // Old stores go away only after the commit: a crash in between
        // leaves readable components plus a manifest that no longer
        // references them, cleaned up on open.
        for c in group {
            let cid = c.id;
            drop(c);
            self.backend.remove_component(cid)?;
        }
        Ok(())
    }

    fn build_component(
        &mut self,
        level: u32,
        entries: Vec<(u64, Pfv)>,
        ids: HashSet<u64>,
        tombstones: HashSet<u64>,
    ) -> Result<Component<B::Store>, TreeError> {
        let id = self.next_component_id;
        self.next_component_id += 1;
        let store = self.backend.create_component(id)?;
        let pool = SharedBufferPool::new(store, self.pool_frames, Arc::clone(&self.stats));
        // The bulk load commits the component once (an empty one — a
        // component of nothing but tombstones — as an empty root leaf).
        let opts = BulkLoadOptions::default()
            .with_threads(self.threads)
            .with_durability(self.durability);
        let tree = GaussTree::bulk_load_with(pool, self.config, entries, &opts)?.0;
        Ok(Component {
            id,
            level,
            tree: Arc::new(tree),
            ids,
            tombstones,
        })
    }

    /// Commits the current component list as the next epoch through
    /// [`commit::commit`]: the data barrier syncs every component's pages,
    /// the slot is the backend's manifest file of that parity, the commit
    /// barrier is the backend's manifest sync.
    fn commit_manifest(&mut self) -> Result<(), TreeError> {
        let next_epoch = self.epoch + 1;
        let m = ForestManifest {
            epoch: next_epoch,
            config: self.config,
            memtable_capacity: self.memtable_capacity as u64,
            merge_factor: u32::try_from(self.merge_factor).unwrap_or(u32::MAX),
            next_component_id: self.next_component_id,
            components: self
                .comps
                .iter()
                .map(|c| ManifestComponent {
                    id: c.id,
                    level: c.level,
                    len: c.tree.len(),
                    tombstones: {
                        let mut t: Vec<u64> = c.tombstones.iter().copied().collect();
                        t.sort_unstable();
                        t
                    },
                })
                .collect(),
        };
        commit::commit(
            MANIFEST_KIND,
            next_epoch,
            &mut m.encode(),
            || {
                self.comps
                    .iter()
                    .try_for_each(|c| c.tree.pool().sync(self.durability))
            },
            |slot, image| self.backend.write_manifest_slot(slot, image),
            || self.backend.sync_manifest(self.durability),
        )?;
        self.epoch = next_epoch;
        Ok(())
    }

    /// Pins a consistent, epoch-tagged view of the whole forest:
    /// memtable contents plus an `Arc` of every component tree, with
    /// per-component shadow sets precomputed. The snapshot implements
    /// [`crate::ReadView`] and stays valid across later flushes, merges
    /// and reopens of the forest.
    ///
    /// # Errors
    /// None: pinning reads nothing. The `Result` stays so that callers
    /// written against it (`?`) keep compiling.
    pub fn snapshot(&self) -> Result<ForestSnapshot<B::Store>, TreeError> {
        let mem = self.mem.live_entries();
        let mut newer: HashSet<u64> = self.mem.ids().collect();
        let mut comps = Vec::with_capacity(self.comps.len());
        for c in &self.comps {
            let hidden: HashSet<u64> = c.ids.intersection(&newer).copied().collect();
            newer.extend(c.ids.iter().copied());
            newer.extend(c.tombstones.iter().copied());
            comps.push(SnapComponent {
                tree: Arc::clone(&c.tree),
                hidden,
            });
        }
        debug_assert_eq!(
            mem.len() as u64
                + comps
                    .iter()
                    .map(|c| c.tree.len() - c.hidden.len() as u64)
                    .sum::<u64>(),
            self.live,
            "forest live count diverged from snapshot visibility"
        );
        Ok(ForestSnapshot {
            config: self.config,
            epoch: self.epoch,
            live: self.live,
            mem,
            comps,
        })
    }

    /// Consumes the forest, returning its backend.
    pub fn into_backend(self) -> B {
        self.backend
    }
}

/// One component pinned by a [`ForestSnapshot`]: the component tree plus
/// the ids newer data shadows inside it.
pub(crate) struct SnapComponent<S: PageStore> {
    pub(crate) tree: Arc<GaussTree<S>>,
    pub(crate) hidden: HashSet<u64>,
}

impl<S: PageStore> Clone for SnapComponent<S> {
    fn clone(&self) -> Self {
        Self {
            tree: Arc::clone(&self.tree),
            hidden: self.hidden.clone(),
        }
    }
}

/// A consistent read view over the whole forest at one manifest epoch.
/// See [`GaussForest::snapshot`].
pub struct ForestSnapshot<S: PageStore> {
    pub(crate) config: TreeConfig,
    pub(crate) epoch: u64,
    pub(crate) live: u64,
    /// Live memtable entries at pin time, ascending id.
    pub(crate) mem: Vec<(u64, Pfv)>,
    /// Pinned components, newest first.
    pub(crate) comps: Vec<SnapComponent<S>>,
}

impl<S: PageStore> Clone for ForestSnapshot<S> {
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            epoch: self.epoch,
            live: self.live,
            mem: self.mem.clone(),
            comps: self.comps.clone(),
        }
    }
}

impl<S: PageStore> ForestSnapshot<S> {
    /// Manifest epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live objects visible to the snapshot.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// Whether no live objects are visible.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Dimensionality of the indexed pfv.
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// Tree configuration shared by every component.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gauss_storage::{MemComponentStores, PageId};

    fn v(seed: u64) -> Pfv {
        let x = (seed as f64 * 0.731).sin() * 10.0;
        let y = (seed as f64 * 0.377).cos() * 10.0;
        Pfv::new(vec![x, y], vec![0.1 + (seed % 5) as f64 * 0.1, 0.2]).unwrap()
    }

    fn small_forest(cap: usize) -> GaussForest<MemComponentStores> {
        GaussForest::create(
            MemComponentStores::new(4096),
            TreeConfig::new(2).with_capacities(6, 4),
            ForestOptions::new().memtable_capacity(cap),
        )
        .unwrap()
    }

    #[test]
    fn insert_flush_merge_and_counts() {
        let mut f = small_forest(8);
        for i in 0..50u64 {
            f.insert(i, &v(i)).unwrap();
        }
        assert_eq!(f.len(), 50);
        assert!(f.component_stats().len() > 1, "auto-flush should have run");
        // Upsert and delete across component boundaries.
        f.insert(3, &v(103)).unwrap();
        assert_eq!(f.len(), 50);
        assert!(f.delete(4).unwrap());
        assert!(!f.delete(4).unwrap());
        assert!(!f.delete(999).unwrap());
        assert_eq!(f.len(), 49);
        assert!(f.contains(3));
        assert!(!f.contains(4));
        f.flush().unwrap();
        let report = f.maintain().unwrap();
        assert!(report.merges > 0);
        assert_eq!(f.len(), 49);
        assert!(f.contains(3));
        assert!(!f.contains(4));
        // Fully merged forest has one component and no tombstones left.
        let stats = f.component_stats();
        assert_eq!(stats.len(), 1, "stats: {stats:?}");
        assert_eq!(stats[0].tombstones, 0);
        assert_eq!(stats[0].len, 49);
    }

    #[test]
    fn a_component_is_committed_once_and_pinnable() {
        let mut f = small_forest(8);
        for i in 0..8u64 {
            f.insert(i, &v(i)).unwrap(); // the eighth insert flushes
        }
        assert_eq!(f.component_stats().len(), 1);
        // The bulk load commits the component once (epoch 1); the forest
        // adds no commit of its own.
        assert_eq!(f.comps[0].tree.epoch(), 1);
        let pinned = f.snapshot().unwrap();
        assert!(Arc::ptr_eq(&pinned.comps[0].tree, &f.comps[0].tree));
        assert_eq!(pinned.comps[0].tree.len(), 8);
        // A component of nothing but tombstones is the committed empty tree.
        f.delete(3).unwrap();
        assert!(f.flush().unwrap());
        assert_eq!(f.comps[0].tree.epoch(), 1);
        assert!(f.comps[0].tree.is_empty());
        assert_eq!(f.snapshot().unwrap().len(), 7);
        assert_eq!(pinned.len(), 8, "the older snapshot keeps its live set");
    }

    #[test]
    fn levels_double_and_stay_sorted() {
        let mut f = small_forest(4);
        for i in 0..40u64 {
            f.insert(i, &v(i)).unwrap();
            if i % 8 == 7 {
                f.maintain().unwrap();
            }
        }
        let stats = f.component_stats();
        for w in stats.windows(2) {
            assert!(w[0].level <= w[1].level, "levels out of order: {stats:?}");
        }
        // No level holds merge_factor components after maintain.
        f.flush().unwrap();
        f.maintain().unwrap();
        let stats = f.component_stats();
        for level in stats.iter().map(|c| c.level) {
            let n = stats.iter().filter(|c| c.level == level).count();
            assert!(n < 2, "level {level} still over-full: {stats:?}");
        }
    }

    #[test]
    fn reopen_restores_live_set_and_manifest() {
        let disk = MemComponentStores::new(4096);
        let config = TreeConfig::new(2).with_capacities(6, 4);
        let mut f = GaussForest::create(
            disk.clone(),
            config,
            ForestOptions::new().memtable_capacity(8),
        )
        .unwrap();
        for i in 0..30u64 {
            f.insert(i, &v(i)).unwrap();
        }
        f.delete(7).unwrap();
        f.insert(9, &v(109)).unwrap();
        f.flush().unwrap();
        let epoch = f.epoch();
        drop(f);
        let f = GaussForest::open(disk, ForestOptions::new()).unwrap();
        assert_eq!(f.epoch(), epoch);
        assert_eq!(f.len(), 29);
        assert_eq!(f.memtable_len(), 0);
        assert!(!f.contains(7));
        assert!(f.contains(9));
        // Manifest-persisted knobs survive the reopen.
        assert_eq!(f.memtable_capacity(), 8);
        assert_eq!(f.merge_factor(), 2);
    }

    #[test]
    fn a_huge_len_the_manifest_agrees_with_is_refused() {
        let disk = MemComponentStores::new(4096);
        let config = TreeConfig::new(2).with_capacities(6, 4);
        let opts = ForestOptions::new().memtable_capacity(8);
        let mut f = GaussForest::create(disk.clone(), config, opts).unwrap();
        for i in 0..8u64 {
            f.insert(i, &v(i)).unwrap(); // the eighth insert flushes
        }
        drop(f);
        let huge = 1u64 << 62;
        // The component's one commit (epoch 1, slot page 1) and the
        // manifest both claim `huge` entries, each behind a valid checksum.
        let mut m = GaussForest::committed_manifest(&disk).unwrap().unwrap();
        let mut store = disk.open_component(m.components[0].id).unwrap();
        let mut slot = vec![0u8; 4096];
        store.read_page(PageId(1), &mut slot).unwrap();
        let len_at = commit::HEADER_BYTES + 8 + TreeConfig::TAG_BYTES + 4 + 4 + 8 + 4;
        assert_eq!(slot[len_at..len_at + 8], 8u64.to_le_bytes());
        slot[len_at..len_at + 8].copy_from_slice(&huge.to_le_bytes());
        commit::seal(crate::tree::META_KIND, 1, &mut slot);
        store.write_page(PageId(1), &slot).unwrap();
        m.components[0].len = huge;
        let mut image = m.encode();
        commit::seal(MANIFEST_KIND, m.epoch, &mut image);
        disk.write_manifest_slot(commit::slot_of(m.epoch), &image)
            .unwrap();
        assert!(matches!(
            GaussForest::open(disk, ForestOptions::new()),
            Err(TreeError::NotAGaussTree)
        ));
    }

    #[test]
    fn create_refuses_existing_forest() {
        let disk = MemComponentStores::new(4096);
        let config = TreeConfig::new(2);
        let _f = GaussForest::create(disk.clone(), config, ForestOptions::new()).unwrap();
        assert!(matches!(
            GaussForest::create(disk, config, ForestOptions::new()),
            Err(TreeError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_pins_across_mutation() {
        use crate::view::ReadView as _;
        let mut f = small_forest(8);
        for i in 0..20u64 {
            f.insert(i, &v(i)).unwrap();
        }
        let snap = f.snapshot().unwrap();
        assert_eq!(snap.len(), 20);
        let q = v(3);
        let before = snap.k_mliq(&q, 5).unwrap();
        // Mutate heavily: the pinned snapshot must not move.
        for i in 0..20u64 {
            f.delete(i).unwrap();
        }
        f.flush().unwrap();
        f.maintain().unwrap();
        assert_eq!(f.len(), 0);
        let after = snap.k_mliq(&q, 5).unwrap();
        assert_eq!(before, after);
        assert!(f.snapshot().unwrap().k_mliq(&q, 5).unwrap().is_empty());
    }
}
