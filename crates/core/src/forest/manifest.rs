//! The forest manifest: what one forest commit records — the persisted
//! knobs and the component list, newest first.
//!
//! This module owns the manifest *payload* only. How a payload is sealed
//! into a slot, which of the two slots it goes to, how the newest valid
//! slot is found again and in what order barriers and the slot write run
//! is [`gauss_storage::commit`]'s business — the same protocol the single
//! tree's meta pages go through, with two manifest files as the slots.
//! [`super::GaussForest`] owns where the slots live and what the barriers
//! are.

use crate::config::TreeConfig;
use gauss_storage::commit::{self, SlotKind, HEADER_BYTES};
use gauss_storage::{Reader, Writer};

/// A forest manifest slot: magic "GFor", format version 1.
pub(crate) const MANIFEST_KIND: SlotKind = SlotKind {
    magic: 0x4746_6F72,
    version: 1,
};

/// One immutable component as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestComponent {
    /// Backend component id (names the underlying store).
    pub id: u64,
    /// LSM level; level `l + 1` components are merge products of level
    /// `l` runs and therefore older and larger.
    pub level: u32,
    /// Number of entries stored in the component's tree.
    pub len: u64,
    /// Ids whose deletion this component records: they shadow any entry
    /// with the same id in an *older* component.
    pub tombstones: Vec<u64>,
}

/// The decoded manifest: forest-wide config plus the component list in
/// newest-first order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ForestManifest {
    /// Commit epoch; strictly increasing, the higher valid slot wins.
    pub epoch: u64,
    /// Tree configuration shared by every component.
    pub config: TreeConfig,
    /// Memtable flush threshold (records, including tombstones).
    pub memtable_capacity: u64,
    /// Components per level that trigger a merge in `maintain`.
    pub merge_factor: u32,
    /// Next component id the forest will allocate.
    pub next_component_id: u64,
    /// Components, newest first.
    pub components: Vec<ManifestComponent>,
}

impl ForestManifest {
    /// The unsealed slot image of this manifest: [`HEADER_BYTES`] left for
    /// [`commit::commit`] to fill, then the payload, exact length.
    pub fn encode(&self) -> Vec<u8> {
        let fixed = HEADER_BYTES + TreeConfig::TAG_BYTES + 1 + 8 + 4 + 8 + 4;
        let per_comp: usize = self
            .components
            .iter()
            .map(|c| 8 + 4 + 8 + 4 + 8 * c.tombstones.len())
            .sum();
        let mut buf = vec![0u8; fixed + per_comp];
        let mut w = Writer::new(&mut buf[HEADER_BYTES..]);
        self.config.write_tags(&mut w);
        w.put_u8(0); // reserved
        w.put_u64(self.memtable_capacity);
        w.put_u32(self.merge_factor);
        w.put_u64(self.next_component_id);
        w.put_u32(u32::try_from(self.components.len()).unwrap_or(u32::MAX));
        for c in &self.components {
            w.put_u64(c.id);
            w.put_u32(c.level);
            w.put_u64(c.len);
            w.put_u32(u32::try_from(c.tombstones.len()).unwrap_or(u32::MAX));
            for t in &c.tombstones {
                w.put_u64(*t);
            }
        }
        debug_assert_eq!(w.remaining(), 0, "manifest size mis-computed");
        buf
    }

    /// Parses the payload of a slot that [`commit::valid_slots`] found
    /// valid at `epoch`. `None` for a payload this version does not
    /// accept — a bad tag, a short buffer, components out of order — so
    /// the caller can fall back to the older slot.
    pub fn decode(epoch: u64, payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let config = TreeConfig::read_tags(&mut r)?;
        let _reserved = r.get_u8().ok()?;
        let memtable_capacity = r.get_u64().ok()?;
        let merge_factor = r.get_u32().ok()?;
        let next_component_id = r.get_u64().ok()?;
        let n_comps = r.get_u32().ok()? as usize;
        if merge_factor < 2 {
            return None;
        }
        let mut components = Vec::with_capacity(n_comps.min(1024));
        for _ in 0..n_comps {
            let id = r.get_u64().ok()?;
            let level = r.get_u32().ok()?;
            let len = r.get_u64().ok()?;
            let n_tombs = r.get_u32().ok()? as usize;
            let mut tombstones = Vec::with_capacity(n_tombs.min(1024));
            for _ in 0..n_tombs {
                tombstones.push(r.get_u64().ok()?);
            }
            if id >= next_component_id {
                return None;
            }
            components.push(ManifestComponent {
                id,
                level,
                len,
                tombstones,
            });
        }
        // Newest-first means levels never decrease down the list.
        if components.windows(2).any(|w| w[0].level > w[1].level) {
            return None;
        }
        Some(Self {
            epoch,
            config,
            memtable_capacity,
            merge_factor,
            next_component_id,
            components,
        })
    }

    /// The newest manifest the two slot images hold: valid slots newest
    /// first, the first whose payload decodes.
    pub fn newest(slots: [Option<&[u8]>; 2]) -> Option<Self> {
        commit::valid_slots(MANIFEST_KIND, slots)
            .valid
            .into_iter()
            .find_map(|(epoch, payload)| Self::decode(epoch, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LeafFormat;
    use pfv::CombineMode;
    use proptest::prelude::*;

    fn sample() -> ForestManifest {
        ForestManifest {
            epoch: 7,
            config: TreeConfig::new(3)
                .with_combine(CombineMode::AdditiveSigma)
                .with_leaf_format(LeafFormat::Quantised),
            memtable_capacity: 512,
            merge_factor: 2,
            next_component_id: 5,
            components: vec![
                ManifestComponent {
                    id: 4,
                    level: 0,
                    len: 512,
                    tombstones: vec![9, 11],
                },
                ManifestComponent {
                    id: 3,
                    level: 1,
                    len: 1024,
                    tombstones: vec![],
                },
            ],
        }
    }

    /// The sealed slot image a commit of `m` writes.
    fn slot(m: &ForestManifest) -> Vec<u8> {
        let mut image = m.encode();
        commit::seal(MANIFEST_KIND, m.epoch, &mut image);
        image
    }

    fn load(image: &[u8]) -> Option<ForestManifest> {
        ForestManifest::newest([Some(image), None])
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(load(&slot(&m)), Some(m));
    }

    #[test]
    fn corruption_rejected() {
        let m = sample();
        let bytes = slot(&m);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert_eq!(load(&bad), None, "flipped byte {i} still loads");
        }
        assert!(load(&bytes[..bytes.len() - 1]).is_none());
        assert!(load(&[]).is_none());
    }

    #[test]
    fn order_violations_rejected() {
        let mut swapped = sample();
        swapped.components.swap(0, 1); // level 1 before level 0
        assert!(load(&slot(&swapped)).is_none());
        let mut m = sample();
        m.components[0].id = 99; // >= next_component_id
        assert!(load(&slot(&m)).is_none());
        // A newer slot whose payload is refused loses to the older one,
        // checksum-valid though it is.
        swapped.epoch = 8;
        let (newer, older) = (slot(&swapped), slot(&sample()));
        let got = ForestManifest::newest([Some(&newer), Some(&older)]);
        assert_eq!(got, Some(sample()));
    }

    /// Offsets of the two kinds of count field in `sample()`'s image.
    const N_COMPS_AT: usize = HEADER_BYTES + TreeConfig::TAG_BYTES + 1 + 8 + 4 + 8;
    const N_TOMBS_AT: usize = N_COMPS_AT + 4 + 8 + 4 + 8;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hostile bytes in the newer of two manifest slots: the forest
        /// gets the same manifest, the older epoch or nothing — never a
        /// different manifest, a panic or an allocation sized by the slot.
        #[test]
        fn mutated_manifest_slot_is_refused_or_equal(
            (mutation, a, b, flips) in (0usize..5, 0usize..4096, 0u64..u64::MAX, 1usize..9)
        ) {
            let mut newer = sample();
            newer.epoch = 8;
            let (clean, older) = (slot(&newer), slot(&sample()));
            let mut image = clean.clone();
            match mutation {
                // 1–8 bit flips anywhere, header included.
                0 => for k in 0..flips {
                    let at = (a + k * 977) % image.len();
                    image[at] ^= 1 << ((b >> (3 * k)) & 7);
                },
                1 => image.truncate(a % image.len()),
                // A zeroed run, as a hole in a torn write would leave.
                2 => {
                    let from = a % image.len();
                    let to = (from + 1 + (b as usize) % 64).min(image.len());
                    image[from..to].fill(0);
                }
                // Oversized counts behind a *valid* checksum.
                3 | 4 => {
                    let at = if mutation == 3 { N_COMPS_AT } else { N_TOMBS_AT };
                    let count = [u32::MAX, u32::MAX / 8, 3 + (b as u32 >> 8)][a % 3];
                    image[at..at + 4].copy_from_slice(&count.to_le_bytes());
                    commit::seal(MANIFEST_KIND, 8, &mut image);
                }
                _ => unreachable!(),
            }
            let got = ForestManifest::newest([Some(&image), Some(&older)]);
            if image == clean {
                prop_assert_eq!(got, Some(newer));
            } else {
                prop_assert_eq!(got, Some(sample()), "a damaged slot must lose to the older one");
            }
        }
    }

    #[test]
    fn count_offsets_are_the_encoded_ones() {
        let image = slot(&sample());
        assert_eq!(image[N_COMPS_AT..N_COMPS_AT + 4], 2u32.to_le_bytes());
        assert_eq!(image[N_TOMBS_AT..N_TOMBS_AT + 4], 2u32.to_le_bytes());
    }
}
