//! The checksummed dual-slot epoch commit — the one place that knows how
//! a committed state is sealed, found again, and made durable.
//!
//! A *slot image* is a byte string that starts with a 24-byte header
//!
//! ```text
//! magic u32 | version u32 | checksum u64 | epoch u64 | payload …
//! ```
//!
//! (little-endian; the checksum is FNV-1a over the whole image with the
//! checksum field zeroed, so padding after the payload is covered too).
//! There are two slots. Epoch `e` is written to slot `e % 2`, so a commit
//! never overwrites the newest committed state, and a reader takes the
//! valid slot with the highest epoch — a torn or interrupted slot write
//! simply loses to the previous commit.
//!
//! The module owns the header, the checksum, the parity rule, the
//! selection ([`valid_slots`](crate::commit::valid_slots)) and the write
//! order ([`commit`](crate::commit::commit)). It does not know what a
//! payload means or where a slot lives: the Gauss-tree keeps its two slots
//! in pages 0–1 of its page file (payload: config, root, free list; padded
//! to the page), the Gauss-forest in two manifest files (payload: knobs
//! and component list; exact length). Both hand
//! [`commit`](crate::commit::commit) their barriers and their slot write
//! as closures.

use crate::codec::{fnv1a64, Reader, Writer};
use crate::store::StoreError;

/// Bytes of the slot header in front of every payload.
pub const HEADER_BYTES: usize = 24;

/// Where the checksum sits: behind magic and version, before the epoch.
const CHECKSUM: std::ops::Range<usize> = 8..16;

/// What a slot is expected to hold: the magic number and format version
/// of one kind of commit record. A slot with any other magic or version
/// is not a commit of this kind, whatever else it contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotKind {
    /// Magic number identifying the record type.
    pub magic: u32,
    /// The one format version that is read and written.
    pub version: u32,
}

/// The slot (0 or 1) that epoch `epoch` is committed to.
#[must_use]
pub fn slot_of(epoch: u64) -> usize {
    usize::from(epoch % 2 == 1)
}

/// Writes the header for `epoch` into the first [`HEADER_BYTES`] of
/// `image` and patches in the checksum over the whole image. The payload
/// (and any padding) must already be in place behind the header.
///
/// # Panics
/// Panics if `image` is shorter than the header.
pub fn seal(kind: SlotKind, epoch: u64, image: &mut [u8]) {
    let mut w = Writer::new(image);
    w.put_u32(kind.magic);
    w.put_u32(kind.version);
    w.put_u64(0); // the checksum is taken with its own field zeroed
    w.put_u64(epoch);
    let sum = fnv1a64(image);
    image[CHECKSUM].copy_from_slice(&sum.to_le_bytes());
}

/// Validates one slot image — magic, version, checksum, a non-zero epoch —
/// and returns its epoch and payload; `None` for anything that is not a
/// commit of `kind` (torn, stale, truncated, another format, garbage).
#[must_use]
pub fn open(kind: SlotKind, image: &[u8]) -> Option<(u64, &[u8])> {
    let mut r = Reader::new(image);
    if r.get_u32().ok()? != kind.magic || r.get_u32().ok()? != kind.version {
        return None;
    }
    let stored_sum = r.get_u64().ok()?;
    let epoch = r.get_u64().ok()?;
    let mut zeroed = image.to_vec();
    zeroed[CHECKSUM].fill(0);
    if epoch == 0 || fnv1a64(&zeroed) != stored_sum {
        return None;
    }
    Some((epoch, &image[HEADER_BYTES..]))
}

/// What [`valid_slots`] found in the two slots.
#[derive(Debug)]
pub struct Slots<'a> {
    /// `(epoch, payload)` of every slot holding a valid commit, newest
    /// epoch first. A caller whose payload fails its own validation moves
    /// on to the next entry.
    pub valid: Vec<(u64, &'a [u8])>,
    /// Whether a slot holds bytes that are *not* a valid commit — a torn
    /// or foreign write, as opposed to a slot that was never written
    /// (absent or all zero; epoch 1 only ever writes one slot).
    pub torn: bool,
}

/// Sorts the two slot images into the valid commits of `kind`, newest
/// first, and notes whether a non-empty slot failed to validate. `None`
/// stands for a slot that does not exist yet.
#[must_use]
pub fn valid_slots<'a>(kind: SlotKind, images: [Option<&'a [u8]>; 2]) -> Slots<'a> {
    let mut slots = Slots {
        valid: Vec::with_capacity(2),
        torn: false,
    };
    for image in images.into_iter().flatten() {
        match open(kind, image) {
            Some(found) => slots.valid.push(found),
            None => slots.torn |= image.iter().any(|&b| b != 0),
        }
    }
    slots
        .valid
        .sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
    slots
}

/// Commits `image` as epoch `epoch`: seals it, then
///
/// 1. `data_barrier` — everything the payload refers to becomes durable;
/// 2. `write_slot(slot_of(epoch), image)` — the slot that does *not* hold
///    the newest committed epoch is overwritten;
/// 3. `commit_barrier` — the new epoch is durable before this returns.
///
/// A crash before step 2 completes leaves the previous epoch the newest
/// valid slot; the data barrier guarantees that once the new slot is
/// valid, what it names is on disk.
///
/// # Errors
/// The first error of the three steps; later steps are not run, and the
/// caller's in-memory state must stay at the previous epoch.
pub fn commit(
    kind: SlotKind,
    epoch: u64,
    image: &mut [u8],
    data_barrier: impl FnOnce() -> Result<(), StoreError>,
    write_slot: impl FnOnce(usize, &[u8]) -> Result<(), StoreError>,
    commit_barrier: impl FnOnce() -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    seal(kind, epoch, image);
    data_barrier()?;
    write_slot(slot_of(epoch), image)?;
    commit_barrier()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    const KIND: SlotKind = SlotKind {
        magic: 0x5445_5354, // "TEST"
        version: 7,
    };

    /// A sealed image of `len` bytes whose payload is a byte ramp.
    fn sealed(epoch: u64, len: usize) -> Vec<u8> {
        let mut image: Vec<u8> = (0..len).map(|i| (i * 31 + 5) as u8).collect();
        seal(KIND, epoch, &mut image);
        image
    }

    #[test]
    fn seal_open_round_trip_padded_and_exact() {
        // Exact length: the payload ends with the image.
        let exact = sealed(9, HEADER_BYTES + 13);
        let (epoch, payload) = open(KIND, &exact).expect("valid");
        assert_eq!(epoch, 9);
        assert_eq!(payload, &exact[HEADER_BYTES..]);
        // Padded to a page: the zero tail is covered by the checksum.
        let mut padded = vec![0u8; 512];
        padded[HEADER_BYTES..HEADER_BYTES + 3].copy_from_slice(b"abc");
        seal(KIND, 4, &mut padded);
        let (epoch, payload) = open(KIND, &padded).expect("valid");
        assert_eq!((epoch, payload.len()), (4, 512 - HEADER_BYTES));
        assert_eq!(&payload[..3], b"abc");
        // An empty payload is still a commit.
        assert_eq!(
            open(KIND, &sealed(1, HEADER_BYTES)),
            Some((1, &[][..])),
            "header-only image"
        );
        // Header layout is the persisted one: magic, version, sum, epoch.
        assert_eq!(exact[..4], KIND.magic.to_le_bytes());
        assert_eq!(exact[4..8], KIND.version.to_le_bytes());
        assert_eq!(exact[16..24], 9u64.to_le_bytes());
    }

    #[test]
    fn wrong_kind_and_epoch_zero_are_refused() {
        let image = sealed(3, 64);
        for other in [
            SlotKind { magic: 1, ..KIND },
            SlotKind {
                version: KIND.version - 1,
                ..KIND
            },
            SlotKind {
                version: KIND.version + 1,
                ..KIND
            },
        ] {
            assert!(open(other, &image).is_none());
        }
        assert!(
            open(KIND, &sealed(0, 64)).is_none(),
            "epoch 0 never commits"
        );
    }

    #[test]
    fn corruption_rejected() {
        for image in [sealed(7, HEADER_BYTES + 40), sealed(7, 256)] {
            let clean = open(KIND, &image).expect("valid");
            for i in 0..image.len() {
                for bit in 0..8 {
                    let mut bad = image.clone();
                    bad[i] ^= 1 << bit;
                    assert_eq!(open(KIND, &bad), None, "bit {bit} of byte {i} flipped");
                }
                let mut bad = image.clone();
                bad[i] ^= 0xFF;
                assert_eq!(open(KIND, &bad), None, "byte {i} inverted");
            }
            for len in 0..image.len() {
                let got = open(KIND, &image[..len]);
                assert!(got.is_none(), "truncated to {len} bytes: {got:?}");
            }
            assert_eq!(open(KIND, &image), Some(clean));
        }
    }

    #[test]
    fn choose_prefers_higher_epoch() {
        let (a, b) = (sealed(4, 64), sealed(3, 64));
        let epochs = |images| -> (Vec<u64>, bool) {
            let slots = valid_slots(KIND, images);
            (slots.valid.iter().map(|s| s.0).collect(), slots.torn)
        };
        assert_eq!(epochs([Some(&a), Some(&b)]), (vec![4, 3], false));
        assert_eq!(epochs([Some(&b), Some(&a)]), (vec![4, 3], false));
        assert_eq!(epochs([Some(&b), None]), (vec![3], false));
        assert_eq!(epochs([None, None]), (vec![], false));
        // A slot that was allocated but never written is not torn ...
        let blank = vec![0u8; 64];
        assert_eq!(epochs([Some(&blank), Some(&b)]), (vec![3], false));
        assert_eq!(epochs([Some(&[]), Some(&b)]), (vec![3], false));
        // ... a corrupt higher slot is, and loses to the valid lower one.
        let mut bad = a.clone();
        bad[20] ^= 1;
        assert_eq!(epochs([Some(&bad), Some(&b)]), (vec![3], true));
        assert_eq!(epochs([Some(&bad), None]), (vec![], true));
        assert_eq!(slot_of(3), 1);
        assert_eq!(slot_of(4), 0);
    }

    /// Two in-memory slots plus a log of what `commit` did to them.
    struct FakeDisk {
        slots: RefCell<[Option<Vec<u8>>; 2]>,
        log: RefCell<Vec<&'static str>>,
    }

    impl FakeDisk {
        fn new() -> Self {
            Self {
                slots: RefCell::new([None, None]),
                log: RefCell::new(Vec::new()),
            }
        }

        /// Runs one commit, failing at step `fail_at` (0 = data barrier,
        /// 1 = slot write — torn: half the image lands — 2 = commit
        /// barrier) if given.
        fn commit(&self, epoch: u64, fail_at: Option<usize>) -> Result<(), StoreError> {
            let step = |n: usize, name: &'static str| {
                self.log.borrow_mut().push(name);
                if fail_at == Some(n) {
                    return Err(StoreError::Io(std::io::Error::other("injected")));
                }
                Ok(())
            };
            let mut image = vec![0u8; 64];
            image[HEADER_BYTES] = epoch as u8;
            commit(
                KIND,
                epoch,
                &mut image,
                || step(0, "data barrier"),
                |slot, bytes| {
                    let landed = if fail_at == Some(1) {
                        bytes.len() / 2
                    } else {
                        bytes.len()
                    };
                    let mut torn = vec![0xEE; bytes.len()];
                    torn[..landed].copy_from_slice(&bytes[..landed]);
                    self.slots.borrow_mut()[slot] = Some(torn);
                    step(1, "slot write")
                },
                || step(2, "commit barrier"),
            )
        }

        fn newest(&self) -> Option<u64> {
            let slots = self.slots.borrow();
            let found = valid_slots(KIND, [slots[0].as_deref(), slots[1].as_deref()]);
            found.valid.first().map(|s| s.0)
        }
    }

    #[test]
    fn commit_orders_barrier_write_barrier() {
        let disk = FakeDisk::new();
        disk.commit(1, None).unwrap();
        assert_eq!(
            *disk.log.borrow(),
            ["data barrier", "slot write", "commit barrier"]
        );
        assert!(disk.slots.borrow()[0].is_none(), "epoch 1 goes to slot 1");
        disk.commit(2, None).unwrap();
        assert_eq!(disk.newest(), Some(2));
        let slots = disk.slots.borrow();
        let (epoch, payload) = open(KIND, slots[0].as_deref().unwrap()).unwrap();
        assert_eq!((epoch, payload[0]), (2, 2), "sealed image reached slot 0");
    }

    #[test]
    fn a_failed_step_never_costs_the_older_epoch() {
        for fail_at in 0..3 {
            let disk = FakeDisk::new();
            disk.commit(1, None).unwrap();
            disk.commit(2, None).unwrap();
            disk.log.borrow_mut().clear();
            assert!(disk.commit(3, Some(fail_at)).is_err());
            let ran = disk.log.borrow().len();
            assert_eq!(ran, fail_at + 1, "no step runs after the failed one");
            // A failed commit barrier may still have landed the slot; a
            // failed barrier or a torn write before it must not win.
            let want = if fail_at == 2 { 3 } else { 2 };
            assert_eq!(disk.newest(), Some(want), "failure at step {fail_at}");
            // Epoch 2's slot was never touched, whatever happened.
            let slots = disk.slots.borrow();
            assert!(open(KIND, slots[0].as_deref().unwrap()).is_some());
        }
    }
}
