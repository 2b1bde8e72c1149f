#![forbid(unsafe_code)]
//! Fixture storage crate: cast-truncation violation.

/// Truncates a page byte count.
pub fn bad_cast(len: usize) -> u32 {
    len as u32
}

/// Lock-ordering fixtures.
pub mod locks;

/// Discards a sync result.
pub fn sloppy_sync(pool: &Disk) {
    let _ = pool.sync(0);
}

/// Commit-order fixture.
pub mod commit;
