//! Fixture: durability-protocol violation in the commit order.

/// Writes the slot before what it names is durable.
pub fn broken_commit(
    data_barrier: impl FnOnce(),
    write_slot: impl FnOnce(usize),
    commit_barrier: impl FnOnce(),
) {
    write_slot(0);
    data_barrier();
    commit_barrier();
}
