//! Fixture: durability-protocol violations in the tree's free lists.

struct ShadowTree {
    free_pending: Vec<u32>,
    epoch: u64,
}

impl ShadowTree {
    fn broken_alloc(&mut self) -> Option<u32> {
        self.free_pending.pop()
    }
}
