//! Crate-internal LRU core: the frame map, intrusive recency list and
//! eviction of one [`crate::SideCache`] shard — and so of every
//! [`crate::SharedBufferPool`] shard, which keeps its page frames in a
//! side cache.

use crate::page::PageId;
use std::collections::HashMap;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Frame<T> {
    id: PageId,
    data: T,
    prev: usize,
    next: usize,
}

/// A map of page frames with least-recently-used eviction.
#[derive(Debug)]
pub(crate) struct LruCache<T> {
    map: HashMap<PageId, usize>,
    frames: Vec<Frame<T>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl<T> LruCache<T> {
    pub(crate) fn new() -> Self {
        Self {
            map: HashMap::new(),
            frames: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of cached frames.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Drops every frame.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.frames.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Cache lookup; refreshes the frame's LRU position on a hit.
    pub(crate) fn get(&mut self, id: PageId) -> Option<&mut T> {
        let &slot = self.map.get(&id)?;
        self.touch(slot);
        Some(&mut self.frames[slot].data)
    }

    /// Drops the frame for `id`, returning its payload if it was cached.
    pub(crate) fn remove(&mut self, id: PageId) -> Option<T>
    where
        T: Default,
    {
        let slot = self.map.remove(&id)?;
        self.detach(slot);
        self.free.push(slot);
        Some(std::mem::take(&mut self.frames[slot].data))
    }

    /// Installs (or replaces) a frame, evicting the least recently used one
    /// when the cache is at `capacity`. Returns `true` iff a frame was
    /// evicted, so callers can account for it.
    pub(crate) fn insert(&mut self, id: PageId, data: T, capacity: usize) -> bool {
        if let Some(&slot) = self.map.get(&id) {
            self.frames[slot].data = data;
            self.touch(slot);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "capacity > 0 implies a tail exists");
            self.detach(victim);
            let old_id = self.frames[victim].id;
            self.map.remove(&old_id);
            self.free.push(victim);
            evicted = true;
        }
        let frame = Frame {
            id,
            data,
            prev: NIL,
            next: NIL,
        };
        let slot = if let Some(slot) = self.free.pop() {
            self.frames[slot] = frame;
            slot
        } else {
            self.frames.push(frame);
            self.frames.len() - 1
        };
        self.map.insert(id, slot);
        self.push_front(slot);
        evicted
    }

    // ---- intrusive LRU list ------------------------------------------------

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.frames[slot].prev, self.frames[slot].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.frames[slot].prev = NIL;
        self.frames[slot].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn touch(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.detach(slot);
        self.push_front(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32> = LruCache::new();
        assert!(!c.insert(PageId(0), 0, 2));
        assert!(!c.insert(PageId(1), 1, 2));
        assert!(c.get(PageId(0)).is_some()); // 0 now most recent
        assert!(c.insert(PageId(2), 2, 2), "must evict page 1");
        assert!(c.get(PageId(0)).is_some());
        assert!(c.get(PageId(1)).is_none());
        assert!(c.get(PageId(2)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replacing_present_frame_never_evicts() {
        let mut c: LruCache<u32> = LruCache::new();
        c.insert(PageId(0), 0, 1);
        assert!(!c.insert(PageId(0), 99, 1));
        assert_eq!(*c.get(PageId(0)).unwrap(), 99);
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut c: LruCache<u32> = LruCache::new();
        c.insert(PageId(0), 10, 4);
        c.insert(PageId(1), 11, 4);
        assert_eq!(c.remove(PageId(0)), Some(10));
        assert_eq!(c.remove(PageId(0)), None);
        assert!(c.get(PageId(0)).is_none());
        assert!(c.get(PageId(1)).is_some());
        assert_eq!(c.len(), 1);
        // The freed slot is reusable without growing the frame vector.
        c.insert(PageId(2), 12, 4);
        assert_eq!(*c.get(PageId(2)).unwrap(), 12);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut c: LruCache<u32> = LruCache::new();
        c.insert(PageId(0), 0, 4);
        c.clear();
        assert_eq!(c.len(), 0);
        assert!(c.get(PageId(0)).is_none());
    }
}
