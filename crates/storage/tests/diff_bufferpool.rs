//! Differential test: the dense page-table buffer pool against the
//! `HashMap`-indexed one it replaced.
//!
//! `BufferPool` finds a page's frame through a vector indexed by page id.
//! The pool below is the same CLOCK pool with its page table in a
//! `HashMap<PageId, usize>`, as it was before. Driven with the same random
//! traffic on a small pool — allocation, reads, writes, pins, flushes and
//! the evictions they force — both must report identical accesses,
//! statistics, residency, dirty sets, pin counts and disk I/O, and leave
//! identical disks behind.

use bionic_storage::bufferpool::{Access, BufferPool, PoolStats};
use bionic_storage::disk::DiskManager;
use bionic_storage::page::{Page, PageId};
use proptest::prelude::*;

/// The `HashMap`-indexed CLOCK pool, kept as the oracle.
mod oracle {
    use bionic_storage::bufferpool::{Access, PoolStats};
    use bionic_storage::disk::DiskManager;
    use bionic_storage::page::{Page, PageId};
    use std::collections::HashMap;

    struct Frame {
        page_id: PageId,
        page: Page,
        dirty: bool,
        referenced: bool,
        pins: u32,
    }

    pub struct MapPool {
        capacity: usize,
        frames: Vec<Frame>,
        map: HashMap<PageId, usize>,
        hand: usize,
        disk: DiskManager,
        stats: PoolStats,
    }

    impl MapPool {
        pub fn new(capacity: usize, disk: DiskManager) -> Self {
            MapPool {
                capacity,
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
                disk,
                stats: PoolStats::default(),
            }
        }

        pub fn allocate_page(&mut self) -> (PageId, Access) {
            let id = self.disk.allocate();
            (id, self.fault_in(id))
        }

        fn evict_victim(&mut self) -> (usize, bool) {
            loop {
                let f = &mut self.frames[self.hand];
                if f.pins > 0 {
                    self.hand = (self.hand + 1) % self.frames.len();
                } else if f.referenced {
                    f.referenced = false;
                    self.hand = (self.hand + 1) % self.frames.len();
                } else {
                    let idx = self.hand;
                    self.hand = (self.hand + 1) % self.frames.len();
                    let dirty = self.frames[idx].dirty;
                    if dirty {
                        let (pid, page) = (self.frames[idx].page_id, self.frames[idx].page.clone());
                        self.disk.write(pid, &page);
                        self.stats.dirty_evictions += 1;
                    }
                    self.map.remove(&self.frames[idx].page_id);
                    return (idx, dirty);
                }
            }
        }

        fn fault_in(&mut self, id: PageId) -> Access {
            if let Some(&idx) = self.map.get(&id) {
                self.frames[idx].referenced = true;
                self.stats.hits += 1;
                return Access {
                    hit: true,
                    evicted_dirty: false,
                };
            }
            self.stats.misses += 1;
            let page = self.disk.read(id);
            let mut evicted_dirty = false;
            let frame = Frame {
                page_id: id,
                page,
                dirty: false,
                referenced: true,
                pins: 0,
            };
            let idx = if self.frames.len() < self.capacity {
                self.frames.push(frame);
                self.frames.len() - 1
            } else {
                let (idx, dirty) = self.evict_victim();
                evicted_dirty = dirty;
                self.frames[idx] = frame;
                idx
            };
            self.map.insert(id, idx);
            Access {
                hit: false,
                evicted_dirty,
            }
        }

        pub fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> (R, Access) {
            let access = self.fault_in(id);
            let idx = self.map[&id];
            (f(&self.frames[idx].page), access)
        }

        pub fn with_page_mut<R>(
            &mut self,
            id: PageId,
            f: impl FnOnce(&mut Page) -> R,
        ) -> (R, Access) {
            let access = self.fault_in(id);
            let idx = self.map[&id];
            self.frames[idx].dirty = true;
            (f(&mut self.frames[idx].page), access)
        }

        pub fn pin(&mut self, id: PageId) -> Access {
            let access = self.fault_in(id);
            let idx = self.map[&id];
            self.frames[idx].pins += 1;
            access
        }

        pub fn unpin(&mut self, id: PageId) {
            let idx = self.map[&id];
            self.frames[idx].pins -= 1;
        }

        pub fn pin_count(&self, id: PageId) -> u32 {
            self.map.get(&id).map_or(0, |&idx| self.frames[idx].pins)
        }

        pub fn is_resident(&self, id: PageId) -> bool {
            self.map.contains_key(&id)
        }

        pub fn flush(&mut self, id: PageId) -> bool {
            if let Some(&idx) = self.map.get(&id) {
                if self.frames[idx].dirty {
                    let page = self.frames[idx].page.clone();
                    self.disk.write(id, &page);
                    self.frames[idx].dirty = false;
                    self.stats.flushes += 1;
                    return true;
                }
            }
            false
        }

        pub fn flush_all(&mut self) -> u64 {
            let ids = self.dirty_page_ids();
            let n = ids.len() as u64;
            for id in ids {
                self.flush(id);
            }
            n
        }

        pub fn flush_some(&mut self, n: usize) -> u64 {
            let mut written = 0;
            for id in self.dirty_page_ids().into_iter().take(n) {
                if self.flush(id) {
                    written += 1;
                }
            }
            written
        }

        pub fn dirty_page_ids(&self) -> Vec<PageId> {
            let mut ids: Vec<PageId> = self
                .frames
                .iter()
                .filter(|f| f.dirty)
                .map(|f| f.page_id)
                .collect();
            ids.sort_unstable();
            ids
        }

        pub fn stats(&self) -> PoolStats {
            self.stats
        }

        pub fn resident(&self) -> usize {
            self.frames.len()
        }

        pub fn disk_io(&self) -> (u64, u64) {
            self.disk.io_counters()
        }

        pub fn crash(self) -> DiskManager {
            self.disk
        }
    }
}

use oracle::MapPool;

#[derive(Debug, Clone)]
enum Op {
    Allocate,
    Read(usize),
    Write(usize, u8),
    Pin(usize),
    Unpin(usize),
    Flush(usize),
    FlushSome(usize),
    FlushAll,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Allocate),
        (0usize..64).prop_map(Op::Read),
        (0usize..64).prop_map(Op::Read),
        (0usize..64, any::<u8>()).prop_map(|(i, b)| Op::Write(i, b)),
        (0usize..64, any::<u8>()).prop_map(|(i, b)| Op::Write(i, b)),
        (0usize..64).prop_map(Op::Pin),
        (0usize..64).prop_map(Op::Unpin),
        (0usize..64).prop_map(Op::Flush),
        (0usize..6).prop_map(Op::FlushSome),
        Just(Op::FlushAll),
    ]
}

fn assert_same(new: &BufferPool, old: &MapPool, ids: &[PageId], ctx: &str) {
    let stats: (PoolStats, PoolStats) = (new.stats(), old.stats());
    assert_eq!(stats.0, stats.1, "{ctx}: stats");
    assert_eq!(new.resident(), old.resident(), "{ctx}: resident");
    assert_eq!(
        new.dirty_page_ids(),
        old.dirty_page_ids(),
        "{ctx}: dirty ids"
    );
    assert_eq!(new.disk_io(), old.disk_io(), "{ctx}: disk io");
    for &id in ids
        .iter()
        .chain([PageId(ids.len() as u64 + 5), PageId::INVALID].iter())
    {
        assert_eq!(new.pin_count(id), old.pin_count(id), "{ctx}: pins of {id}");
        assert_eq!(
            new.is_resident(id),
            old.is_resident(id),
            "{ctx}: residency of {id}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_page_table_matches_the_hash_map_oracle(
        ops in prop::collection::vec(op(), 1..300),
        capacity in 1usize..8,
        initial in 1usize..12,
    ) {
        let mut new = BufferPool::new(capacity, DiskManager::new());
        let mut old = MapPool::new(capacity, DiskManager::new());
        let mut ids = Vec::new();
        for _ in 0..initial {
            let (a, b) = (new.allocate_page(), old.allocate_page());
            prop_assert_eq!(a, b);
            ids.push(a.0);
        }
        // Pins held, as page ids; at least one frame always stays
        // evictable, or both pools (correctly) panic on the next fault.
        let mut pinned: Vec<PageId> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            let ctx = format!("op {step} {op:?}");
            let accesses: Option<(Access, Access)> = match *op {
                Op::Allocate => {
                    let (a, b) = (new.allocate_page(), old.allocate_page());
                    prop_assert_eq!(a.0, b.0, "{}", ctx);
                    ids.push(a.0);
                    Some((a.1, b.1))
                }
                Op::Read(i) => {
                    let id = ids[i % ids.len()];
                    let a = new.with_page(id, |p| p.bytes()[100]);
                    let b = old.with_page(id, |p| p.bytes()[100]);
                    prop_assert_eq!(a.0, b.0, "{}", ctx);
                    Some((a.1, b.1))
                }
                Op::Write(i, byte) => {
                    let id = ids[i % ids.len()];
                    let a = new.with_page_mut(id, |p| p.bytes_mut()[100] = byte).1;
                    let b = old.with_page_mut(id, |p| p.bytes_mut()[100] = byte).1;
                    Some((a, b))
                }
                Op::Pin(i) => {
                    let id = ids[i % ids.len()];
                    let fresh_frame = !pinned.contains(&id);
                    let pinned_frames = {
                        let mut v = pinned.clone();
                        v.sort_unstable();
                        v.dedup();
                        v.len()
                    };
                    if fresh_frame && pinned_frames + 1 >= capacity {
                        None
                    } else {
                        pinned.push(id);
                        Some((new.pin(id), old.pin(id)))
                    }
                }
                Op::Unpin(i) => {
                    if !pinned.is_empty() {
                        let id = pinned.remove(i % pinned.len());
                        new.unpin(id);
                        old.unpin(id);
                    }
                    None
                }
                Op::Flush(i) => {
                    let id = ids[i % ids.len()];
                    prop_assert_eq!(new.flush(id), old.flush(id), "{}", ctx);
                    None
                }
                Op::FlushSome(n) => {
                    prop_assert_eq!(new.flush_some(n), old.flush_some(n), "{}", ctx);
                    None
                }
                Op::FlushAll => {
                    prop_assert_eq!(new.flush_all(), old.flush_all(), "{}", ctx);
                    None
                }
            };
            if let Some((a, b)) = accesses {
                prop_assert_eq!(a, b, "{}", ctx);
            }
            assert_same(&new, &old, &ids, &ctx);
        }
        let (mut a, mut b) = (new.crash(), old.crash());
        prop_assert_eq!(a.page_count(), b.page_count());
        for &id in &ids {
            let (pa, pb): (Page, Page) = (a.read(id), b.read(id));
            prop_assert!(pa.bytes() == pb.bytes(), "disk page {} differs", id);
        }
    }
}

#[test]
fn a_pool_rebuilt_over_a_crashed_disk_faults_pages_back_in() {
    // Crash drills build a fresh pool over the old disk: its page table
    // starts empty and grows as the old ids fault back in.
    let mut pool = BufferPool::new(2, DiskManager::new());
    let ids: Vec<PageId> = (0..5).map(|_| pool.allocate_page().0).collect();
    pool.with_page_mut(ids[4], |p| p.bytes_mut()[0] = 7);
    let mut pool = BufferPool::new(3, pool.into_disk());
    assert!(!pool.is_resident(ids[4]));
    let (byte, access) = pool.with_page(ids[4], |p| p.bytes()[0]);
    assert_eq!((byte, access.hit), (7, false));
    assert!(pool.is_resident(ids[4]) && !pool.is_resident(ids[0]));
    assert_eq!(pool.pin_count(PageId(1 << 40)), 0);
}
