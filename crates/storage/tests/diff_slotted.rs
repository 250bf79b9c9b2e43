//! Differential test: the O(1) slotted page against the scan-based one.
//!
//! `SlottedPage` keeps a tombstone count in header bytes 14..16 so an
//! insert into a page without tombstones reads no slot-directory entry.
//! The scan-based page below is the layout as it was before that count: it
//! walks the directory for a free slot and sums the live bytes on every
//! insert. Driven with the same random operations, both must return the
//! same slots and errors and leave byte-identical pages apart from the
//! count itself, and the count must always equal the number of
//! zero-offset slots. At heap-file level both must hand out the same
//! `RecordId`s.

use bionic_storage::bufferpool::BufferPool;
use bionic_storage::disk::DiskManager;
use bionic_storage::heap::HeapFile;
use bionic_storage::page::{Page, PageId, RecordId, PAGE_SIZE};
use bionic_storage::slotted::{SlotError, SlottedPage, MAX_RECORD};
use proptest::prelude::*;

/// The scan-based slotted page, kept verbatim in behaviour as the oracle.
mod oracle {
    use bionic_storage::page::{Page, PAGE_SIZE};
    use bionic_storage::slotted::{SlotError, MAX_RECORD};

    const HEADER: usize = 16;
    const SLOT_BYTES: usize = 4;
    const OFF_NSLOTS: usize = 8;
    const OFF_FREE_START: usize = 10;
    const OFF_FREE_END: usize = 12;

    fn get_u16(b: &[u8], off: usize) -> u16 {
        u16::from_le_bytes([b[off], b[off + 1]])
    }

    fn put_u16(b: &mut [u8], off: usize, v: u16) {
        b[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    pub struct ScanPage<'a> {
        page: &'a mut Page,
    }

    impl<'a> ScanPage<'a> {
        pub fn attach(page: &'a mut Page) -> Self {
            ScanPage { page }
        }

        pub fn init(page: &'a mut Page) -> Self {
            let b = page.bytes_mut();
            b[..HEADER].fill(0);
            put_u16(b, OFF_NSLOTS, 0);
            put_u16(b, OFF_FREE_START, HEADER as u16);
            put_u16(b, OFF_FREE_END, PAGE_SIZE as u16);
            ScanPage { page }
        }

        fn b(&self) -> &[u8; PAGE_SIZE] {
            self.page.bytes()
        }

        fn bm(&mut self) -> &mut [u8; PAGE_SIZE] {
            self.page.bytes_mut()
        }

        pub fn slot_count(&self) -> u16 {
            get_u16(self.b(), OFF_NSLOTS)
        }

        fn free_start(&self) -> usize {
            get_u16(self.b(), OFF_FREE_START) as usize
        }

        fn free_end(&self) -> usize {
            get_u16(self.b(), OFF_FREE_END) as usize
        }

        fn slot(&self, i: u16) -> Option<(usize, usize)> {
            if i >= self.slot_count() {
                return None;
            }
            let off = HEADER + i as usize * SLOT_BYTES;
            Some((
                get_u16(self.b(), off) as usize,
                get_u16(self.b(), off + 2) as usize,
            ))
        }

        fn set_slot(&mut self, i: u16, rec_off: u16, rec_len: u16) {
            let off = HEADER + i as usize * SLOT_BYTES;
            put_u16(self.bm(), off, rec_off);
            put_u16(self.bm(), off + 2, rec_len);
        }

        pub fn contiguous_free(&self) -> usize {
            self.free_end().saturating_sub(self.free_start())
        }

        pub fn total_free(&self) -> usize {
            let live: usize = (0..self.slot_count())
                .filter_map(|i| self.slot(i))
                .filter(|&(off, _)| off != 0)
                .map(|(_, len)| len)
                .sum();
            PAGE_SIZE - self.free_start() - live
        }

        pub fn can_insert(&self, len: usize) -> bool {
            let need_slot = if self.first_free_slot().is_some() {
                0
            } else {
                SLOT_BYTES
            };
            len + need_slot <= self.total_free() && len <= MAX_RECORD
        }

        fn first_free_slot(&self) -> Option<u16> {
            (0..self.slot_count()).find(|&i| matches!(self.slot(i), Some((0, _))))
        }

        fn compact(&mut self) {
            let n = self.slot_count();
            let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
            for i in 0..n {
                if let Some((off, len)) = self.slot(i) {
                    if off != 0 {
                        live.push((i, self.b()[off..off + len].to_vec()));
                    }
                }
            }
            let mut cursor = PAGE_SIZE;
            for (i, bytes) in &live {
                cursor -= bytes.len();
                let c = cursor;
                self.bm()[c..c + bytes.len()].copy_from_slice(bytes);
                self.set_slot(*i, c as u16, bytes.len() as u16);
            }
            put_u16(self.bm(), OFF_FREE_END, cursor as u16);
        }

        fn place(&mut self, slot: u16, rec: &[u8]) {
            let end = self.free_end();
            let start = end - rec.len();
            self.bm()[start..end].copy_from_slice(rec);
            put_u16(self.bm(), OFF_FREE_END, start as u16);
            self.set_slot(slot, start as u16, rec.len() as u16);
        }

        pub fn insert(&mut self, rec: &[u8]) -> Result<u16, SlotError> {
            if rec.len() > MAX_RECORD {
                return Err(SlotError::RecordTooLarge);
            }
            if !self.can_insert(rec.len()) {
                return Err(SlotError::PageFull);
            }
            let reuse = self.first_free_slot();
            let need_slot = if reuse.is_some() { 0 } else { SLOT_BYTES };
            if self.contiguous_free() < rec.len() + need_slot {
                self.compact();
            }
            let slot = match reuse {
                Some(s) => s,
                None => {
                    let s = self.slot_count();
                    put_u16(self.bm(), OFF_NSLOTS, s + 1);
                    let fs = self.free_start() + SLOT_BYTES;
                    put_u16(self.bm(), OFF_FREE_START, fs as u16);
                    s
                }
            };
            self.place(slot, rec);
            Ok(slot)
        }

        pub fn get(&self, slot: u16) -> Result<&[u8], SlotError> {
            match self.slot(slot) {
                Some((off, len)) if off != 0 => Ok(&self.b()[off..off + len]),
                _ => Err(SlotError::NoSuchSlot),
            }
        }

        pub fn delete(&mut self, slot: u16) -> Result<(), SlotError> {
            match self.slot(slot) {
                Some((off, _)) if off != 0 => {
                    self.set_slot(slot, 0, 0);
                    Ok(())
                }
                _ => Err(SlotError::NoSuchSlot),
            }
        }

        pub fn update(&mut self, slot: u16, rec: &[u8]) -> Result<(), SlotError> {
            let (off, len) = match self.slot(slot) {
                Some((off, len)) if off != 0 => (off, len),
                _ => return Err(SlotError::NoSuchSlot),
            };
            if rec.len() <= len {
                self.bm()[off..off + rec.len()].copy_from_slice(rec);
                self.set_slot(slot, off as u16, rec.len() as u16);
                return Ok(());
            }
            if rec.len() > MAX_RECORD {
                return Err(SlotError::RecordTooLarge);
            }
            self.set_slot(slot, 0, 0);
            if rec.len() > self.total_free() {
                self.set_slot(slot, off as u16, len as u16);
                return Err(SlotError::PageFull);
            }
            if self.contiguous_free() < rec.len() {
                self.compact();
            }
            self.place(slot, rec);
            Ok(())
        }

        pub fn install(&mut self, slot: u16, rec: &[u8]) -> Result<(), SlotError> {
            if rec.len() > MAX_RECORD {
                return Err(SlotError::RecordTooLarge);
            }
            if slot < self.slot_count() {
                if self.slot(slot).is_some_and(|(off, _)| off != 0) {
                    return self.update(slot, rec);
                }
            } else {
                let grow = (slot + 1 - self.slot_count()) as usize * SLOT_BYTES;
                if self.total_free() < grow + rec.len() {
                    return Err(SlotError::PageFull);
                }
                if self.contiguous_free() < grow {
                    self.compact();
                }
                let old = self.slot_count();
                put_u16(self.bm(), OFF_NSLOTS, slot + 1);
                let fs = self.free_start() + grow;
                put_u16(self.bm(), OFF_FREE_START, fs as u16);
                for s in old..=slot {
                    self.set_slot(s, 0, 0);
                }
            }
            if self.contiguous_free() < rec.len() {
                if self.total_free() < rec.len() {
                    return Err(SlotError::PageFull);
                }
                self.compact();
            }
            self.place(slot, rec);
            Ok(())
        }
    }

    /// `HeapFile`'s insert/update/delete policy over scan-based pages held
    /// directly in a vector (page id = index), with no buffer pool.
    #[derive(Default)]
    pub struct ScanHeap {
        pub pages: Vec<Page>,
    }

    impl ScanHeap {
        pub fn insert(&mut self, rec: &[u8]) -> Result<(u64, u16), SlotError> {
            if let Some(last) = self.pages.last_mut() {
                match ScanPage::attach(last).insert(rec) {
                    Ok(slot) => return Ok((self.pages.len() as u64 - 1, slot)),
                    Err(SlotError::PageFull) => {}
                    Err(e) => return Err(e),
                }
            }
            let mut page = Page::zeroed();
            let result = ScanPage::init(&mut page).insert(rec);
            self.pages.push(page);
            result.map(|slot| (self.pages.len() as u64 - 1, slot))
        }

        pub fn update(
            &mut self,
            page: u64,
            slot: u16,
            rec: &[u8],
        ) -> Result<(u64, u16), SlotError> {
            let pg = &mut self.pages[page as usize];
            match ScanPage::attach(pg).update(slot, rec) {
                Ok(()) => Ok((page, slot)),
                Err(SlotError::PageFull) => {
                    ScanPage::attach(pg).delete(slot)?;
                    self.insert(rec)
                }
                Err(e) => Err(e),
            }
        }

        pub fn delete(&mut self, page: u64, slot: u16) -> Result<(), SlotError> {
            ScanPage::attach(&mut self.pages[page as usize]).delete(slot)
        }
    }
}

use oracle::{ScanHeap, ScanPage};

#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    Delete(u16),
    Update(u16, usize),
    Install(u16, usize),
}

/// Record sizes from empty to page-filling: mostly small (many slots per
/// page), some medium, a few large enough to force compaction or fail.
fn size() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..32,
        0usize..32,
        24usize..25,
        32usize..400,
        400usize..MAX_RECORD + 9,
    ]
}

/// Slot-addressed ops take a raw slot number, folded into a little past the
/// current directory so out-of-range slots and directory growth both occur.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        size().prop_map(Op::Insert),
        size().prop_map(Op::Insert),
        size().prop_map(Op::Insert),
        any::<u16>().prop_map(Op::Delete),
        any::<u16>().prop_map(Op::Delete),
        (any::<u16>(), size()).prop_map(|(s, n)| Op::Update(s, n)),
        (any::<u16>(), size()).prop_map(|(s, n)| Op::Install(s, n)),
    ]
}

/// A record body that differs per operation, so misplaced bytes show.
fn body(n: usize, tag: usize) -> Vec<u8> {
    (0..n).map(|i| (i.wrapping_mul(31) ^ tag) as u8).collect()
}

/// Every byte of the two pages equal except the tombstone count at 14..16,
/// which the scan-based layout leaves zero.
fn assert_same_bytes(new: &Page, old: &Page, ctx: &str) {
    let (a, b) = (new.bytes(), old.bytes());
    assert_eq!(
        b[14..16],
        [0, 0],
        "{ctx}: oracle touched the reserved bytes"
    );
    assert!(a[..14] == b[..14], "{ctx}: header differs");
    if let Some(i) = (16..PAGE_SIZE).find(|&i| a[i] != b[i]) {
        panic!("{ctx}: first differing byte at {i}");
    }
}

/// The header count equals the number of zero-offset directory entries.
fn assert_count_matches(page: &Page, ctx: &str) {
    let b = page.bytes();
    let n = u16::from_le_bytes([b[8], b[9]]) as usize;
    let zero = (0..n)
        .filter(|i| b[16 + 4 * i] == 0 && b[17 + 4 * i] == 0)
        .count();
    let count = u16::from_le_bytes([b[14], b[15]]) as usize;
    assert_eq!(count, zero, "{ctx}: tombstone count");
}

fn run_page(ops: &[Op], probe: usize) {
    let mut new_page = Page::zeroed();
    let mut old_page = Page::zeroed();
    SlottedPage::init(&mut new_page);
    ScanPage::init(&mut old_page);
    for (tag, op) in ops.iter().enumerate() {
        let ctx = format!("op {tag} {op:?}");
        let mut new = SlottedPage::attach(&mut new_page);
        let mut old = ScanPage::attach(&mut old_page);
        let fold = |s: u16| s % (old.slot_count() + 3);
        match *op {
            Op::Insert(n) => {
                let rec = body(n, tag);
                assert_eq!(new.insert(&rec), old.insert(&rec), "{ctx}");
            }
            Op::Delete(s) => {
                let s = fold(s);
                assert_eq!(new.delete(s), old.delete(s), "{ctx}");
            }
            Op::Update(s, n) => {
                let (s, rec) = (fold(s), body(n, tag));
                assert_eq!(new.update(s, &rec), old.update(s, &rec), "{ctx}");
            }
            Op::Install(s, n) => {
                let (s, rec) = (fold(s), body(n, tag));
                assert_eq!(new.install(s, &rec), old.install(s, &rec), "{ctx}");
            }
        }
        assert_eq!(new.slot_count(), old.slot_count(), "{ctx}");
        assert_eq!(new.contiguous_free(), old.contiguous_free(), "{ctx}");
        assert_eq!(new.total_free(), old.total_free(), "{ctx}");
        for len in [0, 1, 24, probe, MAX_RECORD, MAX_RECORD + 1] {
            assert_eq!(
                new.can_insert(len),
                old.can_insert(len),
                "{ctx}: can_insert({len})"
            );
        }
        for s in 0..new.slot_count() + 1 {
            assert_eq!(new.get(s), old.get(s), "{ctx}: get({s})");
        }
        assert_eq!(new.tombstones() as usize, {
            let b = new_page.bytes();
            u16::from_le_bytes([b[14], b[15]]) as usize
        });
        assert_count_matches(&new_page, &ctx);
        assert_same_bytes(&new_page, &old_page, &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slotted_page_matches_the_scan_based_oracle(
        ops in prop::collection::vec(op(), 1..400),
        probe in 0usize..MAX_RECORD,
    ) {
        run_page(&ops, probe);
    }

    #[test]
    fn heap_file_hands_out_the_scan_based_record_ids(
        ops in prop::collection::vec(op(), 1..300),
        capacity in 1usize..6,
    ) {
        // A small pool, so pages round-trip through eviction as well.
        let mut pool = BufferPool::new(capacity, DiskManager::new());
        let mut heap = HeapFile::new();
        let mut oracle = ScanHeap::default();
        let mut live: Vec<RecordId> = Vec::new();
        for (tag, op) in ops.iter().enumerate() {
            let ctx = format!("op {tag} {op:?}");
            let pick = |s: u16, live: &[RecordId]| live[s as usize % live.len()];
            match *op {
                Op::Insert(n) | Op::Install(_, n) => {
                    let rec = body(n, tag);
                    let got = heap.insert(&mut pool, &rec).map(|(rid, _)| rid);
                    let want = oracle.insert(&rec);
                    prop_assert_eq!(got.map(|r| (r.page.0, r.slot)), want, "{}", ctx);
                    if let Ok(rid) = got {
                        live.push(rid);
                    }
                }
                Op::Delete(s) if !live.is_empty() => {
                    let rid = pick(s, &live);
                    let got = heap.delete(&mut pool, rid).map(|_| ());
                    prop_assert_eq!(got, oracle.delete(rid.page.0, rid.slot), "{}", ctx);
                    live.retain(|&r| r != rid);
                }
                Op::Update(s, n) if !live.is_empty() => {
                    let (rid, rec) = (pick(s, &live), body(n, tag));
                    let got = heap.update(&mut pool, rid, &rec).map(|(r, _)| r);
                    let want = oracle.update(rid.page.0, rid.slot, &rec);
                    prop_assert_eq!(got.map(|r| (r.page.0, r.slot)), want, "{}", ctx);
                    if let Ok(new_rid) = got {
                        live.retain(|&r| r != rid);
                        live.push(new_rid);
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(heap.page_ids().len(), oracle.pages.len());
        for (i, old) in oracle.pages.iter().enumerate() {
            let ctx = format!("page {i}");
            let new = pool.with_page(PageId(i as u64), Page::clone).0;
            assert_count_matches(&new, &ctx);
            assert_same_bytes(&new, old, &ctx);
        }
    }
}

#[test]
fn small_record_page_fill_then_compaction_matches_the_oracle() {
    // ~290 24-byte records fill a page; punch every other slot, then a
    // large insert compacts, and refills reuse tombstones lowest-first.
    let mut ops: Vec<Op> = (0..300).map(|_| Op::Insert(24)).collect();
    ops.extend((0..290).step_by(2).map(Op::Delete));
    ops.push(Op::Insert(2000));
    ops.extend((0..200).map(|_| Op::Insert(24)));
    ops.push(Op::Install(400, 10));
    ops.push(Op::Install(3, 40));
    run_page(&ops, 24);
}

#[test]
fn oversized_records_are_rejected_identically() {
    let mut a = Page::zeroed();
    let mut b = Page::zeroed();
    let rec = vec![1u8; MAX_RECORD + 1];
    assert_eq!(
        SlottedPage::init(&mut a).insert(&rec),
        Err(SlotError::RecordTooLarge)
    );
    assert_eq!(
        ScanPage::init(&mut b).insert(&rec),
        Err(SlotError::RecordTooLarge)
    );
    assert_same_bytes(&a, &b, "oversized");
}
