//! Criterion microbenchmarks of the storage layer: slotted pages, buffer
//! pool, heap files.

use bionic_storage::bufferpool::BufferPool;
use bionic_storage::disk::DiskManager;
use bionic_storage::heap::HeapFile;
use bionic_storage::page::Page;
use bionic_storage::slotted::SlottedPage;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_slotted_insert(c: &mut Criterion) {
    c.bench_function("slotted_fill_page_100B", |b| {
        let rec = [7u8; 100];
        b.iter(|| {
            let mut page = Page::zeroed();
            let mut sp = SlottedPage::init(&mut page);
            let mut n = 0;
            while sp.insert(&rec).is_ok() {
                n += 1;
            }
            black_box(n)
        });
    });
}

/// Small records: 24 B bodies put ~290 slots on a page, the regime where a
/// directory walk per insert would make filling a page quadratic.
fn bench_slotted_insert_small(c: &mut Criterion) {
    c.bench_function("slotted_fill_page_24B", |b| {
        let rec = [7u8; 24];
        b.iter(|| {
            let mut page = Page::zeroed();
            let mut sp = SlottedPage::init(&mut page);
            let mut n = 0;
            while sp.insert(&rec).is_ok() {
                n += 1;
            }
            // (8192 - 16 header) / (24 + 4 slot) = 292 records.
            assert_eq!(n, 292);
            black_box(n)
        });
    });
}

fn bench_slotted_get(c: &mut Criterion) {
    let mut page = Page::zeroed();
    let mut sp = SlottedPage::init(&mut page);
    let rec = [7u8; 100];
    let mut slots = Vec::new();
    while let Ok(s) = sp.insert(&rec) {
        slots.push(s);
    }
    c.bench_function("slotted_get", |b| {
        let sp = SlottedPage::attach(&mut page);
        let mut i = 0;
        b.iter(|| {
            i = (i + 13) % slots.len();
            black_box(sp.get(slots[i]).unwrap().len())
        });
    });
}

fn bench_pool_hit(c: &mut Criterion) {
    let mut pool = BufferPool::new(256, DiskManager::new());
    let ids: Vec<_> = (0..128).map(|_| pool.allocate_page().0).collect();
    c.bench_function("bufferpool_hit", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 17) % ids.len();
            let (byte, _) = pool.with_page(ids[i], |p| p.bytes()[0]);
            black_box(byte)
        });
    });
}

fn bench_pool_thrash(c: &mut Criterion) {
    c.bench_function("bufferpool_miss_evict", |b| {
        let mut pool = BufferPool::new(32, DiskManager::new());
        let ids: Vec<_> = (0..256).map(|_| pool.allocate_page().0).collect();
        let mut i = 0;
        b.iter(|| {
            i = (i + 37) % ids.len();
            let (_, access) = pool.with_page(ids[i], |p| p.bytes()[0]);
            black_box(access.hit)
        });
    });
}

fn bench_heap_insert_get(c: &mut Criterion) {
    c.bench_function("heap_insert_100B", |b| {
        let mut pool = BufferPool::new(4096, DiskManager::new());
        let mut heap = HeapFile::new();
        let rec = [5u8; 100];
        b.iter(|| black_box(heap.insert(&mut pool, &rec).unwrap().0));
    });

    // A table load: 10k small rows into a fresh heap file, ~35 pages.
    c.bench_function("heap_load_10k_24B", |b| {
        let rec = [5u8; 24];
        b.iter(|| {
            let mut pool = BufferPool::new(64, DiskManager::new());
            let mut heap = HeapFile::new();
            for _ in 0..10_000 {
                heap.insert(&mut pool, &rec).unwrap();
            }
            assert_eq!(heap.page_ids().len(), 35);
            black_box(heap.page_ids().len())
        });
    });

    let mut pool = BufferPool::new(4096, DiskManager::new());
    let mut heap = HeapFile::new();
    let rids: Vec<_> = (0..10_000)
        .map(|_| heap.insert(&mut pool, &[5u8; 100]).unwrap().0)
        .collect();
    c.bench_function("heap_get_100B", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 101) % rids.len();
            black_box(heap.get(&mut pool, rids[i]).0)
        });
    });
}

criterion_group!(
    benches,
    bench_slotted_insert,
    bench_slotted_insert_small,
    bench_slotted_get,
    bench_pool_hit,
    bench_pool_thrash,
    bench_heap_insert_get
);
criterion_main!(benches);
