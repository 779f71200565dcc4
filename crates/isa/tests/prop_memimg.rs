//! Property tests for the copy-on-write paged [`MemoryImage`]: random
//! store / load / clone sequences over three images, each checked against
//! an independent `BTreeMap` reference. Clones share pages, so a store
//! through one image must never show up in another; the references are
//! plain values, so any leak through a shared page diverges from them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use ff_isa::memimg::{PAGE_WORDS, WORD_BYTES};
use ff_isa::MemoryImage;

/// Counts this thread's heap allocations, so a test can assert that an
/// operation allocated nothing.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PAGE_BYTES: u64 = PAGE_WORDS as u64 * WORD_BYTES;
const IMAGES: usize = 3;

#[derive(Clone, Copy, Debug)]
enum MemOp {
    Store { image: usize, addr: u64, value: u64 },
    Load { image: usize, addr: u64 },
    Clone { from: usize, to: usize },
}

/// Byte addresses over four adjacent pages plus two far-apart ones, at
/// any offset inside a word.
fn address() -> impl Strategy<Value = u64> {
    (0u64..6, 0u64..PAGE_WORDS as u64, 0u64..WORD_BYTES).prop_map(|(page, word, offset)| {
        let base = if page < 4 { page * PAGE_BYTES } else { (page << 44) - PAGE_BYTES };
        base + word * WORD_BYTES + offset
    })
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    (0u8..10, 0..IMAGES, 0..IMAGES, address(), 0u8..4, any::<u64>()).prop_map(
        |(kind, image, other, addr, zero, value)| match kind {
            // One store in four writes an explicit zero.
            0..=3 => MemOp::Store { image, addr, value: if zero == 0 { 0 } else { value } },
            4..=8 => MemOp::Load { image, addr },
            _ => MemOp::Clone { from: other, to: image },
        },
    )
}

fn nonzero(model: &BTreeMap<u64, u64>) -> BTreeMap<u64, u64> {
    model.iter().filter(|(_, &v)| v != 0).map(|(&a, &v)| (a, v)).collect()
}

proptest! {
    #[test]
    fn paged_images_match_independent_reference_maps(
        ops in proptest::collection::vec(mem_op(), 0..96),
    ) {
        let mut images: Vec<MemoryImage> = (0..IMAGES).map(|_| MemoryImage::new()).collect();
        let mut models: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); IMAGES];
        for op in &ops {
            match *op {
                MemOp::Store { image, addr, value } => {
                    let word = MemoryImage::word_addr(addr);
                    let before = models[image].insert(word, value).unwrap_or(0);
                    prop_assert_eq!(images[image].store(addr, value), before);
                }
                MemOp::Load { image, addr } => {
                    let expect = models[image].get(&MemoryImage::word_addr(addr)).copied();
                    let page = addr / PAGE_BYTES;
                    let untouched = !models[image].keys().any(|&w| w / PAGE_BYTES == page);
                    let allocs_before = allocs();
                    let got = images[image].load(addr);
                    let allocated = allocs() - allocs_before;
                    prop_assert_eq!(got, expect.unwrap_or(0));
                    prop_assert_eq!(allocated, 0, "a load allocated (untouched page: {})", untouched);
                }
                MemOp::Clone { from, to } => {
                    let allocs_before = allocs();
                    images[to] = images[from].clone();
                    // One page-table allocation at most; no page is copied.
                    prop_assert!(allocs() - allocs_before <= 1);
                    models[to] = models[from].clone();
                }
            }
        }
        for i in 0..IMAGES {
            prop_assert_eq!(images[i].written_words(), models[i].len());
            let listed: BTreeSet<(u64, u64)> = images[i].iter().collect();
            let expect: BTreeSet<(u64, u64)> = models[i].iter().map(|(&a, &v)| (a, v)).collect();
            prop_assert_eq!(listed.len(), images[i].written_words(), "iter repeats a word");
            prop_assert_eq!(listed, expect);
            for j in 0..IMAGES {
                prop_assert_eq!(images[i] == images[j], models[i] == models[j]);
                prop_assert_eq!(
                    images[i].semantically_eq(&images[j]),
                    nonzero(&models[i]) == nonzero(&models[j])
                );
            }
        }
    }
}

#[test]
fn loads_from_untouched_pages_allocate_nothing() {
    let mut image = MemoryImage::new();
    image.store(0x1000, 5);
    let before = allocs();
    let mut sum = 0u64;
    for page in 0..64u64 {
        sum = sum.wrapping_add(image.load(0x10_0000 + page * PAGE_BYTES));
    }
    sum = sum.wrapping_add(image.load(0x1000));
    assert_eq!(allocs() - before, 0);
    assert_eq!(sum, 5);
}

#[test]
fn a_store_copies_only_the_shared_page_it_lands_on() {
    let mut image = MemoryImage::new();
    for page in 0..16u64 {
        image.store(page * PAGE_BYTES, page + 1);
    }
    let before = allocs();
    let mut copy = image.clone();
    copy.store(3 * PAGE_BYTES + 8, 99);
    copy.store(3 * PAGE_BYTES + 16, 98); // the page is private by now
    assert_eq!(allocs() - before, 2, "one page table plus one page copy");
    assert_eq!(image.load(3 * PAGE_BYTES + 8), 0);
    assert_eq!(copy.load(3 * PAGE_BYTES), 4);
}
