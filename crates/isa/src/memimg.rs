//! Functional data memory.
//!
//! [`MemoryImage`] is the *functional* half of the memory system: a sparse,
//! word-addressed store of 64-bit values. The *timing* half (caches, MSHRs,
//! latencies) lives in `ff-mem`; pipeline models consult both. Addresses are
//! byte addresses; accesses are 8-byte-aligned words (the compiler stand-in
//! only emits aligned word accesses, matching the ILP32-on-64-bit-words
//! simplification documented in DESIGN.md).
//!
//! The image is paged copy-on-write: fixed [`PAGE_WORDS`]-word pages sit
//! behind [`Arc`]s, so cloning an image copies only its page table, and a
//! store copies the one page it lands on only while that page is still
//! shared. A workload's initial image, the per-run initial states built
//! from it, and every model's architectural state therefore share all
//! pages the run never writes (DESIGN.md §7e).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Word size of every memory access, in bytes.
pub const WORD_BYTES: u64 = 8;

/// Words per copy-on-write page (4 KiB of data).
pub const PAGE_WORDS: usize = 512;

/// Byte address bits below the page number.
const PAGE_SHIFT: u32 = (PAGE_WORDS as u64 * WORD_BYTES).trailing_zeros();

/// One page: its words plus a bitmap of which words were ever stored, so
/// an explicit zero store stays distinguishable from an untouched word.
#[derive(Clone, PartialEq, Eq)]
struct Page {
    words: [u64; PAGE_WORDS],
    written: [u64; PAGE_WORDS / 64],
}

impl Page {
    fn zeroed() -> Page {
        Page { words: [0; PAGE_WORDS], written: [0; PAGE_WORDS / 64] }
    }

    fn is_written(&self, slot: usize) -> bool {
        self.written[slot / 64] & (1 << (slot % 64)) != 0
    }
}

/// Sparse functional memory, word-granular, zero-initialized.
///
/// # Examples
///
/// ```
/// use ff_isa::MemoryImage;
/// let mut m = MemoryImage::new();
/// assert_eq!(m.load(0x1000), 0);
/// m.store(0x1000, 42);
/// assert_eq!(m.load(0x1000), 42);
/// let snapshot = m.clone(); // shares the page
/// m.store(0x1000, 7); // copies it
/// assert_eq!(snapshot.load(0x1000), 42);
/// ```
#[derive(Clone, Default)]
pub struct MemoryImage {
    /// Page number → page; a page exists once a word on it is stored.
    pages: HashMap<u64, Arc<Page>>,
    written_words: usize,
}

impl MemoryImage {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rounds a byte address down to its containing word address.
    pub fn word_addr(addr: u64) -> u64 {
        addr & !(WORD_BYTES - 1)
    }

    fn split(addr: u64) -> (u64, usize) {
        (addr >> PAGE_SHIFT, (addr / WORD_BYTES) as usize % PAGE_WORDS)
    }

    /// Loads the 64-bit word containing byte address `addr`. Unwritten
    /// locations read as zero; a load never allocates.
    pub fn load(&self, addr: u64) -> u64 {
        let (page, slot) = Self::split(addr);
        self.pages.get(&page).map_or(0, |p| p.words[slot])
    }

    /// Stores a 64-bit word at the word containing byte address `addr`,
    /// returning the previous value. Copies the page first if another
    /// image still shares it.
    pub fn store(&mut self, addr: u64, value: u64) -> u64 {
        let (page, slot) = Self::split(addr);
        let page =
            Arc::make_mut(self.pages.entry(page).or_insert_with(|| Arc::new(Page::zeroed())));
        if !page.is_written(slot) {
            page.written[slot / 64] |= 1 << (slot % 64);
            self.written_words += 1;
        }
        std::mem::replace(&mut page.words[slot], value)
    }

    /// Number of words that have been written (footprint proxy).
    pub fn written_words(&self) -> usize {
        self.written_words
    }

    /// Iterates over `(word_address, value)` pairs of written words in an
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().flat_map(|(&number, page)| {
            (0..PAGE_WORDS).filter(|&slot| page.is_written(slot)).map(move |slot| {
                ((number << PAGE_SHIFT) + slot as u64 * WORD_BYTES, page.words[slot])
            })
        })
    }

    /// Compares two images as mathematical functions (treating absent words
    /// as zero), so an explicit zero store equals an untouched word.
    pub fn semantically_eq(&self, other: &MemoryImage) -> bool {
        // Unwritten words of a page hold zero, exactly like absent pages,
        // so whole pages compare by value; shared pages are equal for free.
        let covers = |a: &MemoryImage, b: &MemoryImage| {
            a.pages.iter().all(|(number, page)| match b.pages.get(number) {
                Some(other) => Arc::ptr_eq(page, other) || page.words == other.words,
                None => page.words.iter().all(|&w| w == 0),
            })
        };
        covers(self, other) && covers(other, self)
    }
}

/// Images are equal when they have written the same words with the same
/// values — an explicit zero store differs from an untouched word (see
/// [`MemoryImage::semantically_eq`] for the value-only comparison).
impl PartialEq for MemoryImage {
    fn eq(&self, other: &MemoryImage) -> bool {
        // Every page in a table holds at least one written word, so equal
        // write sets imply equal page-number sets.
        self.written_words == other.written_words
            && self.pages.len() == other.pages.len()
            && self.pages.iter().all(|(number, page)| {
                other.pages.get(number).is_some_and(|o| Arc::ptr_eq(page, o) || page == o)
            })
    }
}

impl Eq for MemoryImage {}

impl fmt::Debug for MemoryImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut words: Vec<(u64, u64)> = self.iter().collect();
        words.sort_unstable();
        f.debug_map().entries(words).finish()
    }
}

impl FromIterator<(u64, u64)> for MemoryImage {
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Self {
        let mut m = MemoryImage::new();
        for (addr, v) in iter {
            m.store(addr, v);
        }
        m
    }
}

impl Extend<(u64, u64)> for MemoryImage {
    fn extend<T: IntoIterator<Item = (u64, u64)>>(&mut self, iter: T) {
        for (addr, v) in iter {
            self.store(addr, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = MemoryImage::new();
        assert_eq!(m.load(0), 0);
        assert_eq!(m.load(0xdead_beef), 0);
        assert_eq!(m.written_words(), 0);
    }

    #[test]
    fn store_load_round_trip() {
        let mut m = MemoryImage::new();
        m.store(64, 7);
        assert_eq!(m.load(64), 7);
        assert_eq!(m.store(64, 9), 7);
        assert_eq!(m.load(64), 9);
    }

    #[test]
    fn subword_addresses_alias_their_word() {
        let mut m = MemoryImage::new();
        m.store(0x100, 5);
        for off in 0..8 {
            assert_eq!(m.load(0x100 + off), 5, "offset {off} should alias");
        }
        assert_eq!(m.load(0x108), 0);
    }

    #[test]
    fn semantic_equality_ignores_explicit_zeros() {
        let mut a = MemoryImage::new();
        a.store(8, 0);
        let b = MemoryImage::new();
        assert!(a.semantically_eq(&b));
        assert_ne!(a, b, "an explicit zero store is still a write");
        a.store(8, 1);
        assert!(!a.semantically_eq(&b));
    }

    #[test]
    fn from_iterator_collects() {
        let m: MemoryImage = vec![(0u64, 1u64), (8, 2)].into_iter().collect();
        assert_eq!(m.load(0), 1);
        assert_eq!(m.load(8), 2);
    }

    #[test]
    fn clones_share_pages_until_written() {
        let mut a = MemoryImage::new();
        a.store(0x2000, 1);
        a.store(0x9000, 2);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.pages[&(0x2000 >> PAGE_SHIFT)], &b.pages[&(0x2000 >> PAGE_SHIFT)]));
        b.store(0x2008, 3);
        assert!(!Arc::ptr_eq(&a.pages[&(0x2000 >> PAGE_SHIFT)], &b.pages[&(0x2000 >> PAGE_SHIFT)]));
        assert!(Arc::ptr_eq(&a.pages[&(0x9000 >> PAGE_SHIFT)], &b.pages[&(0x9000 >> PAGE_SHIFT)]));
        assert_eq!(a.load(0x2008), 0);
        assert_eq!((a.written_words(), b.written_words()), (2, 3));
    }

    #[test]
    fn words_at_page_edges_map_back_to_their_addresses() {
        let last = PAGE_WORDS as u64 * WORD_BYTES - WORD_BYTES;
        let m: MemoryImage =
            vec![(last, 1), (last + WORD_BYTES, 2), (u64::MAX, 3)].into_iter().collect();
        let mut words: Vec<(u64, u64)> = m.iter().collect();
        words.sort_unstable();
        assert_eq!(
            words,
            vec![(last, 1), (last + WORD_BYTES, 2), (MemoryImage::word_addr(u64::MAX), 3)]
        );
    }
}
