//! Model-sized buffers, faulted in huge pages.
//!
//! A buffer above glibc's mmap threshold (dynamic, at most 32 MiB) is a
//! fresh mapping on every allocation, and its first write takes one minor
//! fault per 4 KiB page: ~3.3 µs each on a 2-vCPU VM, about 45 ms to fill a
//! 52 MB model against ~9 ms for the same copy into a warm buffer. Advised
//! with `MADV_HUGEPAGE` before that write, the same fill faults 2 MiB at a
//! time (~23 ms), and freeing it unmaps 512× fewer page-table entries.
//!
//! The advice is for buffers **written whole before they are first read**
//! (a model, its momentum memory, a payload, a transposed copy): their every
//! page is resident anyway. A buffer that is touched sparsely — the dense
//! gradient blocks, the top-k scratch — must not be advised: one write into
//! it would fault a whole 2 MiB page and grow the resident set.

/// The huge-page size the advice is aligned to (x86-64 and aarch64 with
/// 4 KiB base pages).
const HUGE_PAGE: usize = 2 << 20;

/// `len` zeros in an allocation whose 2 MiB-aligned interior is advised to
/// be faulted in huge pages — for a buffer the caller is about to write
/// whole.
///
/// The zeros come from the allocator's zeroed path (`calloc`), which on a
/// fresh mapping touches no page, so the caller's first write is the fault
/// the advice applies to. `T` should be a type whose zero is all-zero bits
/// (`f32`, `u16`, …): for any other `T` the fill itself is that first write.
/// Below 2 MiB, or where the platform has no such advice, this is
/// `vec![T::default(); len]`.
pub fn zeroed<T: Copy + Default>(len: usize) -> Vec<T> {
    let v = vec![T::default(); len];
    let bytes = len * std::mem::size_of::<T>();
    if let Some(interior) = huge_interior(v.as_ptr() as usize, bytes) {
        advise_huge(interior);
    }
    v
}

/// The 2 MiB-aligned pages wholly inside `[addr, addr + bytes)`, if any:
/// the start rounded up, the end rounded down.
fn huge_interior(addr: usize, bytes: usize) -> Option<std::ops::Range<usize>> {
    let start = addr.checked_add(HUGE_PAGE - 1)? & !(HUGE_PAGE - 1);
    let end = addr.checked_add(bytes)? & !(HUGE_PAGE - 1);
    (start < end).then_some(start..end)
}

/// `madvise(MADV_HUGEPAGE)` over `range`; a refusal (a kernel without
/// transparent huge pages) leaves 4 KiB pages, which is what every other
/// platform gets.
#[cfg(target_os = "linux")]
fn advise_huge(range: std::ops::Range<usize>) {
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    const MADV_HUGEPAGE: i32 = 14;
    // SAFETY: `range` lies inside one live allocation (`huge_interior` trims
    // the caller's buffer to whole 2 MiB pages within it), so the call names
    // only pages this process owns; the advice changes how absent pages are
    // faulted, never the contents of present ones, and needs no particular
    // return value.
    unsafe {
        madvise(range.start as *mut _, range.len(), MADV_HUGEPAGE);
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge(_: std::ops::Range<usize>) {}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1 << 20;

    /// Nothing below one whole aligned huge page is advised, and a range's
    /// unaligned ends are trimmed inward — never widened past the buffer.
    #[test]
    fn huge_interior_trims_to_whole_aligned_pages() {
        let base = 64 * HUGE_PAGE;
        // Below 2 MiB: never a whole page.
        assert_eq!(huge_interior(base, HUGE_PAGE - 1), None);
        assert_eq!(huge_interior(base + 4096, HUGE_PAGE), None);
        // Exactly one aligned page.
        assert_eq!(huge_interior(base, HUGE_PAGE), Some(base..base + HUGE_PAGE));
        // Unaligned both ends: 5 MiB from 1 MiB past a boundary keeps the
        // two whole pages in between.
        let r = huge_interior(base + MB, 5 * MB).unwrap();
        assert_eq!(r, base + HUGE_PAGE..base + 3 * HUGE_PAGE);
        // Unaligned start only, and end only.
        assert_eq!(
            huge_interior(base + 16, 2 * HUGE_PAGE),
            Some(base + HUGE_PAGE..base + 2 * HUGE_PAGE)
        );
        assert_eq!(
            huge_interior(base, 2 * HUGE_PAGE - 16),
            Some(base..base + HUGE_PAGE)
        );
        // Empty, and a range that would wrap the address space.
        assert_eq!(huge_interior(base, 0), None);
        assert_eq!(huge_interior(usize::MAX - MB, 4 * MB), None);
    }

    /// The advice never changes what the buffer holds: zeros at every
    /// length, on both sides of the huge-page size, for both element types.
    #[test]
    fn zeroed_is_zeros_at_every_size() {
        for len in [0, 1, 1000, HUGE_PAGE / 4 - 1, 3 * HUGE_PAGE / 4 + 17] {
            let v: Vec<f32> = zeroed(len);
            assert_eq!(v.len(), len);
            assert!(v.iter().all(|x| x.to_bits() == 0), "f32 len {len}");
            let w: Vec<u16> = zeroed(len);
            assert!(w.iter().all(|&x| x == 0), "u16 len {len}");
        }
        let mut v: Vec<f32> = zeroed(5 * MB / 4);
        v.iter_mut().enumerate().for_each(|(i, x)| *x = i as f32);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as f32));
    }
}
