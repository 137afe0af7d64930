//! Inline small-vector for per-dimension filter state.
//!
//! Every filter keeps O(d) state per stream — envelopes, slopes, anchors,
//! epsilon widths, segment payloads — and the overwhelmingly common
//! configurations are tiny (`d = 1` for scalar sensors, `d ≤ 4` for the
//! paper's multi-dimensional experiments). Storing that state in `Vec`s
//! or `Box<[f64]>`s puts a heap allocation on every interval close and a
//! pointer chase on every access. [`DimVec`] stores up to
//! [`INLINE_DIMS`] elements inline (no heap, no indirection) and spills
//! to a heap `Vec` only above that, so the steady-state push/close path
//! of every filter is allocation-free for `d ≤ 4` (the *allocation-free
//! hot path* invariant, asserted by the `alloc-counter` tests in
//! `pla-bench`).
//!
//! The element bound `T: Copy + Default` keeps the implementation free of
//! `unsafe`: the inline array is always fully initialized, with
//! `T::default()` filling the unused tail. The spill buffer is padded the
//! same way to a whole number of [`INLINE_DIMS`]-wide chunks, so the lane
//! kernels (`crate::kern`) see every `DimVec<f64>` as zero-padded chunks
//! at any length; every mutator keeps that padding at `T::default()`.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Number of dimensions stored inline before [`DimVec`] spills to the
/// heap. Chosen to cover the paper's experimental range (`d ≤ 4` in §5's
/// multi-dimensional runs) while keeping the inline footprint at 32 bytes
/// for `f64` payloads.
pub const INLINE_DIMS: usize = 4;

/// A fixed-small vector: inline storage for up to [`INLINE_DIMS`]
/// elements, heap spill above.
///
/// Semantically a `Vec<T>` restricted to `Copy + Default` elements; it
/// dereferences to a slice, so all slice APIs (indexing, iteration,
/// `copy_from_slice`, …) apply.
///
/// ```
/// use pla_core::DimVec;
///
/// let eps: DimVec<f64> = [0.5, 1.5].as_slice().into();
/// assert_eq!(eps.len(), 2);
/// assert_eq!(eps[1], 1.5);
/// let doubled: DimVec<f64> = eps.iter().map(|e| e * 2.0).collect();
/// assert_eq!(&doubled[..], &[1.0, 3.0]);
/// ```
#[derive(Clone)]
pub struct DimVec<T: Copy + Default> {
    /// Element count. Elements live in `inline[..len]` when
    /// `len <= INLINE_DIMS`, in `spill[..len]` otherwise.
    len: u32,
    /// Inline elements, then `T::default()` padding. All padding while
    /// the vector is spilled.
    inline: [T; INLINE_DIMS],
    /// Spilled elements, then `T::default()` padding up to the next
    /// multiple of [`INLINE_DIMS`], so the lane kernels see whole
    /// chunks. Empty while the vector is inline.
    spill: Vec<T>,
}

/// `d` rounded up to a whole number of [`INLINE_DIMS`]-wide chunks.
#[inline]
fn padded(d: usize) -> usize {
    d.next_multiple_of(INLINE_DIMS)
}

/// `slice` copied into one allocation and padded with `T::default()` to
/// whole chunks. Kept out of line so that `from_slice`'s inline case
/// stays small enough to inline.
#[inline(never)]
fn padded_copy<T: Copy + Default>(slice: &[T]) -> Vec<T> {
    let mut spill = Vec::with_capacity(padded(slice.len()));
    spill.extend_from_slice(slice);
    spill.resize(padded(slice.len()), T::default());
    spill
}

impl<T: Copy + Default> DimVec<T> {
    /// An empty vector (no heap allocation).
    #[inline]
    pub fn new() -> Self {
        Self { len: 0, inline: [T::default(); INLINE_DIMS], spill: Vec::new() }
    }

    /// An empty vector with room for `d` elements: no-op for `d ≤`
    /// [`INLINE_DIMS`], a single heap reservation (rounded up to whole
    /// chunks) above.
    #[inline]
    pub fn with_capacity(d: usize) -> Self {
        let spill = if d > INLINE_DIMS { Vec::with_capacity(padded(d)) } else { Vec::new() };
        Self { len: 0, inline: [T::default(); INLINE_DIMS], spill }
    }

    /// A vector of `d` elements produced by `f(0..d)`.
    #[inline]
    pub fn from_fn(d: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let mut v = Self::with_capacity(d);
        for i in 0..d {
            v.push(f(i));
        }
        v
    }

    /// A vector of `d` copies of `value`.
    #[inline]
    pub fn splat(d: usize, value: T) -> Self {
        Self::from_fn(d, |_| value)
    }

    /// A vector holding a copy of `slice`.
    #[inline]
    pub fn from_slice(slice: &[T]) -> Self {
        let mut inline = [T::default(); INLINE_DIMS];
        let spill = if slice.len() <= INLINE_DIMS {
            inline[..slice.len()].copy_from_slice(slice);
            Vec::new()
        } else {
            padded_copy(slice)
        };
        Self { len: slice.len() as u32, inline, spill }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the elements live inline (no heap allocation).
    #[inline]
    pub fn is_inline(&self) -> bool {
        self.len as usize <= INLINE_DIMS
    }

    /// Appends an element, spilling to the heap when crossing
    /// [`INLINE_DIMS`].
    pub fn push(&mut self, value: T) {
        let len = self.len as usize;
        if len < INLINE_DIMS {
            self.inline[len] = value;
        } else {
            if len == INLINE_DIMS {
                // Crossing the boundary: move the inline block over,
                // reserving enough that incremental dimension-by-
                // dimension fills don't re-grow immediately, and leave
                // the inline block all padding.
                self.spill.clear();
                self.spill.reserve(2 * INLINE_DIMS);
                self.spill.extend_from_slice(&self.inline);
                self.inline = [T::default(); INLINE_DIMS];
            }
            if len == self.spill.len() {
                // The last chunk is full: open a padding chunk.
                self.spill.resize(len + INLINE_DIMS, T::default());
            }
            self.spill[len] = value;
        }
        self.len += 1;
    }

    /// Appends every element of `slice`.
    pub fn extend_from_slice(&mut self, slice: &[T]) {
        for &v in slice {
            self.push(v);
        }
    }

    /// Removes all elements. Spill capacity is retained for reuse.
    #[inline]
    pub fn clear(&mut self) {
        if self.is_inline() {
            self.inline[..self.len as usize].fill(T::default());
        } else {
            self.spill.clear();
        }
        self.len = 0;
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if self.is_inline() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill[..self.len as usize]
        }
    }

    /// The elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.is_inline() {
            &mut self.inline[..self.len as usize]
        } else {
            &mut self.spill[..self.len as usize]
        }
    }

    /// Overwrites the contents with a copy of `slice`, reusing existing
    /// storage when the lengths match (the common refill case).
    pub fn assign(&mut self, slice: &[T]) {
        if self.len() == slice.len() {
            self.as_mut_slice().copy_from_slice(slice);
        } else {
            self.clear();
            self.extend_from_slice(slice);
        }
    }
}

impl DimVec<f64> {
    /// The elements as [`INLINE_DIMS`]-wide chunks for the lane kernels
    /// (`crate::kern`): one chunk, the inline block, for `len() ≤
    /// INLINE_DIMS`; ⌈len / INLINE_DIMS⌉ chunks of the spill buffer
    /// above. Lanes past `len()` are `0.0`, which every lane op treats as
    /// neutral: every mutator of this type keeps them so (pinned by
    /// `every_mutator_keeps_padding_zero`), and the kernels write `0.0`
    /// back to them (pinned by `kern`'s `padding_lanes_are_neutral`).
    ///
    /// `inline` must equal [`Self::is_inline`]. A kernel decides it once
    /// for all of its same-length operands and passes it as a constant,
    /// so the one-chunk case compiles to straight-line code.
    #[inline(always)]
    pub(crate) fn lanes(&self, inline: bool) -> &[[f64; INLINE_DIMS]] {
        debug_assert_eq!(inline, self.is_inline(), "lanes(): wrong storage regime");
        if inline {
            std::slice::from_ref(&self.inline)
        } else {
            self.spill.as_chunks().0
        }
    }

    /// Mutable chunk view; same contract as [`Self::lanes`].
    #[inline(always)]
    pub(crate) fn lanes_mut(&mut self, inline: bool) -> &mut [[f64; INLINE_DIMS]] {
        debug_assert_eq!(inline, self.is_inline(), "lanes_mut(): wrong storage regime");
        if inline {
            std::slice::from_mut(&mut self.inline)
        } else {
            self.spill.as_chunks_mut().0
        }
    }
}

impl<T: Copy + Default> Default for DimVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> Deref for DimVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default> DerefMut for DimVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default> From<&[T]> for DimVec<T> {
    fn from(slice: &[T]) -> Self {
        Self::from_slice(slice)
    }
}

impl<T: Copy + Default, const N: usize> From<[T; N]> for DimVec<T> {
    fn from(arr: [T; N]) -> Self {
        Self::from_slice(&arr)
    }
}

impl<T: Copy + Default> From<Vec<T>> for DimVec<T> {
    fn from(mut vec: Vec<T>) -> Self {
        if vec.len() > INLINE_DIMS {
            // Take the allocation as the spill storage: no copy unless
            // the padding outgrows its capacity.
            let len = vec.len() as u32;
            vec.resize(padded(vec.len()), T::default());
            Self { len, inline: [T::default(); INLINE_DIMS], spill: vec }
        } else {
            Self::from_slice(&vec)
        }
    }
}

impl<T: Copy + Default> From<Box<[T]>> for DimVec<T> {
    fn from(boxed: Box<[T]>) -> Self {
        Self::from_slice(&boxed)
    }
}

impl<T: Copy + Default> FromIterator<T> for DimVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut v = Self::with_capacity(iter.size_hint().0);
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<T: Copy + Default> Extend<T> for DimVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<'a, T: Copy + Default> IntoIterator for &'a DimVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for DimVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq> PartialEq<[T]> for DimVec<T> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<[T; N]> for DimVec<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        self.as_slice() == other
    }
}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for DimVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(feature = "serde")]
impl<T: Copy + Default + serde::Serialize> serde::Serialize for DimVec<T> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.as_slice())
    }
}

#[cfg(feature = "serde")]
impl<'de, T: Copy + Default + serde::Deserialize<'de>> serde::Deserialize<'de> for DimVec<T> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(Vec::<T>::deserialize(deserializer)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_inline_basics() {
        let mut v: DimVec<f64> = DimVec::new();
        assert!(v.is_empty());
        assert!(v.is_inline());
        assert_eq!(v.as_slice(), &[] as &[f64]);
        v.push(1.0);
        v.push(2.0);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 2.0);
        assert!(v.is_inline());
    }

    #[test]
    fn spills_beyond_inline_dims_and_preserves_order() {
        let n = INLINE_DIMS + 3;
        let v = DimVec::from_fn(n, |i| i as f64);
        assert_eq!(v.len(), n);
        assert!(!v.is_inline());
        for i in 0..n {
            assert_eq!(v[i], i as f64);
        }
    }

    #[test]
    fn exactly_inline_dims_stays_inline() {
        let v = DimVec::from_fn(INLINE_DIMS, |i| i as f64);
        assert!(v.is_inline());
        assert_eq!(v.len(), INLINE_DIMS);
        assert_eq!(v[INLINE_DIMS - 1], (INLINE_DIMS - 1) as f64);
    }

    #[test]
    fn mutation_through_deref_mut() {
        let mut v = DimVec::from_slice(&[1.0, 2.0, 3.0]);
        v[1] = 9.0;
        v.as_mut_slice().copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(v, [4.0, 5.0, 6.0]);
        let mut big = DimVec::from_fn(INLINE_DIMS + 2, |i| i as f64);
        big[INLINE_DIMS + 1] = -1.0;
        assert_eq!(big[INLINE_DIMS + 1], -1.0);
    }

    #[test]
    fn assign_reuses_and_resizes() {
        let mut v = DimVec::from_slice(&[1.0, 2.0]);
        v.assign(&[3.0, 4.0]);
        assert_eq!(v, [3.0, 4.0]);
        v.assign(&[5.0]);
        assert_eq!(v, [5.0]);
        let long: Vec<f64> = (0..INLINE_DIMS + 4).map(|i| i as f64).collect();
        v.assign(&long);
        assert_eq!(v.as_slice(), &long[..]);
        v.assign(&[0.5, 0.25]);
        assert_eq!(v, [0.5, 0.25]);
        assert!(v.is_inline());
    }

    #[test]
    fn clear_then_refill_crosses_boundary_correctly() {
        let mut v = DimVec::from_fn(INLINE_DIMS + 1, |i| i as f64);
        v.clear();
        assert!(v.is_empty());
        v.push(42.0);
        assert!(v.is_inline());
        assert_eq!(v, [42.0]);
    }

    /// Lanes past `len()` as the kernels see them.
    fn padding(v: &DimVec<f64>) -> Vec<f64> {
        v.lanes(v.is_inline()).as_flattened()[v.len()..].to_vec()
    }

    #[test]
    fn every_mutator_keeps_padding_zero() {
        // Shrinking assign, inline → inline.
        let mut v = DimVec::from_slice(&[1.0, 2.0, 3.0]);
        v.assign(&[4.0]);
        assert_eq!(padding(&v), [0.0; 3]);
        // Clear, then refill shorter.
        let mut v = DimVec::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        v.clear();
        v.extend_from_slice(&[5.0, 6.0]);
        assert_eq!(padding(&v), [0.0; 2]);
        // Spilled, then shrunk back to inline, by assign and by clear.
        let long: Vec<f64> = (1..=9).map(f64::from).collect();
        let mut v = DimVec::from_slice(&long);
        v.assign(&[7.0, 8.0]);
        assert!(v.is_inline());
        assert_eq!(padding(&v), [0.0; 2]);
        let mut v = DimVec::from_slice(&long);
        v.clear();
        v.push(9.0);
        assert_eq!(padding(&v), [0.0; 3]);
        // Spilled and shrunk within the spill regime (3 chunks → 2).
        let mut v = DimVec::from_slice(&long);
        v.assign(&long[..6]);
        assert_eq!(v.lanes(false).len(), 2);
        assert_eq!(padding(&v), [0.0; 2]);
    }

    #[test]
    fn lanes_are_whole_zero_padded_chunks() {
        for d in 0..=13 {
            let built = DimVec::from_fn(d, |i| i as f64 + 1.0);
            let collected: DimVec<f64> = (0..d).map(|i| i as f64 + 1.0).collect();
            let from_vec: DimVec<f64> = (0..d).map(|i| i as f64 + 1.0).collect::<Vec<_>>().into();
            for v in [built, collected, from_vec] {
                let lanes = v.lanes(v.is_inline());
                assert_eq!(lanes.len(), d.div_ceil(INLINE_DIMS).max(1), "d={d}");
                assert_eq!(&lanes.as_flattened()[..d], v.as_slice(), "d={d}");
                assert!(padding(&v).iter().all(|&p| p == 0.0), "d={d}");
            }
        }
    }

    #[test]
    fn conversions_and_collect() {
        let from_vec: DimVec<f64> = vec![1.0, 2.0].into();
        let from_arr: DimVec<f64> = [1.0, 2.0].into();
        let from_boxed: DimVec<f64> = vec![1.0, 2.0].into_boxed_slice().into();
        let collected: DimVec<f64> = [1.0, 2.0].iter().copied().collect();
        assert_eq!(from_vec, from_arr);
        assert_eq!(from_vec, from_boxed);
        assert_eq!(from_vec, collected);
    }

    #[test]
    fn equality_compares_logical_contents_only() {
        // Same contents, different histories (one spilled and shrank).
        let a = DimVec::from_slice(&[1.0, 2.0]);
        let mut b = DimVec::from_fn(INLINE_DIMS + 2, |i| i as f64);
        b.assign(&[1.0, 2.0]);
        assert_eq!(a, b);
        assert_ne!(a, DimVec::from_slice(&[1.0]));
        assert_ne!(a, DimVec::from_slice(&[1.0, 2.5]));
    }

    #[test]
    fn splat_and_debug() {
        let v: DimVec<f64> = DimVec::splat(3, 0.5);
        assert_eq!(v, [0.5, 0.5, 0.5]);
        assert_eq!(format!("{v:?}"), "[0.5, 0.5, 0.5]");
    }

    #[test]
    fn works_with_non_float_payloads() {
        use pla_geom::{Line, Point2};
        let lines = DimVec::from_fn(2, |i| Line::new(Point2::new(0.0, i as f64), 1.0));
        assert_eq!(lines[1].x0, 1.0);
        let opts: DimVec<Option<Point2>> = DimVec::splat(3, None);
        assert!(opts.iter().all(|o| o.is_none()));
    }

    #[test]
    fn slice_apis_through_deref() {
        let v = DimVec::from_slice(&[3.0, 1.0, 2.0]);
        assert_eq!(v.iter().copied().fold(f64::MIN, f64::max), 3.0);
        assert_eq!(v.to_vec(), vec![3.0, 1.0, 2.0]);
        assert!(v.contains(&1.0));
    }
}
