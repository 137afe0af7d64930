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
//! The storage is a two-variant enum, inline array *or* heap buffer, so
//! the two never take space side by side: a `DimVec<f64>` is 40 bytes
//! (tag and length in the first word, then 32 bytes of inline elements
//! or a `Vec`), and a [`Segment`](crate::Segment), which holds two, is
//! 104. Every copy of a segment the pipeline keeps pays that size, so
//! both sizes are pinned by compile-time assertions. A spilled vector
//! stays spilled when it is cleared or shrunk: its buffer, and the
//! allocation behind it, serve the next refill.
//!
//! The element bound `T: Copy + Default` keeps the implementation free of
//! `unsafe`: the inline array is always fully initialized, with
//! `T::default()` filling the unused tail. The spill buffer is padded the
//! same way to a whole number of [`INLINE_DIMS`]-wide chunks (at least
//! one), so the lane kernels (`crate::kern`) see every `DimVec<f64>` as
//! zero-padded chunks at any length; every mutator keeps that padding at
//! `T::default()`.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Number of dimensions stored inline before [`DimVec`] spills to the
/// heap, and the width of the chunks the lane kernels work in. Chosen to
/// cover the paper's experimental range (`d ≤ 4` in §5's
/// multi-dimensional runs) while keeping a `DimVec<f64>` at 40 bytes:
/// 32 bytes of inline elements behind one word of tag and length.
pub const INLINE_DIMS: usize = 4;

// Layout pin: a field that regrows the type fails the build.
const _: () = assert!(size_of::<DimVec<f64>>() == 40);

/// A fixed-small vector: inline storage for up to [`INLINE_DIMS`]
/// elements, heap spill above.
///
/// Semantically a `Vec<T>` restricted to `Copy + Default` elements; it
/// dereferences to a slice, so all slice APIs (indexing, iteration,
/// `copy_from_slice`, …) apply.
///
/// Storage is either inline or spilled, never both. A vector spills when
/// it grows past [`INLINE_DIMS`] and then keeps its heap buffer, through
/// [`clear`](Self::clear) and shorter [`assign`](Self::assign)s too, so a
/// spilled vector that is emptied and refilled allocates nothing.
/// [`is_inline`](Self::is_inline) reports the length regime
/// (`len() ≤ INLINE_DIMS`), not which storage is in use.
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
pub struct DimVec<T: Copy + Default>(Repr<T>);

/// The two storages. Both keep `len` first, so it shares a word with the
/// tag.
#[derive(Clone)]
enum Repr<T> {
    /// `len ≤ INLINE_DIMS` elements in `data[..len]`, then
    /// `T::default()` padding.
    Inline { len: u32, data: [T; INLINE_DIMS] },
    /// `len` elements in `buf[..len]`, then `T::default()` padding up to
    /// the next multiple of [`INLINE_DIMS`], and never fewer than one
    /// chunk, so the lane kernels see whole chunks. `len` may be any
    /// value, [`INLINE_DIMS`] or below included, once the vector has
    /// spilled.
    Spilled { len: u32, buf: Vec<T> },
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
    let mut buf = Vec::with_capacity(padded(slice.len()));
    buf.extend_from_slice(slice);
    buf.resize(padded(slice.len()), T::default());
    buf
}

impl<T: Copy + Default> DimVec<T> {
    /// An empty vector (no heap allocation).
    #[inline]
    pub fn new() -> Self {
        Self(Repr::Inline { len: 0, data: [T::default(); INLINE_DIMS] })
    }

    /// An empty vector with room for `d` elements: no-op for `d ≤`
    /// [`INLINE_DIMS`], a single heap reservation (rounded up to whole
    /// chunks) above.
    #[inline]
    pub fn with_capacity(d: usize) -> Self {
        if d <= INLINE_DIMS {
            return Self::new();
        }
        let mut buf = Vec::with_capacity(padded(d));
        buf.resize(INLINE_DIMS, T::default());
        Self(Repr::Spilled { len: 0, buf })
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
        let len = slice.len() as u32;
        if slice.len() <= INLINE_DIMS {
            let mut data = [T::default(); INLINE_DIMS];
            data[..slice.len()].copy_from_slice(slice);
            Self(Repr::Inline { len, data })
        } else {
            Self(Repr::Spilled { len, buf: padded_copy(slice) })
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } | Repr::Spilled { len, .. } => *len as usize,
        }
    }

    /// Whether the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the length is at most [`INLINE_DIMS`] — one chunk, which
    /// needs no heap. A vector that spilled earlier keeps its buffer, so
    /// this does not promise that it holds none.
    #[inline]
    pub fn is_inline(&self) -> bool {
        self.len() <= INLINE_DIMS
    }

    /// Appends an element, spilling to the heap when crossing
    /// [`INLINE_DIMS`].
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Inline { len, data } => {
                if let Some(slot) = data.get_mut(*len as usize) {
                    *slot = value;
                    *len += 1;
                } else {
                    // Crossing the boundary: move the inline block over,
                    // reserving enough that incremental dimension-by-
                    // dimension fills don't re-grow immediately.
                    let mut buf = Vec::with_capacity(2 * INLINE_DIMS);
                    buf.extend_from_slice(data);
                    buf.push(value);
                    buf.resize(2 * INLINE_DIMS, T::default());
                    self.0 = Repr::Spilled { len: INLINE_DIMS as u32 + 1, buf };
                }
            }
            Repr::Spilled { len, buf } => {
                let at = *len as usize;
                if at == buf.len() {
                    // The last chunk is full: open a padding chunk.
                    buf.resize(at + INLINE_DIMS, T::default());
                }
                buf[at] = value;
                *len += 1;
            }
        }
    }

    /// Appends every element of `slice`.
    pub fn extend_from_slice(&mut self, slice: &[T]) {
        for &v in slice {
            self.push(v);
        }
    }

    /// Removes all elements. A spilled vector keeps its buffer, cut to
    /// one chunk of padding, and its allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, data } => {
                *data = [T::default(); INLINE_DIMS];
                *len = 0;
            }
            Repr::Spilled { len, buf } => {
                buf.truncate(INLINE_DIMS);
                buf.fill(T::default());
                *len = 0;
            }
        }
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // An inline `len` never exceeds `INLINE_DIMS`; clamping it
        // instead of bounds-checking compiles to a select, not a branch.
        match &self.0 {
            Repr::Inline { len, data } => &data[..(*len as usize).min(INLINE_DIMS)],
            Repr::Spilled { len, buf } => &buf[..*len as usize],
        }
    }

    /// The elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, data } => &mut data[..(*len as usize).min(INLINE_DIMS)],
            Repr::Spilled { len, buf } => &mut buf[..*len as usize],
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
    /// Whether every vector in `vs` keeps its elements in its inline
    /// block rather than in a heap buffer. The lane kernels
    /// (`crate::kern`) test this once for all of their operands and pass
    /// the result to [`Self::lanes`] as a constant; in the `true` copy of
    /// a kernel the compiler then knows every operand's storage, so no
    /// per-operand storage test is left on the hot path.
    #[inline(always)]
    pub(crate) fn all_inline_storage<const N: usize>(vs: &[&Self; N]) -> bool {
        vs.iter().fold(true, |all, v| all & matches!(v.0, Repr::Inline { .. }))
    }

    /// The elements as [`INLINE_DIMS`]-wide chunks for the lane kernels
    /// (`crate::kern`): one chunk for `len() ≤ INLINE_DIMS` (the inline
    /// block, or the first chunk of a spilled buffer), ⌈len /
    /// INLINE_DIMS⌉ chunks of the spilled buffer above. Lanes past
    /// `len()` are `0.0`, which every lane op treats as neutral: every
    /// mutator of this type keeps them so (pinned by
    /// `every_mutator_keeps_padding_zero`), and the kernels write `0.0`
    /// back to them (pinned by `kern`'s `padding_lanes_are_neutral`).
    ///
    /// `inline == true` returns exactly one chunk, a length the compiler
    /// sees, and requires [`Self::is_inline`]; `false` returns every
    /// chunk of the storage in use, which is also one for a vector that
    /// is inline by length. A kernel passes the constant it got from
    /// [`Self::all_inline_storage`] over all of its same-length operands.
    #[inline(always)]
    pub(crate) fn lanes(&self, inline: bool) -> &[[f64; INLINE_DIMS]] {
        debug_assert!(!inline || self.is_inline(), "lanes(): wrong storage regime");
        let chunks = match &self.0 {
            Repr::Inline { data, .. } => std::slice::from_ref(data),
            Repr::Spilled { buf, .. } => buf.as_chunks().0,
        };
        if inline {
            &chunks[..1]
        } else {
            chunks
        }
    }

    /// Mutable chunk view; same contract as [`Self::lanes`].
    #[inline(always)]
    pub(crate) fn lanes_mut(&mut self, inline: bool) -> &mut [[f64; INLINE_DIMS]] {
        debug_assert!(!inline || self.is_inline(), "lanes_mut(): wrong storage regime");
        let chunks = match &mut self.0 {
            Repr::Inline { data, .. } => std::slice::from_mut(data),
            Repr::Spilled { buf, .. } => buf.as_chunks_mut().0,
        };
        if inline {
            &mut chunks[..1]
        } else {
            chunks
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
            Self(Repr::Spilled { len, buf: vec })
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
    use proptest::prelude::*;

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
    fn a_cleared_spilled_vector_keeps_its_buffer() {
        let mut v = DimVec::from_fn(2 * INLINE_DIMS, |i| i as f64 + 1.0);
        let buf = v.as_slice().as_ptr();
        v.clear();
        assert!(v.is_empty() && v.is_inline());
        assert!(matches!(v.0, Repr::Spilled { .. }), "still spilled after clear");
        assert_eq!(v.lanes(true), &[[0.0; INLINE_DIMS]]);
        v.extend_from_slice(&[9.0; 2 * INLINE_DIMS]);
        assert_eq!(v.as_slice().as_ptr(), buf, "the refill reused the buffer");
        assert_eq!(v.lanes(false).len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Model-based: random operation sequences on a `DimVec` and on a
        /// `Vec<f64>` model agree after every step, at lengths 0..=13 so
        /// both directions across the inline/spill boundary are crossed;
        /// the chunk view stays whole and zero padded throughout.
        #[test]
        fn operations_match_a_vec_model(
            ops in prop::collection::vec((0u8..10, 0usize..=MAX_LEN, -8i32..8), 1..60)
        ) {
            let mut v: DimVec<f64> = DimVec::new();
            let mut model: Vec<f64> = Vec::new();
            for (step, &(op, n, seed)) in ops.iter().enumerate() {
                // `n` fresh values, distinct per step.
                let values: Vec<f64> =
                    (0..n).map(|i| f64::from(seed) + (step * 16 + i) as f64 / 64.0).collect();
                match op {
                    0 if model.len() < MAX_LEN => {
                        v.push(f64::from(seed));
                        model.push(f64::from(seed));
                    }
                    1 => {
                        v.clear();
                        model.clear();
                    }
                    2 => {
                        v.assign(&values);
                        model = values;
                    }
                    3 => {
                        // Same-length assign: the in-place refill.
                        let same: Vec<f64> =
                            (0..model.len()).map(|i| f64::from(seed) - i as f64 / 8.0).collect();
                        v.assign(&same);
                        model = same;
                    }
                    4 => {
                        let room = MAX_LEN - model.len();
                        v.extend_from_slice(&values[..n.min(room)]);
                        model.extend_from_slice(&values[..n.min(room)]);
                    }
                    5 => {
                        v = DimVec::from(values.clone());
                        model = values;
                    }
                    6 => {
                        v = DimVec::from_slice(&values);
                        model = values;
                    }
                    7 => {
                        v = values.iter().copied().collect();
                        model = values;
                    }
                    8 => v = v.clone(),
                    _ => {
                        let writes = v.as_mut_slice().iter_mut().zip(&mut model);
                        for (i, (slot, m)) in writes.enumerate() {
                            if i % 2 == step % 2 {
                                *slot = -*slot - 1.0;
                                *m = -*m - 1.0;
                            }
                        }
                    }
                }
                prop_assert_eq!(v.as_slice(), &model[..]);
                prop_assert_eq!(v.len(), model.len());
                prop_assert_eq!(v.is_inline(), model.len() <= INLINE_DIMS);
                prop_assert!(v == DimVec::from_slice(&model));
                let lanes = v.lanes(v.is_inline());
                prop_assert_eq!(lanes.len(), model.len().div_ceil(INLINE_DIMS).max(1));
                prop_assert!(padding(&v).iter().all(|&p| p == 0.0), "op {op}: {:?}", lanes);
            }
        }
    }

    /// The longest vector the model-based test builds: three chunks and
    /// one lane of a fourth.
    const MAX_LEN: usize = 13;

    #[test]
    fn slice_apis_through_deref() {
        let v = DimVec::from_slice(&[3.0, 1.0, 2.0]);
        assert_eq!(v.iter().copied().fold(f64::MIN, f64::max), 3.0);
        assert_eq!(v.to_vec(), vec![3.0, 1.0, 2.0]);
        assert!(v.contains(&1.0));
    }
}
