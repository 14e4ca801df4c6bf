//! Compact processor-id bitsets.
//!
//! Scheduling decisions constantly union, intersect and rank small sets of
//! processor ids (machine sizes in the paper top out at 128). A bitmap
//! keeps those operations branch-free, and keeping its first two words
//! inline keeps them allocation-free up to 128 processors: a LoC-MPS
//! search copies sets into every booking, placement and memoized schedule.

use serde::{DeError, Deserialize, Serialize, Value};

/// A processor id: dense indices `0..P`.
pub type ProcId = u32;

const BITS: usize = 64;

/// Bitmap words held inline; two cover every cluster of up to 128
/// processors.
const INLINE: usize = 2;

/// A set of processor ids, stored as a growable bitmap.
///
/// Sets from the same [`Cluster`](crate::Cluster) can be combined freely;
/// word vectors grow on demand and trailing zero words are ignored by
/// comparisons and hashing. They are kept, though: a set serializes as
/// `{"words":[…]}` with every word it holds, trailing zeros included.
///
/// Up to two words live inline, so sets over processors `0..128` never
/// touch the heap. A wider set spills to a heap buffer, and keeps that
/// buffer through [`ProcSet::clear`] and `clone_from`, so a reused scratch
/// set does not reallocate.
///
/// # Examples
/// ```
/// use locmps_platform::ProcSet;
///
/// let a: ProcSet = [0u32, 1, 2, 3].into_iter().collect();
/// let b: ProcSet = [2u32, 3, 4].into_iter().collect();
/// assert_eq!(a.intersection_len(&b), 2);
/// assert_eq!(a.union(&b).len(), 5);
/// assert_eq!(a.to_vec(), vec![0, 1, 2, 3]);
/// ```
pub struct ProcSet {
    words: Words,
}

/// The bitmap of a [`ProcSet`]: `len` inline words, or a heap buffer.
enum Words {
    Inline { len: usize, buf: [u64; INLINE] },
    Heap(Vec<u64>),
}

impl Default for ProcSet {
    fn default() -> Self {
        Self::from_words(&[])
    }
}

impl Clone for ProcSet {
    #[inline]
    fn clone(&self) -> Self {
        Self::from_words(self.words())
    }

    /// Copies `source` into this set, reusing a heap buffer if it has one.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        match &mut self.words {
            Words::Heap(v) => {
                v.clear();
                v.extend_from_slice(source.words());
            }
            Words::Inline { .. } => *self = source.clone(),
        }
    }
}

impl std::fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcSet")
            .field("words", &self.words())
            .finish()
    }
}

impl Serialize for ProcSet {
    fn to_value(&self) -> Value {
        Value::Object(vec![("words".to_string(), self.words().to_value())])
    }
}

impl Deserialize for ProcSet {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("object for ProcSet"))?;
        let words: Vec<u64> = Deserialize::from_value(serde::field(obj, "words")?)?;
        Ok(Self::from_words(&words))
    }
}

impl ProcSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A set holding exactly `words`, inline when they fit.
    #[inline]
    fn from_words(words: &[u64]) -> Self {
        if words.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..words.len()].copy_from_slice(words);
            Self {
                words: Words::Inline {
                    len: words.len(),
                    buf,
                },
            }
        } else {
            Self {
                words: Words::Heap(words.to_vec()),
            }
        }
    }

    /// The set `{0, 1, …, n-1}` — "all processors" of an `n`-node cluster.
    pub fn all(n: usize) -> Self {
        let mut s = Self::new();
        for p in 0..n {
            s.insert(p as ProcId);
        }
        s
    }

    /// A singleton set.
    pub fn single(p: ProcId) -> Self {
        let mut s = Self::new();
        s.insert(p);
        s
    }

    /// Resizes the bitmap to `n` words; new words are zero. Spills to the
    /// heap past [`INLINE`] words; a heap buffer stays, whatever `n`.
    #[inline]
    fn set_word_len(&mut self, n: usize) {
        match &mut self.words {
            Words::Heap(v) => v.resize(n, 0),
            Words::Inline { len, buf } if n <= INLINE => {
                if n > *len {
                    buf[*len..n].fill(0);
                }
                *len = n;
            }
            Words::Inline { len, buf } => {
                let mut v = Vec::with_capacity(n);
                v.extend_from_slice(&buf[..*len]);
                v.resize(n, 0);
                self.words = Words::Heap(v);
            }
        }
    }

    /// Inserts `p`; returns whether it was newly added.
    #[inline]
    pub fn insert(&mut self, p: ProcId) -> bool {
        let (w, b) = (p as usize / BITS, p as usize % BITS);
        if w >= self.words().len() {
            self.set_word_len(w + 1);
        }
        let word = &mut self.words_mut()[w];
        let newly = *word & (1 << b) == 0;
        *word |= 1 << b;
        newly
    }

    /// Removes `p`; returns whether it was present.
    pub fn remove(&mut self, p: ProcId) -> bool {
        let (w, b) = (p as usize / BITS, p as usize % BITS);
        let Some(word) = self.words_mut().get_mut(w) else {
            return false;
        };
        let present = *word & (1 << b) != 0;
        *word &= !(1 << b);
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, p: ProcId) -> bool {
        let (w, b) = (p as usize / BITS, p as usize % BITS);
        self.words()
            .get(w)
            .is_some_and(|&word| word & (1 << b) != 0)
    }

    /// Number of processors in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// The bitmap words, lowest ids first; may end in zero words.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline { len, buf } => &buf[..*len],
            Words::Heap(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline { len, buf } => &mut buf[..*len],
            Words::Heap(v) => v,
        }
    }

    /// Iterates members in increasing id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some((wi * BITS) as ProcId + b)
                }
            })
        })
    }

    /// The members as a sorted vector.
    pub fn to_vec(&self) -> Vec<ProcId> {
        self.iter().collect()
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &ProcSet) {
        if other.words().len() > self.words().len() {
            self.set_word_len(other.words().len());
        }
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// Owned union.
    pub fn union(&self, other: &ProcSet) -> ProcSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Owned intersection.
    pub fn intersection(&self, other: &ProcSet) -> ProcSet {
        let mut s = ProcSet::new();
        s.set_word_len(self.words().len().min(other.words().len()));
        for (out, (a, b)) in s
            .words_mut()
            .iter_mut()
            .zip(self.words().iter().zip(other.words()))
        {
            *out = a & b;
        }
        s
    }

    /// Owned difference `self \ other`.
    pub fn difference(&self, other: &ProcSet) -> ProcSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// In-place difference: removes every member of `other`.
    #[inline]
    pub fn difference_with(&mut self, other: &ProcSet) {
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// Number of shared processors — the heart of the locality metric.
    #[inline]
    pub fn intersection_len(&self, other: &ProcSet) -> usize {
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Whether the sets share no processor.
    #[inline]
    pub fn is_disjoint(&self, other: &ProcSet) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & b == 0)
    }

    /// Whether every member of `self` is in `other`.
    pub fn is_subset(&self, other: &ProcSet) -> bool {
        let theirs = other.words();
        self.words()
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !theirs.get(i).copied().unwrap_or(0) == 0)
    }

    /// Removes every member and every word, keeping a heap buffer so the
    /// set can be refilled without reallocating (scratch-buffer reuse in
    /// hot scheduling loops).
    #[inline]
    pub fn clear(&mut self) {
        self.set_word_len(0);
    }

    /// The lowest id in the set.
    pub fn first(&self) -> Option<ProcId> {
        self.iter().next()
    }
}

impl PartialEq for ProcSet {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.words(), other.words());
        (0..a.len().max(b.len()))
            .all(|i| a.get(i).copied().unwrap_or(0) == b.get(i).copied().unwrap_or(0))
    }
}

impl Eq for ProcSet {}

impl std::hash::Hash for ProcSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Skip trailing zero words so equal sets hash equally.
        let words = self.words();
        let mut end = words.len();
        while end > 0 && words[end - 1] == 0 {
            end -= 1;
        }
        words[..end].hash(state);
    }
}

impl FromIterator<ProcId> for ProcSet {
    fn from_iter<I: IntoIterator<Item = ProcId>>(iter: I) -> Self {
        let mut s = ProcSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl std::fmt::Display for ProcSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcSet::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(130)); // crosses a word boundary
        assert!(s.contains(3) && s.contains(130) && !s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.remove(999));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_is_sorted() {
        let s: ProcSet = [5u32, 1, 200, 64, 63].into_iter().collect();
        assert_eq!(s.to_vec(), vec![1, 5, 63, 64, 200]);
        assert_eq!(s.first(), Some(1));
    }

    #[test]
    fn set_algebra() {
        let a: ProcSet = [0u32, 1, 2, 3].into_iter().collect();
        let b: ProcSet = [2u32, 3, 4, 5].into_iter().collect();
        assert_eq!(a.union(&b).to_vec(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(a.intersection(&b).to_vec(), vec![2, 3]);
        assert_eq!(a.difference(&b).to_vec(), vec![0, 1]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, a.difference(&b));
        assert_eq!(a.intersection_len(&b), 2);
        assert!(!a.is_disjoint(&b));
        assert!(a.intersection(&b).is_subset(&a));
        let c: ProcSet = [100u32].into_iter().collect();
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn in_place_difference_spans_words() {
        let mut a: ProcSet = [1u32, 63, 64, 130].into_iter().collect();
        // `other` shorter than `self`: the upper words stay as they are.
        a.difference_with(&[1u32, 5].into_iter().collect());
        assert_eq!(a.to_vec(), vec![63, 64, 130]);
        // `other` longer than `self`: its extra words remove nothing.
        a.difference_with(&[64u32, 200].into_iter().collect());
        assert_eq!(a.to_vec(), vec![63, 130]);
        a.difference_with(&a.clone());
        assert!(a.is_empty());
    }

    #[test]
    fn clone_from_reuses_the_allocation() {
        let wide: ProcSet = [0u32, 70, 140].into_iter().collect();
        let mut s = wide.clone();
        let words = s.words().as_ptr();
        s.clone_from(&ProcSet::single(3));
        assert_eq!(s, ProcSet::single(3));
        assert_eq!(s.words().as_ptr(), words, "clone_from must not reallocate");
        s.clone_from(&wide);
        assert_eq!(s, wide);
    }

    #[test]
    fn two_words_stay_inline() {
        let mut s: ProcSet = [0u32, 127].into_iter().collect();
        assert!(matches!(s.words, Words::Inline { len: 2, .. }));
        s.insert(128);
        assert!(matches!(&s.words, Words::Heap(v) if v.len() == 3));
        // A clone is as small as its words allow; a cleared heap set
        // keeps its buffer.
        assert!(matches!(
            ProcSet::single(3).clone().words,
            Words::Inline { len: 1, .. }
        ));
        s.clear();
        assert!(matches!(&s.words, Words::Heap(v) if v.is_empty() && v.capacity() >= 3));
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = ProcSet::single(1);
        let mut b = ProcSet::single(1);
        b.insert(500);
        b.remove(500); // leaves trailing zero words
        assert_eq!(a, b);
        a.insert(2);
        assert_ne!(a, b);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_members() {
        let mut s: ProcSet = [3u32, 70].into_iter().collect();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s, ProcSet::new());
        s.insert(5);
        assert_eq!(s.to_vec(), vec![5]);
        // A refilled scratch set equals (and hashes like) a fresh one.
        let fresh = ProcSet::single(5);
        assert_eq!(s, fresh);
    }

    #[test]
    fn all() {
        let s = ProcSet::all(130);
        assert_eq!(s.len(), 130);
        assert_eq!(s.words(), [u64::MAX, u64::MAX, 0b11]);
    }

    #[test]
    fn display_and_hash() {
        use std::collections::HashSet;
        let a: ProcSet = [2u32, 7].into_iter().collect();
        assert_eq!(a.to_string(), "{2,7}");
        let mut b = a.clone();
        b.insert(300);
        b.remove(300);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b), "equal sets must hash equally");
    }
}
