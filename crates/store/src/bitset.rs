//! A growable bitset over member indices. Per-category membership and
//! the base-member set are the hot indexes of incremental validation —
//! one bit per member keeps the million-member case in cache.

/// A dense bitset over `u32` indices, growing on insert.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set.
    pub fn new() -> BitSet {
        BitSet::default()
    }

    /// Inserts `i`; returns whether it was newly added.
    pub fn insert(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Makes room for every index below `n`, so inserting them grows
    /// nothing.
    pub fn reserve(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// Removes `i`; returns whether it was present.
    pub fn remove(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i as usize % 64);
        if w >= self.words.len() {
            return false;
        }
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set indices in ascending order, visiting only the
    /// set bits of each word.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some((wi * 64 + b) as u32)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(s.insert(200));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(s.contains(200));
        assert!(!s.contains(4));
        assert_eq!(s.count(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 200]);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.remove(9999));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn iter_visits_word_edges_in_ascending_order() {
        // Word boundaries (0, 63 | 64 | 127 | 128), an empty word
        // (192..256) between set words, and a sparse high index.
        let want = [0u32, 63, 64, 127, 128, 130, 256, 1_000_003];
        let mut s = BitSet::new();
        for &i in want.iter().rev() {
            s.insert(i);
        }
        let got: Vec<u32> = s.iter().collect();
        assert_eq!(got, want);
        assert_eq!(s.count(), got.len());
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        // Removing every set bit of one word leaves it empty.
        s.remove(64);
        s.remove(127);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [0, 63, 128, 130, 256, 1_000_003]
        );
        assert_eq!(BitSet::new().iter().next(), None);
    }
}
