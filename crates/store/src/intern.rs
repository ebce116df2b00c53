//! A global string interner: member keys and display names repeat
//! heavily across batches (shared upper members, reused names), so the
//! columnar planes store `u32` symbols and resolve text through one
//! store-wide table.
//!
//! Every interned text lives in one buffer; the lookup table is an
//! open-addressing array of symbols probed by a keyed hash, so interning
//! allocates nothing per string beyond amortized growth.

use std::hash::{BuildHasher, RandomState};

/// Empty slot in the lookup table.
const EMPTY: u32 = u32::MAX;

/// Interns strings to dense `u32` symbols. Symbols are stable for the
/// lifetime of the interner and resolve back in O(1).
#[derive(Debug)]
pub struct Interner {
    /// Every interned text, back to back.
    text: String,
    /// `bounds[s]..bounds[s + 1]` is symbol `s`'s text.
    bounds: Vec<usize>,
    /// Each symbol's hash, so growing the table rehashes no text.
    hashes: Vec<u64>,
    /// Linear-probing table of symbols (`EMPTY` when free); its length is
    /// a power of two, at least twice the symbol count.
    slots: Vec<u32>,
    /// Keyed hasher: stream text is untrusted.
    hasher: RandomState,
}

impl Default for Interner {
    fn default() -> Interner {
        Interner {
            text: String::new(),
            bounds: vec![0],
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
            hasher: RandomState::new(),
        }
    }
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// The table slot holding `s`, or the free slot where it belongs.
    fn slot(&self, s: &str, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let sym = self.slots[i];
            if sym == EMPTY || (self.hashes[sym as usize] == hash && self.resolve(sym) == s) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns `s`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> u32 {
        let hash = self.hasher.hash_one(s);
        let i = self.slot(s, hash);
        if self.slots[i] != EMPTY {
            return self.slots[i];
        }
        let sym = self.hashes.len() as u32;
        self.text.push_str(s);
        self.bounds.push(self.text.len());
        self.hashes.push(hash);
        self.slots[i] = sym;
        if 2 * self.hashes.len() > self.slots.len() {
            self.grow();
        }
        sym
    }

    /// Doubles the lookup table and reinserts every symbol.
    fn grow(&mut self) {
        let mut slots = vec![EMPTY; 2 * self.slots.len()];
        let mask = slots.len() - 1;
        for (sym, &hash) in self.hashes.iter().enumerate() {
            let mut i = hash as usize & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = sym as u32;
        }
        self.slots = slots;
    }

    /// Looks a string up without interning it.
    pub fn get(&self, s: &str) -> Option<u32> {
        let sym = self.slots[self.slot(s, self.hasher.hash_one(s))];
        (sym != EMPTY).then_some(sym)
    }

    /// Resolves a symbol back to its text.
    ///
    /// # Panics
    /// Panics when `sym` was not produced by this interner.
    pub fn resolve(&self, sym: u32) -> &str {
        let s = sym as usize;
        &self.text[self.bounds[s]..self.bounds[s + 1]]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Toronto");
        let b = i.intern("Canada");
        assert_ne!(a, b);
        assert_eq!(i.intern("Toronto"), a);
        assert_eq!(i.resolve(a), "Toronto");
        assert_eq!(i.resolve(b), "Canada");
        assert_eq!(i.len(), 2);
        assert_eq!(i.get("Canada"), Some(b));
        assert_eq!(i.get("Mexico"), None);
    }

    #[test]
    fn growth_keeps_every_symbol() {
        let mut i = Interner::new();
        let syms: Vec<u32> = (0..1000).map(|k| i.intern(&format!("m{k}"))).collect();
        i.intern("");
        for (k, &s) in syms.iter().enumerate() {
            assert_eq!(s, k as u32);
            assert_eq!(i.get(&format!("m{k}")), Some(s));
            assert_eq!(i.resolve(s), format!("m{k}"));
        }
        assert_eq!(i.get(""), Some(1000));
        assert_eq!(i.resolve(1000), "");
        assert_eq!(i.len(), 1001);
    }
}
