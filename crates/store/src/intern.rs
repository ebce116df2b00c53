//! A global string interner: member keys and display names repeat
//! heavily across batches (shared upper members, reused names), so the
//! columnar planes store `u32` symbols and resolve text through one
//! store-wide table.
//!
//! Every interned text lives in one buffer; the lookup table is an
//! open-addressing array of symbols probed by a keyed hash, so interning
//! allocates nothing per string beyond amortized growth. Callers that
//! probe other tables with the same key hash it once ([`Interner::hash`])
//! and pass the hash along ([`Interner::get_hashed`],
//! [`Interner::intern_hashed`]); a batch reserves its room once
//! ([`Interner::reserve`]).

use std::hash::{BuildHasher, RandomState};

/// Empty slot in an open-addressing table of `u32` entries.
pub(crate) const EMPTY: u32 = u32::MAX;

/// Where a linear probe for `hash` stops in `slots` (a power of two
/// long, never full): the first slot whose entry `is` accepts, or the
/// first free one.
pub(crate) fn probe(slots: &[u32], hash: u64, is: impl Fn(u32) -> bool) -> usize {
    let mask = slots.len() - 1;
    let mut i = hash as usize & mask;
    loop {
        let entry = slots[i];
        if entry == EMPTY || is(entry) {
            return i;
        }
        i = (i + 1) & mask;
    }
}

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

    /// The keyed hash this interner files `s` under.
    pub fn hash(&self, s: &str) -> u64 {
        self.hasher.hash_one(s)
    }

    /// The table slot holding `s`, or the free slot where it belongs.
    fn slot(&self, s: &str, hash: u64) -> usize {
        probe(&self.slots, hash, |sym| {
            self.hashes[sym as usize] == hash && self.resolve(sym) == s
        })
    }

    /// Interns `s`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> u32 {
        self.intern_hashed(s, self.hash(s))
    }

    /// Interns `s` under `hash`, which must be [`Interner::hash`]`(s)`.
    pub fn intern_hashed(&mut self, s: &str, hash: u64) -> u32 {
        debug_assert_eq!(hash, self.hash(s), "hash from another hasher");
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
            self.rehash(2 * self.slots.len());
        }
        sym
    }

    /// Makes room for `strings` more symbols holding `bytes` bytes of
    /// text in all, so interning them grows nothing.
    pub fn reserve(&mut self, strings: usize, bytes: usize) {
        self.text.reserve(bytes);
        self.bounds.reserve(strings);
        self.hashes.reserve(strings);
        let slots = (2 * (self.hashes.len() + strings)).next_power_of_two();
        if slots > self.slots.len() {
            self.rehash(slots);
        }
    }

    /// Rebuilds the lookup table at `len` slots (a power of two, more
    /// than twice the symbol count), reinserting every symbol.
    fn rehash(&mut self, len: usize) {
        let mut slots = vec![EMPTY; len];
        for (sym, &hash) in self.hashes.iter().enumerate() {
            let i = probe(&slots, hash, |_| false);
            slots[i] = sym as u32;
        }
        self.slots = slots;
    }

    /// Looks a string up without interning it.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.get_hashed(s, self.hash(s))
    }

    /// Looks `s` up under `hash`, which must be [`Interner::hash`]`(s)`.
    pub fn get_hashed(&self, s: &str, hash: u64) -> Option<u32> {
        let sym = self.slots[self.slot(s, hash)];
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
    fn reserved_room_interns_without_regrowing() {
        let mut i = Interner::new();
        i.intern("all");
        i.reserve(1000, 4000);
        let slots = i.slots.len();
        let keys: Vec<String> = (0..1000).map(|k| format!("m{k}")).collect();
        for k in &keys {
            let h = i.hash(k);
            assert_eq!(i.get_hashed(k, h), None);
            let sym = i.intern_hashed(k, h);
            assert_eq!(i.get_hashed(k, h), Some(sym));
        }
        assert_eq!(i.slots.len(), slots, "reserve sized the table once");
        assert_eq!(i.len(), 1001);
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
