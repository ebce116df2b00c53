//! A small string interner.
//!
//! Category names, member names and constraint constants are all plain
//! strings in the public API, but the solvers in the higher layers want
//! cheap integer identities. [`Interner`] provides the mapping in both
//! directions. Identifiers are dense `u32` indices, so they double as
//! vector indices in the data structures built on top.

use std::collections::HashMap;

/// Interns strings and hands out dense `u32` symbols.
///
/// ```
/// use odc_hierarchy::Interner;
///
/// let mut i = Interner::new();
/// let a = i.intern("Canada");
/// let b = i.intern("Mexico");
/// assert_ne!(a, b);
/// assert_eq!(i.intern("Canada"), a);
/// assert_eq!(i.resolve(a), "Canada");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<Box<str>>,
    index: HashMap<Box<str>, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol. Idempotent.
    #[allow(
        clippy::expect_used,
        reason = "one symbol per distinct name held in memory, far below 2^32"
    )]
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&sym) = self.index.get(name) {
            return sym;
        }
        let sym = u32::try_from(self.names.len()).expect("interner overflow");
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.index.insert(boxed, sym);
        sym
    }

    /// Looks up a previously interned name without inserting.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: u32) -> &str {
        &self.names[sym as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(symbol, name)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("x");
        assert_eq!(i.intern("x"), a);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn symbols_are_dense() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("c"), 2);
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert_eq!(i.get("a"), None);
        i.intern("a");
        assert_eq!(i.get("a"), Some(0));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let syms: Vec<u32> = ["Store", "City", "Country"]
            .iter()
            .map(|s| i.intern(s))
            .collect();
        assert_eq!(i.resolve(syms[0]), "Store");
        assert_eq!(i.resolve(syms[1]), "City");
        assert_eq!(i.resolve(syms[2]), "Country");
    }

    #[test]
    fn iter_in_insertion_order() {
        let mut i = Interner::new();
        i.intern("b");
        i.intern("a");
        let pairs: Vec<_> = i.iter().map(|(s, n)| (s, n.to_string())).collect();
        assert_eq!(pairs, vec![(0, "b".to_string()), (1, "a".to_string())]);
    }
}
