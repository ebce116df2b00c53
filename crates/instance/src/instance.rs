//! The dimension-instance container.

use odc_hierarchy::{Category, HierarchySchema};
use std::fmt;
use std::sync::Arc;

use crate::builder::InstanceBuilder;

/// A handle for a member of a [`DimensionInstance`].
///
/// Like [`Category`], member handles are dense indices; the `all` member is
/// always index `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Member(pub(crate) u32);

impl Member {
    /// The unique member of the `All` category (always index 0).
    pub const ALL: Member = Member(0);

    /// Builds a handle from a raw index.
    #[inline]
    #[allow(
        clippy::expect_used,
        reason = "indices come from an instance's dense member table, far below 2^32"
    )]
    pub fn from_index(i: usize) -> Member {
        Member(u32::try_from(i).expect("member index overflow"))
    }

    /// The raw dense index of this member.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dimension instance `d = (G, MembSet, <, Name)` (Definition 2).
///
/// Instances are immutable once built; construct them with
/// [`DimensionInstance::builder`]. `build()` validates conditions C1–C7,
/// so every `DimensionInstance` in circulation is structurally legal.
/// (Use [`InstanceBuilder::build_unchecked`] in tests that need to examine
/// violations.)
#[derive(Debug, Clone)]
pub struct DimensionInstance {
    pub(crate) schema: Arc<HierarchySchema>,
    /// Member key (unique identifier, also used for lookup).
    pub(crate) keys: Vec<String>,
    /// The `Name` attribute value of each member (Definition 2's `Name`).
    pub(crate) names: Vec<String>,
    /// The category of each member (C3 holds by construction).
    pub(crate) category: Vec<Category>,
    /// Direct parents of each member (the `<` relation).
    pub(crate) parents: Vec<Vec<Member>>,
    /// Direct children of each member (inverse of `<`).
    pub(crate) children: Vec<Vec<Member>>,
    /// Members of each category, indexed by category index.
    pub(crate) members_of: Vec<Vec<Member>>,
}

impl DimensionInstance {
    /// Starts building an instance over `schema`. The `all` member exists
    /// from the start.
    pub fn builder(schema: impl Into<Arc<HierarchySchema>>) -> InstanceBuilder {
        InstanceBuilder::new(schema.into())
    }

    /// The underlying hierarchy schema.
    pub fn schema(&self) -> &HierarchySchema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_arc(&self) -> Arc<HierarchySchema> {
        Arc::clone(&self.schema)
    }

    /// Total number of members (including `all`).
    pub fn num_members(&self) -> usize {
        self.keys.len()
    }

    /// Iterates over all members.
    pub fn members(&self) -> impl Iterator<Item = Member> {
        (0..self.num_members()).map(Member::from_index)
    }

    /// The members of a category (`MembSet_c`).
    pub fn members_of(&self, c: Category) -> &[Member] {
        &self.members_of[c.index()]
    }

    /// The category of a member.
    pub fn category_of(&self, m: Member) -> Category {
        self.category[m.index()]
    }

    /// The unique key of a member.
    pub fn key(&self, m: Member) -> &str {
        &self.keys[m.index()]
    }

    /// The `Name` attribute value of a member.
    pub fn name(&self, m: Member) -> &str {
        &self.names[m.index()]
    }

    /// Looks a member up by key.
    pub fn member_by_key(&self, key: &str) -> Option<Member> {
        // Linear scan is fine for the sizes used in tests and examples;
        // hot paths use handles.
        self.keys
            .iter()
            .position(|k| k == key)
            .map(Member::from_index)
    }

    /// The direct parents of `m` (the members `m'` with `m < m'`).
    pub fn parents(&self, m: Member) -> &[Member] {
        &self.parents[m.index()]
    }

    /// The direct children of `m`.
    pub fn children(&self, m: Member) -> &[Member] {
        &self.children[m.index()]
    }

    /// Whether `x < y` holds directly.
    pub fn is_direct_child(&self, x: Member, y: Member) -> bool {
        self.parents[x.index()].contains(&y)
    }

    /// Whether `x ≤ y` (x rolls up to y): `x ≪ y` or `x = y`.
    pub fn rolls_up_to(&self, x: Member, y: Member) -> bool {
        if x == y {
            return true;
        }
        let mut stack = vec![x];
        let mut visited = vec![false; self.num_members()];
        while let Some(m) = stack.pop() {
            if visited[m.index()] {
                continue;
            }
            visited[m.index()] = true;
            for &p in &self.parents[m.index()] {
                if p == y {
                    return true;
                }
                stack.push(p);
            }
        }
        false
    }

    /// Whether `x` rolls up to some member of category `c`
    /// (including `x` itself when `category_of(x) == c`).
    pub fn rolls_up_to_category(&self, x: Member, c: Category) -> bool {
        self.ancestor_in(x, c).is_some()
    }

    /// The unique ancestor of `x` in category `c`, if any (unique by C2).
    /// Returns `Some(x)` when `x` itself is in `c`.
    pub fn ancestor_in(&self, x: Member, c: Category) -> Option<Member> {
        if self.category_of(x) == c {
            return Some(x);
        }
        let mut stack = vec![x];
        let mut visited = vec![false; self.num_members()];
        while let Some(m) = stack.pop() {
            if visited[m.index()] {
                continue;
            }
            visited[m.index()] = true;
            for &p in &self.parents[m.index()] {
                if self.category_of(p) == c {
                    return Some(p);
                }
                stack.push(p);
            }
        }
        None
    }

    /// All ancestors of `x` (excluding `x`), in BFS order.
    pub fn ancestors(&self, x: Member) -> Vec<Member> {
        let mut out = Vec::new();
        let mut visited = vec![false; self.num_members()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(x);
        visited[x.index()] = true;
        while let Some(m) = queue.pop_front() {
            for &p in &self.parents[m.index()] {
                if !visited[p.index()] {
                    visited[p.index()] = true;
                    out.push(p);
                    queue.push_back(p);
                }
            }
        }
        out
    }

    /// All descendants of `x` (excluding `x`), in BFS order.
    pub fn descendants(&self, x: Member) -> Vec<Member> {
        let mut out = Vec::new();
        let mut visited = vec![false; self.num_members()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(x);
        visited[x.index()] = true;
        while let Some(m) = queue.pop_front() {
            for &c in &self.children[m.index()] {
                if !visited[c.index()] {
                    visited[c.index()] = true;
                    out.push(c);
                    queue.push_back(c);
                }
            }
        }
        out
    }

    /// The rollup mapping `Γ_{c1}^{c2} d` of Section 2.2: all pairs
    /// `(x1, x2)` with `x1 ∈ MembSet_{c1}`, `x2 ∈ MembSet_{c2}`, `x1 ≤ x2`.
    ///
    /// By C2 the mapping is single-valued on `x1`.
    pub fn rollup_mapping(&self, c1: Category, c2: Category) -> Vec<(Member, Member)> {
        self.members_of(c1)
            .iter()
            .filter_map(|&x1| self.ancestor_in(x1, c2).map(|x2| (x1, x2)))
            .collect()
    }

    /// The members at bottom categories (the grain fact tables attach to;
    /// Definition 6 calls this `MembSet_{c_b}`).
    pub fn base_members(&self) -> Vec<Member> {
        self.schema
            .bottom_categories()
            .into_iter()
            .flat_map(|c| self.members_of(c).iter().copied())
            .collect()
    }
}

impl fmt::Display for DimensionInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dimension instance ({} members over {} categories):",
            self.num_members(),
            self.schema.num_categories()
        )?;
        for c in self.schema.categories() {
            let names: Vec<&str> = self.members_of(c).iter().map(|&m| self.key(m)).collect();
            writeln!(f, "  {}: {{{}}}", self.schema.name(c), names.join(", "))?;
        }
        for m in self.members() {
            for &p in self.parents(m) {
                writeln!(f, "  {} < {}", self.key(m), self.key(p))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small two-branch instance: s1 < Toronto < Ontario < all,
    /// s2 < Dallas < Texas < all (categories Store/City/Region/All).
    fn small() -> (DimensionInstance, Vec<Member>) {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let region = b.category("Region");
        b.edge(store, city);
        b.edge(city, region);
        b.edge_to_all(region);
        let g = b.build().unwrap();

        let mut ib = DimensionInstance::builder(g);
        let s1 = ib.member("s1", store);
        let s2 = ib.member("s2", store);
        let toronto = ib.member("Toronto", city);
        let dallas = ib.member("Dallas", city);
        let ontario = ib.member("Ontario", region);
        let texas = ib.member("Texas", region);
        ib.link(s1, toronto);
        ib.link(s2, dallas);
        ib.link(toronto, ontario);
        ib.link(dallas, texas);
        ib.link_to_all(ontario);
        ib.link_to_all(texas);
        let d = ib.build().unwrap();
        (d, vec![s1, s2, toronto, dallas, ontario, texas])
    }

    #[test]
    fn basic_queries() {
        let (d, ms) = small();
        let (s1, s2, toronto, _dallas, ontario, texas) = (ms[0], ms[1], ms[2], ms[3], ms[4], ms[5]);
        assert_eq!(d.num_members(), 7); // incl. all
        assert_eq!(d.key(Member::ALL), "all");
        assert!(d.rolls_up_to(s1, ontario));
        assert!(!d.rolls_up_to(s1, texas));
        assert!(d.rolls_up_to(s1, s1), "≤ is reflexive");
        assert!(d.rolls_up_to(s2, Member::ALL));
        let city = d.schema().category_by_name("City").unwrap();
        assert_eq!(d.ancestor_in(s1, city), Some(toronto));
        assert_eq!(d.ancestor_in(s1, d.category_of(s1)), Some(s1));
    }

    #[test]
    fn rollup_mapping_is_functional() {
        let (d, _) = small();
        let store = d.schema().category_by_name("Store").unwrap();
        let region = d.schema().category_by_name("Region").unwrap();
        let gamma = d.rollup_mapping(store, region);
        assert_eq!(gamma.len(), 2);
        let mut firsts: Vec<Member> = gamma.iter().map(|&(a, _)| a).collect();
        firsts.sort();
        firsts.dedup();
        assert_eq!(firsts.len(), 2, "single-valued by C2");
    }

    #[test]
    fn ancestors_and_descendants() {
        let (d, ms) = small();
        let (s1, toronto, ontario) = (ms[0], ms[2], ms[4]);
        let a = d.ancestors(s1);
        assert_eq!(a, vec![toronto, ontario, Member::ALL]);
        let desc = d.descendants(ontario);
        assert_eq!(desc, vec![toronto, s1]);
        assert_eq!(d.descendants(Member::ALL).len(), 6);
    }

    #[test]
    fn base_members_are_store_members() {
        let (d, ms) = small();
        assert_eq!(d.base_members(), vec![ms[0], ms[1]]);
    }

    #[test]
    fn member_lookup_by_key() {
        let (d, ms) = small();
        assert_eq!(d.member_by_key("Toronto"), Some(ms[2]));
        assert_eq!(d.member_by_key("nope"), None);
        assert_eq!(d.member_by_key("all"), Some(Member::ALL));
    }

    #[test]
    fn display_mentions_members_and_links() {
        let (d, _) = small();
        let s = d.to_string();
        assert!(s.contains("Toronto < Ontario"));
        assert!(s.contains("Store: {s1, s2}"));
    }
}
