//! The hierarchy schema graph `G = (C, ↗)` of Definition 1.

use crate::catset::CatSet;
use crate::error::SchemaError;
use crate::symbols::Interner;
use std::fmt;

/// A handle for a category of a [`HierarchySchema`].
///
/// Handles are dense indices into the schema's category table; `All` is
/// always index `0`. A `Category` is only meaningful together with the
/// schema that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Category(u32);

impl Category {
    /// The distinguished top category `All` (always index 0).
    pub const ALL: Category = Category(0);

    /// Builds a handle from a raw index. Intended for data structures that
    /// store categories densely (e.g. [`CatSet`]); prefer obtaining handles
    /// from a builder or schema.
    #[inline]
    #[allow(
        clippy::expect_used,
        reason = "indices come from a schema's dense category table, far below 2^32"
    )]
    pub fn from_index(i: usize) -> Category {
        Category(u32::try_from(i).expect("category index overflow"))
    }

    /// The raw dense index of this category.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the `All` category.
    #[inline]
    pub fn is_all(self) -> bool {
        self.0 == 0
    }
}

/// A validated hierarchy schema (Definition 1).
///
/// Construction goes through [`HierarchySchemaBuilder`], which checks:
/// no self-loops, no duplicate names, no edges out of `All`, and that every
/// category reaches `All`. Cycles between distinct categories and shortcut
/// edges are *allowed* — they are what make heterogeneous modeling possible
/// (Examples 3–4 of the paper).
#[derive(Debug, Clone)]
pub struct HierarchySchema {
    names: Interner,
    /// `up[c]`: the categories `c'` with `c ↗ c'`, in insertion order.
    up: Vec<Vec<Category>>,
    /// `down[c]`: the categories `c'` with `c' ↗ c`, in insertion order.
    down: Vec<Vec<Category>>,
    /// `reach[c]`: the set `{c' | c ↗* c'}` (reflexive–transitive closure).
    reach: Vec<CatSet>,
}

impl HierarchySchema {
    /// Starts building a schema. The `All` category exists from the start.
    pub fn builder() -> HierarchySchemaBuilder {
        HierarchySchemaBuilder::new()
    }

    /// Number of categories, including `All`.
    pub fn num_categories(&self) -> usize {
        self.up.len()
    }

    /// Iterates over all categories (including `All`), in creation order.
    pub fn categories(&self) -> impl Iterator<Item = Category> {
        (0..self.num_categories()).map(Category::from_index)
    }

    /// The name of a category.
    pub fn name(&self, c: Category) -> &str {
        self.names.resolve(c.0)
    }

    /// Looks a category up by name.
    pub fn category_by_name(&self, name: &str) -> Option<Category> {
        self.names.get(name).map(Category)
    }

    /// The direct parents of `c` (the categories `c'` with `c ↗ c'`).
    pub fn parents(&self, c: Category) -> &[Category] {
        &self.up[c.index()]
    }

    /// The direct children of `c` (the categories `c'` with `c' ↗ c`).
    pub fn children(&self, c: Category) -> &[Category] {
        &self.down[c.index()]
    }

    /// Whether the edge `c ↗ c'` is in the schema.
    pub fn has_edge(&self, c: Category, parent: Category) -> bool {
        self.up[c.index()].contains(&parent)
    }

    /// Whether `c ↗* c'` (reflexive–transitive closure).
    pub fn reaches(&self, c: Category, c2: Category) -> bool {
        self.reach[c.index()].contains(c2)
    }

    /// The full set `{c' | c ↗* c'}`.
    pub fn reachable_from(&self, c: Category) -> &CatSet {
        &self.reach[c.index()]
    }

    /// The bottom categories: those with no incoming edge.
    pub fn bottom_categories(&self) -> Vec<Category> {
        self.categories()
            .filter(|&c| self.down[c.index()].is_empty() && !c.is_all() || self.is_isolated_all(c))
            .collect()
    }

    fn is_isolated_all(&self, c: Category) -> bool {
        // Degenerate schema consisting only of `All`: then `All` itself is
        // the (empty-hierarchy) bottom. Real schemas never hit this.
        c.is_all() && self.num_categories() == 1
    }

    /// All edges `(child, parent)` of the schema, grouped by child.
    pub fn edges(&self) -> impl Iterator<Item = (Category, Category)> + '_ {
        self.categories()
            .flat_map(move |c| self.up[c.index()].iter().map(move |&p| (c, p)))
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.up.iter().map(Vec::len).sum()
    }

    /// Whether the edge `c ↗ c'` is a *shortcut* (there is also a path from
    /// `c` to `c'` through some third category — see Example 3).
    pub fn is_shortcut_edge(&self, c: Category, parent: Category) -> bool {
        if !self.has_edge(c, parent) {
            return false;
        }
        // A simple path c → m →* parent with m ∉ {c, parent}, avoiding c
        // (it could not revisit c and stay simple).
        let mut avoid = CatSet::new(self.num_categories());
        avoid.insert(c);
        self.up[c.index()]
            .iter()
            .filter(|&&m| m != parent && m != c)
            .any(|&m| crate::paths::has_path_avoiding(self, m, parent, &avoid))
    }

    /// All shortcut pairs `(c, c')` of the schema.
    pub fn shortcuts(&self) -> Vec<(Category, Category)> {
        self.edges()
            .filter(|&(c, p)| self.is_shortcut_edge(c, p))
            .collect()
    }

    /// Whether the schema graph (ignoring edge directions' reflexivity)
    /// contains a directed cycle among distinct categories.
    pub fn has_cycle(&self) -> bool {
        // A cycle exists iff some pair of distinct categories reach each
        // other.
        self.categories().any(|c| {
            self.reach[c.index()]
                .iter()
                .any(|c2| c2 != c && self.reach[c2.index()].contains(c))
        })
    }

    /// Whether the exact category sequence `seq` is a path in the schema
    /// (every consecutive pair is an edge).
    pub fn is_path(&self, seq: &[Category]) -> bool {
        seq.windows(2).all(|w| self.has_edge(w[0], w[1]))
    }

    /// Whether `seq` is a *simple* path (a path without repeated
    /// categories), which is what path atoms range over (Definition 3).
    pub fn is_simple_path(&self, seq: &[Category]) -> bool {
        if !self.is_path(seq) {
            return false;
        }
        let mut seen = CatSet::new(self.num_categories());
        seq.iter().all(|&c| seen.insert(c))
    }
}

impl fmt::Display for HierarchySchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "hierarchy schema ({} categories):",
            self.num_categories()
        )?;
        for c in self.categories() {
            let parents: Vec<&str> = self.parents(c).iter().map(|&p| self.name(p)).collect();
            writeln!(f, "  {} ↗ {{{}}}", self.name(c), parents.join(", "))?;
        }
        Ok(())
    }
}

/// Incremental builder for [`HierarchySchema`].
#[derive(Debug, Default)]
pub struct HierarchySchemaBuilder {
    names: Interner,
    up: Vec<Vec<Category>>,
    errors: Vec<SchemaError>,
}

impl HierarchySchemaBuilder {
    /// Creates a builder containing only the `All` category.
    pub fn new() -> Self {
        let mut b = HierarchySchemaBuilder {
            names: Interner::new(),
            up: Vec::new(),
            errors: Vec::new(),
        };
        let all = b.names.intern("All");
        debug_assert_eq!(all, 0);
        b.up.push(Vec::new());
        b
    }

    /// The `All` category handle.
    pub fn all(&self) -> Category {
        Category::ALL
    }

    /// Adds (or retrieves) a category named `name`.
    ///
    /// Declaring the same name twice returns the same handle; declaring a
    /// category named `All` returns the top category.
    pub fn category(&mut self, name: &str) -> Category {
        let before = self.names.len();
        let sym = self.names.intern(name);
        if (sym as usize) == before {
            self.up.push(Vec::new());
        }
        Category(sym)
    }

    /// Adds the edge `child ↗ parent`. Duplicate edges are ignored.
    pub fn edge(&mut self, child: Category, parent: Category) -> &mut Self {
        if child.index() >= self.up.len() || parent.index() >= self.up.len() {
            self.errors.push(SchemaError::UnknownCategory {
                index: child.index().max(parent.index()),
            });
            return self;
        }
        if child == parent {
            self.errors.push(SchemaError::SelfLoop {
                category: self.names.resolve(child.0).to_string(),
            });
            return self;
        }
        if child.is_all() {
            self.errors.push(SchemaError::EdgeFromAll {
                to: self.names.resolve(parent.0).to_string(),
            });
            return self;
        }
        if !self.up[child.index()].contains(&parent) {
            self.up[child.index()].push(parent);
        }
        self
    }

    /// Convenience: adds the edge `child ↗ All`.
    pub fn edge_to_all(&mut self, child: Category) -> &mut Self {
        self.edge(child, Category::ALL)
    }

    /// Adds a linear chain of edges `c0 ↗ c1 ↗ … ↗ cn`.
    pub fn chain(&mut self, cats: &[Category]) -> &mut Self {
        for w in cats.windows(2) {
            self.edge(w[0], w[1]);
        }
        self
    }

    /// Validates and freezes the schema.
    pub fn build(self) -> Result<HierarchySchema, SchemaError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let n = self.up.len();
        let mut down: Vec<Vec<Category>> = vec![Vec::new(); n];
        for (ci, ups) in self.up.iter().enumerate() {
            for &p in ups {
                down[p.index()].push(Category::from_index(ci));
            }
        }
        // Reflexive–transitive closure via BFS from each category. Schemas
        // are small (N ≤ a few hundred), so O(N·E) is fine.
        let mut reach: Vec<CatSet> = Vec::with_capacity(n);
        for c in 0..n {
            let mut set = CatSet::new(n);
            let mut stack = vec![Category::from_index(c)];
            while let Some(x) = stack.pop() {
                if set.insert(x) {
                    stack.extend(self.up[x.index()].iter().copied());
                }
            }
            reach.push(set);
        }
        // Every category must reach All (Definition 1(a)).
        #[allow(clippy::needless_range_loop)]
        for c in 0..n {
            if !reach[c].contains(Category::ALL) {
                return Err(SchemaError::AllUnreachable {
                    category: self.names.resolve(c as u32).to_string(),
                });
            }
        }
        Ok(HierarchySchema {
            names: self.names,
            up: self.up,
            down,
            reach,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `location` hierarchy schema of Figure 1(A).
    pub(crate) fn location_schema() -> HierarchySchema {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let province = b.category("Province");
        let state = b.category("State");
        let sale_region = b.category("SaleRegion");
        let country = b.category("Country");
        b.edge(store, city);
        b.edge(store, sale_region);
        b.edge(city, province);
        b.edge(city, state);
        b.edge(city, country); // the Washington shortcut
        b.edge(province, sale_region);
        b.edge(province, country);
        b.edge(state, sale_region);
        b.edge(state, country);
        b.edge(sale_region, country);
        b.edge(country, Category::ALL);
        b.build().unwrap()
    }

    #[test]
    fn all_is_index_zero() {
        let g = location_schema();
        assert_eq!(g.category_by_name("All"), Some(Category::ALL));
        assert!(Category::ALL.is_all());
        assert_eq!(g.name(Category::ALL), "All");
    }

    #[test]
    fn location_basic_shape() {
        let g = location_schema();
        assert_eq!(g.num_categories(), 7);
        assert_eq!(g.num_edges(), 11);
        let store = g.category_by_name("Store").unwrap();
        let country = g.category_by_name("Country").unwrap();
        assert_eq!(g.bottom_categories(), vec![store]);
        assert!(g.reaches(store, country));
        assert!(g.reaches(store, Category::ALL));
        assert!(!g.reaches(country, store));
        assert!(g.reaches(store, store), "closure is reflexive");
    }

    #[test]
    fn city_country_is_a_shortcut() {
        let g = location_schema();
        let city = g.category_by_name("City").unwrap();
        let country = g.category_by_name("Country").unwrap();
        let state = g.category_by_name("State").unwrap();
        assert!(g.is_shortcut_edge(city, country), "Example 3 of the paper");
        // State ↗ Country is also a shortcut: State → SaleRegion → Country.
        assert!(g.is_shortcut_edge(state, country));
        let store = g.category_by_name("Store").unwrap();
        let sale_region = g.category_by_name("SaleRegion").unwrap();
        // Store ↗ SaleRegion is not: the only other routes go via City,
        // which reaches SaleRegion — so it *is* one too. But City ↗ State
        // is not a shortcut (no longer City→…→State path exists).
        assert!(g.is_shortcut_edge(store, sale_region));
        assert!(!g.is_shortcut_edge(city, state));
        let shortcuts = g.shortcuts();
        assert!(shortcuts.contains(&(city, country)));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = HierarchySchema::builder();
        let c = b.category("C");
        b.edge(c, c);
        b.edge_to_all(c);
        assert!(matches!(b.build(), Err(SchemaError::SelfLoop { .. })));
    }

    #[test]
    fn unreachable_all_rejected() {
        let mut b = HierarchySchema::builder();
        let a = b.category("A");
        let bb = b.category("B");
        // Cycle A ↗ B ↗ A with no way up to All.
        b.edge(a, bb);
        b.edge(bb, a);
        assert!(matches!(b.build(), Err(SchemaError::AllUnreachable { .. })));
    }

    #[test]
    fn edge_from_all_rejected() {
        let mut b = HierarchySchema::builder();
        let a = b.category("A");
        let all = b.all();
        b.edge(all, a);
        b.edge_to_all(a);
        assert!(matches!(b.build(), Err(SchemaError::EdgeFromAll { .. })));
    }

    #[test]
    fn cycles_between_distinct_categories_allowed() {
        // Example 4: SaleDistrict ↗ City ↗ SaleDistrict.
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let district = b.category("SaleDistrict");
        let city = b.category("City");
        b.edge(store, district);
        b.edge(store, city);
        b.edge(district, city);
        b.edge(city, district);
        b.edge_to_all(district);
        b.edge_to_all(city);
        let g = b.build().unwrap();
        assert!(g.has_cycle());
        assert!(g.reaches(district, city) && g.reaches(city, district));
    }

    #[test]
    fn location_has_no_cycle() {
        assert!(!location_schema().has_cycle());
    }

    #[test]
    fn duplicate_category_returns_same_handle() {
        let mut b = HierarchySchema::builder();
        let a1 = b.category("A");
        let a2 = b.category("A");
        assert_eq!(a1, a2);
    }

    #[test]
    fn is_path_and_simple_path() {
        let g = location_schema();
        let store = g.category_by_name("Store").unwrap();
        let city = g.category_by_name("City").unwrap();
        let province = g.category_by_name("Province").unwrap();
        let country = g.category_by_name("Country").unwrap();
        assert!(g.is_path(&[store, city, province, country]));
        assert!(g.is_simple_path(&[store, city, province, country]));
        assert!(!g.is_path(&[store, province]));
        assert!(g.is_simple_path(&[store]));
        assert!(g.is_simple_path(&[]));
    }

    #[test]
    fn chain_builds_linear_edges() {
        let mut b = HierarchySchema::builder();
        let x = b.category("X");
        let y = b.category("Y");
        let z = b.category("Z");
        let all = b.all();
        b.chain(&[x, y, z, all]);
        let g = b.build().unwrap();
        assert!(g.has_edge(x, y) && g.has_edge(y, z) && g.has_edge(z, all));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn display_lists_all_categories() {
        let g = location_schema();
        let s = g.to_string();
        assert!(s.contains("Store") && s.contains("SaleRegion"));
    }

    #[test]
    fn degenerate_all_only_schema() {
        let g = HierarchySchema::builder().build().unwrap();
        assert_eq!(g.num_categories(), 1);
        assert_eq!(g.bottom_categories(), vec![Category::ALL]);
    }
}
