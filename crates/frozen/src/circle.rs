//! The circle operator `Σ ∘ g` (Definition 8).
//!
//! Given a subhierarchy `g`, every **path atom** `p` of `Σ` is replaced by
//! `⊤` if `p` is a path of `g` and by `⊥` otherwise, and every **equality
//! atom** `ci.cj ≈ k` such that there is no path from `ci` to `cj` in `g`
//! is replaced by `⊥`. What remains mentions only equality atoms over
//! categories of `g`, so candidate frozen dimensions built over the same
//! `g` can share one reduction (the point of CHECK's structure).

use odc_constraint::ast::AtomRef;
use odc_constraint::{simplify, Constraint, DimensionConstraint};
use odc_hierarchy::Subhierarchy;

/// Applies `∘ g` to a single constraint, returning the *folded* residue.
///
/// The residue contains only equality atoms (over categories reachable
/// from the constraint's root within `g`), or is `⊤`/`⊥`.
pub fn reduce_constraint(dc: &DimensionConstraint, g: &Subhierarchy) -> Constraint {
    // CHECK reduces every constraint at every complete candidate, and
    // most collapse to a constant. Decide those without building the
    // substituted tree; only a genuine residue is rebuilt and folded.
    match decide(dc.formula(), g) {
        Some(true) => return Constraint::True,
        Some(false) => return Constraint::False,
        None => {}
    }
    let substituted = simplify::substitute_atoms(dc.formula(), &mut |a| match a {
        AtomRef::Path(p) => Some(if g.is_path(&p.path) {
            Constraint::True
        } else {
            Constraint::False
        }),
        AtomRef::Eq(e) => {
            if g.has_path_between(e.root, e.cat) {
                None
            } else {
                Some(Constraint::False)
            }
        }
        // Ordered atoms (Section 6 extension) die the same way equality
        // atoms do when their category is unreachable in g.
        AtomRef::Ord(o) => {
            if g.has_path_between(o.root, o.cat) {
                None
            } else {
                Some(Constraint::False)
            }
        }
    });
    simplify::fold(&substituted)
}

/// The value of `c ∘ g` when it is a constant, in three-valued logic:
/// path atoms are decided by `g`, equality and ordered atoms over a
/// category unreachable in `g` are false, the remaining atoms are
/// unknown (`None`). Whenever this returns `Some(v)`, `simplify::fold`
/// of the substituted formula is the constant `v`: each connective
/// here is decided only in cases where `fold`'s rule for it also
/// yields a constant.
fn decide(c: &Constraint, g: &Subhierarchy) -> Option<bool> {
    let unknown_unless_reachable = |root, cat| {
        if g.has_path_between(root, cat) {
            None
        } else {
            Some(false)
        }
    };
    match c {
        Constraint::True => Some(true),
        Constraint::False => Some(false),
        Constraint::Path(p) => Some(g.is_path(&p.path)),
        Constraint::Eq(e) => unknown_unless_reachable(e.root, e.cat),
        Constraint::Ord(o) => unknown_unless_reachable(o.root, o.cat),
        Constraint::Not(x) => decide(x, g).map(|v| !v),
        Constraint::And(xs) => {
            let mut all = true;
            for x in xs {
                match decide(x, g) {
                    Some(false) => return Some(false),
                    Some(true) => {}
                    None => all = false,
                }
            }
            all.then_some(true)
        }
        Constraint::Or(xs) => {
            let mut none = true;
            for x in xs {
                match decide(x, g) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => none = false,
                }
            }
            none.then_some(false)
        }
        Constraint::Implies(a, b) => match (decide(a, g), decide(b, g)) {
            (Some(false), _) | (_, Some(true)) => Some(true),
            (Some(true), Some(false)) => Some(false),
            _ => None,
        },
        Constraint::Iff(a, b) => Some(decide(a, g)? == decide(b, g)?),
        Constraint::Xor(a, b) => Some(decide(a, g)? != decide(b, g)?),
        Constraint::ExactlyOne(xs) => {
            let (mut trues, mut unknown) = (0usize, false);
            for x in xs {
                match decide(x, g) {
                    Some(true) => trues += 1,
                    Some(false) => {}
                    None => unknown = true,
                }
            }
            if trues > 1 {
                Some(false)
            } else if unknown {
                None
            } else {
                Some(trues == 1)
            }
        }
    }
}

/// Applies `∘ g` to a whole constraint set, keeping each constraint's
/// root. (Satisfaction of the result is still root-relative: a constraint
/// whose root category is empty in a candidate frozen dimension holds
/// vacuously — see [`crate::cassign::FrozenContext::check`].)
pub fn reduce_sigma(sigma: &[&DimensionConstraint], g: &Subhierarchy) -> Vec<DimensionConstraint> {
    sigma
        .iter()
        .map(|dc| dc.with_formula(reduce_constraint(dc, g)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_constraint::parser::parse_sigma;
    use odc_constraint::printer;
    use odc_hierarchy::{Category, HierarchySchema};

    /// The locationSch hierarchy of Figure 1(A)/Figure 3.
    fn location() -> HierarchySchema {
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
        b.edge(city, country);
        b.edge(province, sale_region);
        b.edge(state, sale_region);
        b.edge(state, country);
        b.edge(sale_region, country);
        b.edge(country, Category::ALL);
        b.build().unwrap()
    }

    const LOCATION_SIGMA: &str = r#"
        Store_City
        Store.SaleRegion
        City = Washington <-> City_Country
        City = Washington -> City.Country = USA
        State.Country = Mexico | State.Country = USA
        State.Country = Mexico <-> State_SaleRegion
        Province.Country = Canada
    "#;

    fn cat(g: &HierarchySchema, n: &str) -> Category {
        g.category_by_name(n).unwrap()
    }

    /// The subhierarchy of Example 12 / Figure 5 (right): Store→City,
    /// Store→SaleRegion, City→Province, City→State, Province→SaleRegion,
    /// State→Country, SaleRegion→Country, Country→All. It contains both
    /// Province and State, no City→Country edge, and no
    /// State→SaleRegion edge.
    fn example_12_subhierarchy(g: &HierarchySchema) -> Subhierarchy {
        let mut sub = Subhierarchy::new(cat(g, "Store"), g.num_categories());
        sub.add_edge(cat(g, "Store"), cat(g, "City"));
        sub.add_edge(cat(g, "Store"), cat(g, "SaleRegion"));
        sub.add_edge(cat(g, "City"), cat(g, "Province"));
        sub.add_edge(cat(g, "City"), cat(g, "State"));
        sub.add_edge(cat(g, "Province"), cat(g, "SaleRegion"));
        sub.add_edge(cat(g, "State"), cat(g, "Country"));
        sub.add_edge(cat(g, "SaleRegion"), cat(g, "Country"));
        sub.add_edge(cat(g, "Country"), Category::ALL);
        sub
    }

    /// Figure 5: the reduced constraint set `Σ(locationSch, Store) ∘ g`.
    #[test]
    fn figure_5_reduction() {
        let g = location();
        let sigma = parse_sigma(&g, LOCATION_SIGMA).unwrap();
        let refs: Vec<&DimensionConstraint> = sigma.iter().collect();
        let sub = example_12_subhierarchy(&g);
        let reduced = reduce_sigma(&refs, &sub);
        let printed: Vec<String> = reduced
            .iter()
            .map(|dc| printer::display_dc(&g, dc).to_string())
            .collect();
        // (a) Store_City → ⊤
        assert_eq!(printed[0], "true");
        // (b) Store.SaleRegion → ⊤ (Store→SaleRegion is a path of g)
        assert_eq!(printed[1], "true");
        // (c) City ≈ Washington ≡ City_Country → City≈Washington ≡ ⊥,
        //     which folds to ¬(City ≈ Washington).
        assert_eq!(printed[2], "!(City = Washington)");
        // (d) kept verbatim: City reaches Country in g (via State).
        assert_eq!(printed[3], "City = Washington -> City.Country = USA");
        // (e) kept verbatim.
        assert_eq!(printed[4], "State.Country = Mexico | State.Country = USA");
        // (f) State.Country ≈ Mexico ≡ State_SaleRegion → ≡ ⊥ → negation.
        assert_eq!(printed[5], "!(State.Country = Mexico)");
        // (g) kept verbatim: Province reaches Country via SaleRegion.
        assert_eq!(printed[6], "Province.Country = Canada");
    }

    /// `∘ g` by rewriting alone: substitute every atom, then fold. The
    /// reference the constant shortcut in [`reduce_constraint`] must
    /// match exactly.
    fn reduce_by_rewriting(dc: &DimensionConstraint, g: &Subhierarchy) -> Constraint {
        let substituted = simplify::substitute_atoms(dc.formula(), &mut |a| match a {
            AtomRef::Path(p) => Some(if g.is_path(&p.path) {
                Constraint::True
            } else {
                Constraint::False
            }),
            AtomRef::Eq(e) => (!g.has_path_between(e.root, e.cat)).then_some(Constraint::False),
            AtomRef::Ord(o) => (!g.has_path_between(o.root, o.cat)).then_some(Constraint::False),
        });
        simplify::fold(&substituted)
    }

    /// A seeded random formula over Store-rooted atoms, with repeated
    /// subterms so that `fold`'s syntactic `φ ≡ φ` / `φ ⊕ φ` rules fire.
    fn random_formula(g: &HierarchySchema, seed: &mut u64, depth: u32) -> Constraint {
        let mut next = |n: u64| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*seed >> 33) % n
        };
        let store = cat(g, "Store");
        if depth == 0 || next(4) == 0 {
            return match next(9) {
                0 => Constraint::True,
                1 => Constraint::False,
                2 => Constraint::path(vec![store, cat(g, "City")]),
                3 => Constraint::path(vec![store, cat(g, "SaleRegion")]),
                4 => Constraint::path(vec![store, cat(g, "City"), cat(g, "Country")]),
                5 => Constraint::path(vec![store, cat(g, "City"), cat(g, "State")]),
                6 => Constraint::eq(store, cat(g, "City"), "Washington"),
                7 => Constraint::eq(store, cat(g, "Province"), "Ontario"),
                _ => Constraint::eq(store, cat(g, "Country"), "USA"),
            };
        }
        let op = next(9);
        let width = 2 + next(2) as usize;
        let sub = |seed: &mut u64| random_formula(g, seed, depth - 1);
        match op {
            0 => Constraint::not(sub(seed)),
            1 => Constraint::And((0..width).map(|_| sub(seed)).collect()),
            2 => Constraint::Or((0..width).map(|_| sub(seed)).collect()),
            3 => Constraint::implies(sub(seed), sub(seed)),
            4 => Constraint::iff(sub(seed), sub(seed)),
            5 => Constraint::xor(sub(seed), sub(seed)),
            6 => Constraint::ExactlyOne((0..width).map(|_| sub(seed)).collect()),
            7 => {
                let x = sub(seed);
                Constraint::iff(x.clone(), x)
            }
            _ => {
                let x = sub(seed);
                Constraint::xor(x.clone(), x)
            }
        }
    }

    #[test]
    fn constant_shortcut_agrees_with_rewriting() {
        let g = location();
        let full = example_12_subhierarchy(&g);
        let mut no_province = Subhierarchy::new(cat(&g, "Store"), g.num_categories());
        no_province.add_edge(cat(&g, "Store"), cat(&g, "City"));
        no_province.add_edge(cat(&g, "City"), cat(&g, "Country"));
        no_province.add_edge(cat(&g, "Country"), Category::ALL);
        let mut seed = 7u64;
        let mut constants = 0;
        for _ in 0..3000 {
            let f = random_formula(&g, &mut seed, 4);
            let dc = DimensionConstraint::new(cat(&g, "Store"), f);
            for sub in [&full, &no_province] {
                let fast = reduce_constraint(&dc, sub);
                assert_eq!(fast, reduce_by_rewriting(&dc, sub), "{:?}", dc.formula());
                constants += matches!(fast, Constraint::True | Constraint::False) as usize;
            }
        }
        assert!(constants > 100, "too few constant reductions: {constants}");
    }

    #[test]
    fn equality_atom_over_absent_category_dies() {
        let g = location();
        let sigma = parse_sigma(&g, "Store.Province = Ontario\n").unwrap();
        // Subhierarchy without Province.
        let mut sub = Subhierarchy::new(cat(&g, "Store"), g.num_categories());
        sub.add_edge(cat(&g, "Store"), cat(&g, "SaleRegion"));
        sub.add_edge(cat(&g, "SaleRegion"), cat(&g, "Country"));
        sub.add_edge(cat(&g, "Country"), Category::ALL);
        let reduced = reduce_constraint(&sigma[0], &sub);
        assert_eq!(reduced, Constraint::False);
    }

    #[test]
    fn reflexive_equality_atom_survives() {
        let g = location();
        let sigma = parse_sigma(&g, "City = Washington\n").unwrap();
        let mut sub = Subhierarchy::new(cat(&g, "City"), g.num_categories());
        sub.add_edge(cat(&g, "City"), cat(&g, "Country"));
        sub.add_edge(cat(&g, "Country"), Category::ALL);
        // City reaches City trivially, so the atom survives.
        let reduced = reduce_constraint(&sigma[0], &sub);
        assert!(matches!(reduced, Constraint::Eq(_)));
    }

    #[test]
    fn path_atom_truth_requires_exact_edges() {
        let g = location();
        let sigma = parse_sigma(&g, "Store_City_State_Country\n").unwrap();
        // g has Store→City and City→State but State→Country missing.
        let mut sub = Subhierarchy::new(cat(&g, "Store"), g.num_categories());
        sub.add_edge(cat(&g, "Store"), cat(&g, "City"));
        sub.add_edge(cat(&g, "City"), cat(&g, "State"));
        sub.add_edge(cat(&g, "State"), cat(&g, "SaleRegion"));
        sub.add_edge(cat(&g, "SaleRegion"), cat(&g, "Country"));
        sub.add_edge(cat(&g, "Country"), Category::ALL);
        assert_eq!(reduce_constraint(&sigma[0], &sub), Constraint::False);
        let mut sub2 = sub.clone();
        sub2.add_edge(cat(&g, "State"), cat(&g, "Country"));
        assert_eq!(reduce_constraint(&sigma[0], &sub2), Constraint::True);
    }
}
