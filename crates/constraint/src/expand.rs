//! Expansion of composed path atoms.
//!
//! `c.ci` ("rolls up to `ci`") abbreviates the disjunction of all path
//! atoms with root `c` ending at `ci` (Section 3.1); `c.ci.cj` ("rolls up
//! to `cj` passing through `ci`") abbreviates the disjunction of the path
//! atoms from `c` to `cj` containing `ci`, with the degenerate cases spelled
//! out in Section 3.3. Both expand by simple-path enumeration, which is
//! finite even on cyclic schemas.

use crate::ast::Constraint;
use odc_hierarchy::{paths, Category, HierarchySchema};
use std::ops::ControlFlow;

/// Expands the composed path atom `c.ci` into the core language.
///
/// * `c == ci` → `⊤`;
/// * otherwise, the disjunction of all path atoms `c_…_ci` (an empty
///   disjunction — no simple path exists — is `⊥`).
pub fn rolls_up_to(g: &HierarchySchema, c: Category, ci: Category) -> Constraint {
    if c == ci {
        return Constraint::True;
    }
    let mut disjuncts = Vec::new();
    let _ = paths::for_each_simple_path::<()>(g, c, ci, |p| {
        disjuncts.push(Constraint::path(p.to_vec()));
        ControlFlow::Continue(())
    });
    if disjuncts.len() > 1 {
        Constraint::Or(disjuncts)
    } else {
        disjuncts.pop().unwrap_or(Constraint::False)
    }
}

/// Expands the shorthand `c.ci.cj` of Section 3.3:
///
/// * `c == ci == cj` → `⊤`;
/// * `c == cj` (and `ci ≠ cj`) → `⊥` — a member cannot roll up to its own
///   category through another one (stratification C6);
/// * `c == ci` (and `cj ≠ c`) → `c.cj` — passing through the root is just
///   rolling up;
/// * `ci == cj` (and `c ≠ ci`) → `c.ci`;
/// * otherwise the disjunction of path atoms that start at `c`, end at
///   `cj`, and contain `ci`.
pub fn rolls_up_through(
    g: &HierarchySchema,
    c: Category,
    ci: Category,
    cj: Category,
) -> Constraint {
    if c == ci && ci == cj {
        return Constraint::True;
    }
    if c == cj {
        return Constraint::False;
    }
    if c == ci {
        return rolls_up_to(g, c, cj);
    }
    if ci == cj {
        return rolls_up_to(g, c, ci);
    }
    let mut disjuncts = Vec::new();
    let _ = paths::for_each_simple_path::<()>(g, c, cj, |p| {
        if p.contains(&ci) {
            disjuncts.push(Constraint::path(p.to_vec()));
        }
        ControlFlow::Continue(())
    });
    if disjuncts.len() > 1 {
        Constraint::Or(disjuncts)
    } else {
        disjuncts.pop().unwrap_or(Constraint::False)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::PathAtom;

    /// The location schema of Figure 1(A).
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
        b.edge(province, country);
        b.edge(state, sale_region);
        b.edge(state, country);
        b.edge(sale_region, country);
        b.edge(country, Category::ALL);
        b.build().unwrap()
    }

    fn cat(g: &HierarchySchema, n: &str) -> Category {
        g.category_by_name(n).unwrap()
    }

    fn disjunct_paths(c: &Constraint) -> Vec<Vec<Category>> {
        match c {
            Constraint::Or(cs) => cs
                .iter()
                .map(|d| match d {
                    Constraint::Path(PathAtom { path }) => path.clone(),
                    other => panic!("expected path atom, got {other:?}"),
                })
                .collect(),
            Constraint::Path(PathAtom { path }) => vec![path.clone()],
            other => panic!("expected disjunction, got {other:?}"),
        }
    }

    #[test]
    fn rolls_up_to_same_category_is_true() {
        let g = location();
        let store = cat(&g, "Store");
        assert_eq!(rolls_up_to(&g, store, store), Constraint::True);
    }

    #[test]
    fn rolls_up_to_unreachable_is_false() {
        let g = location();
        assert_eq!(
            rolls_up_to(&g, cat(&g, "Country"), cat(&g, "Store")),
            Constraint::False
        );
    }

    #[test]
    fn store_country_has_six_disjuncts() {
        let g = location();
        let c = rolls_up_to(&g, cat(&g, "Store"), cat(&g, "Country"));
        assert_eq!(disjunct_paths(&c).len(), 6);
    }

    #[test]
    fn store_sale_region_example_7() {
        // Example 7: Store.SaleRegion asserts all stores roll up to
        // SaleRegion. Paths: Store→SaleRegion, Store→City→Province→SR,
        // Store→City→State→SR.
        let g = location();
        let c = rolls_up_to(&g, cat(&g, "Store"), cat(&g, "SaleRegion"));
        let paths = disjunct_paths(&c);
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().any(|p| p.len() == 2));
    }

    #[test]
    fn through_all_equal_is_true() {
        let g = location();
        let s = cat(&g, "Store");
        assert_eq!(rolls_up_through(&g, s, s, s), Constraint::True);
    }

    #[test]
    fn through_back_to_root_is_false() {
        let g = location();
        let s = cat(&g, "Store");
        let city = cat(&g, "City");
        assert_eq!(rolls_up_through(&g, s, city, s), Constraint::False);
    }

    #[test]
    fn through_root_collapses_to_rolls_up_to() {
        let g = location();
        let s = cat(&g, "Store");
        let country = cat(&g, "Country");
        assert_eq!(
            rolls_up_through(&g, s, s, country),
            rolls_up_to(&g, s, country)
        );
    }

    #[test]
    fn through_with_equal_mid_and_target() {
        let g = location();
        let s = cat(&g, "Store");
        let city = cat(&g, "City");
        assert_eq!(
            rolls_up_through(&g, s, city, city),
            rolls_up_to(&g, s, city)
        );
    }

    #[test]
    fn store_through_city_to_country() {
        // Example 10 uses Store.City.Country: the five Store→…→Country
        // paths passing through City (all but Store→SaleRegion→Country).
        let g = location();
        let c = rolls_up_through(&g, cat(&g, "Store"), cat(&g, "City"), cat(&g, "Country"));
        let paths = disjunct_paths(&c);
        assert_eq!(paths.len(), 5);
        let city = cat(&g, "City");
        assert!(paths.iter().all(|p| p.contains(&city)));
    }

    #[test]
    fn store_through_province_to_country() {
        let g = location();
        let c = rolls_up_through(
            &g,
            cat(&g, "Store"),
            cat(&g, "Province"),
            cat(&g, "Country"),
        );
        // Store→City→Province→Country, Store→City→Province→SaleRegion→Country.
        assert_eq!(disjunct_paths(&c).len(), 2);
    }

    #[test]
    fn through_disconnected_is_false() {
        let g = location();
        // No Store→…→City path passes through Country.
        let c = rolls_up_through(&g, cat(&g, "Store"), cat(&g, "Country"), cat(&g, "City"));
        assert_eq!(c, Constraint::False);
    }
}
