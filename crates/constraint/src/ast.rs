//! The constraint AST (Definition 3).

use odc_hierarchy::{Category, HierarchySchema};

/// A path atom `c_c1_…_cn`: the rooted member has a chain of direct
/// parents through exactly the categories `c1 … cn`.
///
/// The stored `path` includes the root as its first element, so it always
/// has length ≥ 2 and must be a simple path of the schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathAtom {
    /// `path[0]` is the root category; the atom asserts direct links
    /// through `path[1..]` in order.
    pub path: Vec<Category>,
}

impl PathAtom {
    /// Builds a path atom; `path` must include the root first.
    pub fn new(path: Vec<Category>) -> Self {
        assert!(path.len() >= 2, "a path atom needs a root and ≥1 step");
        PathAtom { path }
    }

    /// The root category.
    pub fn root(&self) -> Category {
        self.path[0]
    }

    /// The final category of the path.
    #[allow(clippy::unwrap_used, reason = "`PathAtom::new` asserts a non-empty path")]
    pub fn target(&self) -> Category {
        *self.path.last().unwrap()
    }

    /// Whether this atom is an *into* atom `c_c'` (single step): the basis
    /// of DIMSAT's pruning heuristic (Section 5).
    pub fn is_into(&self) -> bool {
        self.path.len() == 2
    }

    /// Checks that the category sequence is a simple path of `g`
    /// (required by Definition 3).
    pub fn is_well_formed(&self, g: &HierarchySchema) -> bool {
        g.is_simple_path(&self.path)
    }
}

/// An equality atom `c.ci ≈ k`: the rooted member has an ancestor in `ci`
/// whose `Name` equals the constant `k`. When `ci == c` this is the
/// abbreviation `c ≈ k` (`Name(x) = k`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EqAtom {
    /// The root category `c`.
    pub root: Category,
    /// The ancestor category `ci` (may equal `root`).
    pub cat: Category,
    /// The constant `k`.
    pub value: String,
}

impl EqAtom {
    /// Builds an equality atom.
    pub fn new(root: Category, cat: Category, value: impl Into<String>) -> Self {
        EqAtom {
            root,
            cat,
            value: value.into(),
        }
    }

    /// An equality atom is well-formed whenever its categories belong to
    /// the schema; the paper places no reachability restriction on `ci`
    /// (an unreachable `ci` simply makes the atom false in every
    /// instance).
    pub fn is_well_formed(&self, g: &HierarchySchema) -> bool {
        self.root.index() < g.num_categories() && self.cat.index() < g.num_categories()
    }
}

/// Comparison operators for ordered atoms (the Section 6 extension:
/// "further built-in predicates over attributes, such as an order
/// relation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// The textual symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// An ordered atom `c.ci < k` (Section 6 extension): the rooted member
/// has an ancestor in `ci` whose `Name`, read as an integer, satisfies
/// the comparison. Ancestors with non-numeric names never satisfy an
/// ordered atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrdAtom {
    /// The root category `c`.
    pub root: Category,
    /// The ancestor category `ci` (may equal `root`).
    pub cat: Category,
    /// The comparison operator.
    pub op: CmpOp,
    /// The threshold constant `k`.
    pub value: i64,
}

impl OrdAtom {
    /// Builds an ordered atom.
    pub fn new(root: Category, cat: Category, op: CmpOp, value: i64) -> Self {
        OrdAtom {
            root,
            cat,
            op,
            value,
        }
    }

    /// Well-formed whenever the categories belong to the schema, like
    /// equality atoms.
    pub fn is_well_formed(&self, g: &HierarchySchema) -> bool {
        self.root.index() < g.num_categories() && self.cat.index() < g.num_categories()
    }
}

/// A Boolean combination of atoms (the body of a dimension constraint).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// `⊤`
    True,
    /// `⊥`
    False,
    /// A path atom.
    Path(PathAtom),
    /// An equality atom.
    Eq(EqAtom),
    /// An ordered atom (Section 6 extension).
    Ord(OrdAtom),
    /// `¬φ`
    Not(Box<Constraint>),
    /// `φ1 ∧ … ∧ φn` (empty conjunction = ⊤).
    And(Vec<Constraint>),
    /// `φ1 ∨ … ∨ φn` (empty disjunction = ⊥).
    Or(Vec<Constraint>),
    /// `φ ⊃ ψ`
    Implies(Box<Constraint>, Box<Constraint>),
    /// `φ ≡ ψ`
    Iff(Box<Constraint>, Box<Constraint>),
    /// `φ ⊕ ψ`
    Xor(Box<Constraint>, Box<Constraint>),
    /// `⊙{φ1, …, φn}`: exactly one of the constraints is true.
    ExactlyOne(Vec<Constraint>),
}

impl Constraint {
    /// Convenience constructor for `¬φ`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(c: Constraint) -> Constraint {
        Constraint::Not(Box::new(c))
    }

    /// Convenience constructor for `φ ⊃ ψ`.
    pub fn implies(a: Constraint, b: Constraint) -> Constraint {
        Constraint::Implies(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for `φ ≡ ψ`.
    pub fn iff(a: Constraint, b: Constraint) -> Constraint {
        Constraint::Iff(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for `φ ⊕ ψ`.
    pub fn xor(a: Constraint, b: Constraint) -> Constraint {
        Constraint::Xor(Box::new(a), Box::new(b))
    }

    /// A path atom from a category sequence (root first).
    pub fn path(path: Vec<Category>) -> Constraint {
        Constraint::Path(PathAtom::new(path))
    }

    /// An equality atom.
    pub fn eq(root: Category, cat: Category, value: impl Into<String>) -> Constraint {
        Constraint::Eq(EqAtom::new(root, cat, value))
    }

    /// An ordered atom.
    pub fn ord(root: Category, cat: Category, op: CmpOp, value: i64) -> Constraint {
        Constraint::Ord(OrdAtom::new(root, cat, op, value))
    }

    /// Visits every atom (path and equality) in the formula.
    pub fn for_each_atom<'a>(&'a self, f: &mut impl FnMut(AtomRef<'a>)) {
        match self {
            Constraint::True | Constraint::False => {}
            Constraint::Path(p) => f(AtomRef::Path(p)),
            Constraint::Eq(e) => f(AtomRef::Eq(e)),
            Constraint::Ord(o) => f(AtomRef::Ord(o)),
            Constraint::Not(c) => c.for_each_atom(f),
            Constraint::And(cs) | Constraint::Or(cs) | Constraint::ExactlyOne(cs) => {
                for c in cs {
                    c.for_each_atom(f);
                }
            }
            Constraint::Implies(a, b) | Constraint::Iff(a, b) | Constraint::Xor(a, b) => {
                a.for_each_atom(f);
                b.for_each_atom(f);
            }
        }
    }

    /// The common root of the atoms in the formula, if the formula has
    /// atoms and they agree; `Ok(None)` for purely propositional formulas;
    /// `Err` with two clashing roots otherwise.
    pub fn infer_root(&self) -> Result<Option<Category>, (Category, Category)> {
        let mut root: Option<Category> = None;
        let mut clash: Option<(Category, Category)> = None;
        self.for_each_atom(&mut |a| {
            let r = match a {
                AtomRef::Path(p) => p.root(),
                AtomRef::Eq(e) => e.root,
                AtomRef::Ord(o) => o.root,
            };
            match root {
                None => root = Some(r),
                Some(prev) if prev != r && clash.is_none() => clash = Some((prev, r)),
                _ => {}
            }
        });
        match clash {
            Some(c) => Err(c),
            None => Ok(root),
        }
    }

    /// Whether the formula contains any path atom.
    pub fn has_path_atoms(&self) -> bool {
        let mut found = false;
        self.for_each_atom(&mut |a| {
            if matches!(a, AtomRef::Path(_)) {
                found = true;
            }
        });
        found
    }

    /// Number of atom occurrences (used for `N_Σ` size accounting).
    pub fn num_atoms(&self) -> usize {
        let mut n = 0;
        self.for_each_atom(&mut |_| n += 1);
        n
    }

    /// Structural size of the formula (atoms + connectives), the `N_Σ`
    /// measure of Proposition 4.
    pub fn size(&self) -> usize {
        match self {
            Constraint::True
            | Constraint::False
            | Constraint::Path(_)
            | Constraint::Eq(_)
            | Constraint::Ord(_) => 1,
            Constraint::Not(c) => 1 + c.size(),
            Constraint::And(cs) | Constraint::Or(cs) | Constraint::ExactlyOne(cs) => {
                1 + cs.iter().map(Constraint::size).sum::<usize>()
            }
            Constraint::Implies(a, b) | Constraint::Iff(a, b) | Constraint::Xor(a, b) => {
                1 + a.size() + b.size()
            }
        }
    }

    /// Whether every atom of the formula is well-formed w.r.t. `g`.
    pub fn is_well_formed(&self, g: &HierarchySchema) -> bool {
        let mut ok = true;
        self.for_each_atom(&mut |a| {
            ok &= match a {
                AtomRef::Path(p) => p.is_well_formed(g),
                AtomRef::Eq(e) => e.is_well_formed(g),
                AtomRef::Ord(o) => o.is_well_formed(g),
            };
        });
        ok
    }
}

/// A borrowed reference to either kind of atom.
#[derive(Debug, Clone, Copy)]
pub enum AtomRef<'a> {
    /// A path atom.
    Path(&'a PathAtom),
    /// An equality atom.
    Eq(&'a EqAtom),
    /// An ordered atom.
    Ord(&'a OrdAtom),
}

/// A dimension constraint: a formula together with its root category
/// (Definition 3 requires `root ≠ All`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionConstraint {
    root: Category,
    formula: Constraint,
}

impl DimensionConstraint {
    /// Wraps `formula` with an explicit root.
    ///
    /// # Panics
    /// Panics if the formula contains an atom rooted elsewhere, or if the
    /// root is `All`.
    #[allow(clippy::panic, reason = "a documented precondition, like the asserts beside it")]
    pub fn new(root: Category, formula: Constraint) -> Self {
        assert!(
            !root.is_all(),
            "dimension constraints cannot be rooted at All"
        );
        if let Err((a, b)) = formula.infer_root() {
            panic!("constraint mixes roots {a:?} and {b:?}");
        }
        if let Ok(Some(r)) = formula.infer_root() {
            assert_eq!(r, root, "formula atoms are rooted at a different category");
        }
        DimensionConstraint { root, formula }
    }

    /// Wraps a formula, inferring the root from its atoms.
    ///
    /// Fails (returns `None`) when the formula has no atoms or mixes
    /// roots.
    pub fn from_formula(formula: Constraint) -> Option<Self> {
        match formula.infer_root() {
            Ok(Some(root)) if !root.is_all() => Some(DimensionConstraint { root, formula }),
            _ => None,
        }
    }

    /// The root category.
    pub fn root(&self) -> Category {
        self.root
    }

    /// The formula body.
    pub fn formula(&self) -> &Constraint {
        &self.formula
    }

    /// Consumes the constraint, returning its formula.
    pub fn into_formula(self) -> Constraint {
        self.formula
    }

    /// Whether this is an *into* constraint: a bare path atom `c_c'`
    /// (Section 5: "all the members of c have a parent in c'").
    pub fn as_into(&self) -> Option<(Category, Category)> {
        match &self.formula {
            Constraint::Path(p) if p.is_into() => Some((p.path[0], p.path[1])),
            _ => None,
        }
    }

    /// Whether this is a *forbidden-into* constraint `¬(c_c')`: no member
    /// of `c` may have a parent in `c'` (the dual of [`Self::as_into`],
    /// used by DIMSAT to rule the edge out of every expansion).
    pub fn as_forbidden_into(&self) -> Option<(Category, Category)> {
        match &self.formula {
            Constraint::Not(inner) => match &**inner {
                Constraint::Path(p) if p.is_into() => Some((p.path[0], p.path[1])),
                _ => None,
            },
            _ => None,
        }
    }

    /// Replaces the formula, keeping the root.
    pub fn with_formula(&self, formula: Constraint) -> DimensionConstraint {
        DimensionConstraint {
            root: self.root,
            formula,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_hierarchy::HierarchySchema;

    fn schema() -> (HierarchySchema, Category, Category, Category) {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let country = b.category("Country");
        b.edge(store, city);
        b.edge(city, country);
        b.edge_to_all(country);
        let g = b.build().unwrap();
        (g, store, city, country)
    }

    #[test]
    fn path_atom_accessors() {
        let (_g, store, city, country) = schema();
        let p = PathAtom::new(vec![store, city, country]);
        assert_eq!(p.root(), store);
        assert_eq!(p.target(), country);
        assert!(!p.is_into());
        assert!(PathAtom::new(vec![store, city]).is_into());
    }

    #[test]
    fn path_atom_well_formedness() {
        let (g, store, city, country) = schema();
        assert!(PathAtom::new(vec![store, city, country]).is_well_formed(&g));
        assert!(!PathAtom::new(vec![store, country]).is_well_formed(&g));
        // Repeated category → not simple.
        assert!(!PathAtom::new(vec![store, city, city]).is_well_formed(&g));
    }

    #[test]
    fn infer_root_agrees_and_clashes() {
        let (_g, store, city, country) = schema();
        let f = Constraint::implies(
            Constraint::eq(store, country, "Canada"),
            Constraint::path(vec![store, city]),
        );
        assert_eq!(f.infer_root(), Ok(Some(store)));
        let clash = Constraint::And(vec![
            Constraint::path(vec![store, city]),
            Constraint::path(vec![city, country]),
        ]);
        assert!(clash.infer_root().is_err());
        assert_eq!(Constraint::True.infer_root(), Ok(None));
    }

    #[test]
    fn dimension_constraint_from_formula() {
        let (_g, store, city, _) = schema();
        let f = Constraint::path(vec![store, city]);
        let dc = DimensionConstraint::from_formula(f).unwrap();
        assert_eq!(dc.root(), store);
        assert_eq!(dc.as_into(), Some((store, city)));
    }

    #[test]
    fn explicit_root_for_propositional_formula() {
        let (_g, store, ..) = schema();
        let dc = DimensionConstraint::new(store, Constraint::True);
        assert_eq!(dc.root(), store);
        assert_eq!(dc.as_into(), None);
    }

    #[test]
    #[should_panic(expected = "rooted at All")]
    fn all_root_rejected() {
        DimensionConstraint::new(Category::ALL, Constraint::True);
    }

    #[test]
    #[should_panic(expected = "different category")]
    fn mismatched_root_rejected() {
        let (_g, store, city, _) = schema();
        DimensionConstraint::new(city, Constraint::path(vec![store, city]));
    }

    #[test]
    fn size_and_atom_counts() {
        let (_g, store, city, country) = schema();
        let f = Constraint::implies(
            Constraint::eq(store, country, "Canada"),
            Constraint::And(vec![
                Constraint::path(vec![store, city]),
                Constraint::not(Constraint::path(vec![store, city, country])),
            ]),
        );
        assert_eq!(f.num_atoms(), 3);
        assert_eq!(f.size(), 6); // implies + eq + and + path + not + path
        assert!(f.has_path_atoms());
        assert!(!Constraint::eq(store, country, "x").has_path_atoms());
    }

    #[test]
    fn exactly_one_holds_atoms() {
        let (_g, store, city, country) = schema();
        let f = Constraint::ExactlyOne(vec![
            Constraint::path(vec![store, city]),
            Constraint::path(vec![store, city, country]),
        ]);
        assert_eq!(f.num_atoms(), 2);
        assert_eq!(f.infer_root(), Ok(Some(store)));
    }
}
