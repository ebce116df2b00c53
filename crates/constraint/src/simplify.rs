//! Constraint simplification: atom substitution, constant folding, and
//! negation normal form.
//!
//! The circle operator `Σ ∘ g` (Definition 8) replaces path atoms by truth
//! values and kills equality atoms over unreachable categories; what
//! remains is folded so that CHECK's c-assignment search evaluates the
//! smallest possible residue.

use crate::ast::{AtomRef, Constraint};

/// Replaces atoms by other constraints (usually `⊤`/`⊥`). `f` returns
/// `None` to keep an atom unchanged. The result is *not* folded; call
/// [`fold`] afterwards.
pub fn substitute_atoms(
    c: &Constraint,
    f: &mut impl FnMut(AtomRef<'_>) -> Option<Constraint>,
) -> Constraint {
    match c {
        Constraint::True => Constraint::True,
        Constraint::False => Constraint::False,
        Constraint::Path(p) => f(AtomRef::Path(p)).unwrap_or_else(|| Constraint::Path(p.clone())),
        Constraint::Eq(e) => f(AtomRef::Eq(e)).unwrap_or_else(|| Constraint::Eq(e.clone())),
        Constraint::Ord(o) => f(AtomRef::Ord(o)).unwrap_or_else(|| Constraint::Ord(o.clone())),
        Constraint::Not(x) => Constraint::not(substitute_atoms(x, f)),
        Constraint::And(xs) => Constraint::And(xs.iter().map(|x| substitute_atoms(x, f)).collect()),
        Constraint::Or(xs) => Constraint::Or(xs.iter().map(|x| substitute_atoms(x, f)).collect()),
        Constraint::Implies(a, b) => {
            Constraint::implies(substitute_atoms(a, f), substitute_atoms(b, f))
        }
        Constraint::Iff(a, b) => Constraint::iff(substitute_atoms(a, f), substitute_atoms(b, f)),
        Constraint::Xor(a, b) => Constraint::xor(substitute_atoms(a, f), substitute_atoms(b, f)),
        Constraint::ExactlyOne(xs) => {
            Constraint::ExactlyOne(xs.iter().map(|x| substitute_atoms(x, f)).collect())
        }
    }
}

/// Recursively folds constants and flattens nested conjunctions and
/// disjunctions. The result contains `⊤`/`⊥` only if it *is* `⊤`/`⊥`.
pub fn fold(c: &Constraint) -> Constraint {
    match c {
        Constraint::True => Constraint::True,
        Constraint::False => Constraint::False,
        Constraint::Path(_) | Constraint::Eq(_) | Constraint::Ord(_) => c.clone(),
        Constraint::Not(x) => match fold(x) {
            Constraint::True => Constraint::False,
            Constraint::False => Constraint::True,
            Constraint::Not(inner) => *inner,
            other => Constraint::not(other),
        },
        Constraint::And(xs) => {
            let mut out = Vec::new();
            for x in xs {
                match fold(x) {
                    Constraint::True => {}
                    Constraint::False => return Constraint::False,
                    Constraint::And(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            if out.len() > 1 {
                Constraint::And(out)
            } else {
                out.pop().unwrap_or(Constraint::True)
            }
        }
        Constraint::Or(xs) => {
            let mut out = Vec::new();
            for x in xs {
                match fold(x) {
                    Constraint::False => {}
                    Constraint::True => return Constraint::True,
                    Constraint::Or(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            if out.len() > 1 {
                Constraint::Or(out)
            } else {
                out.pop().unwrap_or(Constraint::False)
            }
        }
        Constraint::Implies(a, b) => match (fold(a), fold(b)) {
            (Constraint::False, _) => Constraint::True,
            (Constraint::True, fb) => fb,
            (_, Constraint::True) => Constraint::True,
            (fa, Constraint::False) => fold(&Constraint::not(fa)),
            (fa, fb) => Constraint::implies(fa, fb),
        },
        Constraint::Iff(a, b) => match (fold(a), fold(b)) {
            (Constraint::True, fb) => fb,
            (fa, Constraint::True) => fa,
            (Constraint::False, fb) => fold(&Constraint::not(fb)),
            (fa, Constraint::False) => fold(&Constraint::not(fa)),
            (fa, fb) if fa == fb => Constraint::True,
            (fa, fb) => Constraint::iff(fa, fb),
        },
        Constraint::Xor(a, b) => match (fold(a), fold(b)) {
            (Constraint::False, fb) => fb,
            (fa, Constraint::False) => fa,
            (Constraint::True, fb) => fold(&Constraint::not(fb)),
            (fa, Constraint::True) => fold(&Constraint::not(fa)),
            (fa, fb) if fa == fb => Constraint::False,
            (fa, fb) => Constraint::xor(fa, fb),
        },
        Constraint::ExactlyOne(xs) => {
            let mut trues = 0usize;
            let mut unknown = Vec::new();
            for x in xs {
                match fold(x) {
                    Constraint::True => trues += 1,
                    Constraint::False => {}
                    other => unknown.push(other),
                }
            }
            if trues > 1 {
                return Constraint::False;
            }
            if trues == 1 {
                // Exactly one already true: all remaining must be false.
                return fold(&Constraint::And(
                    unknown.into_iter().map(Constraint::not).collect(),
                ));
            }
            if unknown.len() > 1 {
                Constraint::ExactlyOne(unknown)
            } else {
                unknown.pop().unwrap_or(Constraint::False)
            }
        }
    }
}

/// Evaluates a formula containing no atoms. Returns `None` when an atom is
/// encountered.
pub fn eval_closed(c: &Constraint) -> Option<bool> {
    match c {
        Constraint::True => Some(true),
        Constraint::False => Some(false),
        Constraint::Path(_) | Constraint::Eq(_) | Constraint::Ord(_) => None,
        Constraint::Not(x) => eval_closed(x).map(|v| !v),
        Constraint::And(xs) => {
            let mut acc = true;
            for x in xs {
                acc &= eval_closed(x)?;
            }
            Some(acc)
        }
        Constraint::Or(xs) => {
            let mut acc = false;
            for x in xs {
                acc |= eval_closed(x)?;
            }
            Some(acc)
        }
        Constraint::Implies(a, b) => Some(!eval_closed(a)? || eval_closed(b)?),
        Constraint::Iff(a, b) => Some(eval_closed(a)? == eval_closed(b)?),
        Constraint::Xor(a, b) => Some(eval_closed(a)? != eval_closed(b)?),
        Constraint::ExactlyOne(xs) => {
            let mut count = 0usize;
            for x in xs {
                if eval_closed(x)? {
                    count += 1;
                }
            }
            Some(count == 1)
        }
    }
}

/// Rewrites into negation normal form: only `∧`, `∨`, atoms, and negated
/// atoms remain. `⊃ ≡ ⊕ ⊙` are expanded on the way.
pub fn nnf(c: &Constraint) -> Constraint {
    nnf_signed(c, false)
}

fn nnf_signed(c: &Constraint, negated: bool) -> Constraint {
    match c {
        Constraint::True => {
            if negated {
                Constraint::False
            } else {
                Constraint::True
            }
        }
        Constraint::False => {
            if negated {
                Constraint::True
            } else {
                Constraint::False
            }
        }
        Constraint::Path(_) | Constraint::Eq(_) | Constraint::Ord(_) => {
            if negated {
                Constraint::not(c.clone())
            } else {
                c.clone()
            }
        }
        Constraint::Not(x) => nnf_signed(x, !negated),
        Constraint::And(xs) => {
            let parts: Vec<Constraint> = xs.iter().map(|x| nnf_signed(x, negated)).collect();
            if negated {
                Constraint::Or(parts)
            } else {
                Constraint::And(parts)
            }
        }
        Constraint::Or(xs) => {
            let parts: Vec<Constraint> = xs.iter().map(|x| nnf_signed(x, negated)).collect();
            if negated {
                Constraint::And(parts)
            } else {
                Constraint::Or(parts)
            }
        }
        Constraint::Implies(a, b) => {
            // a ⊃ b ≡ ¬a ∨ b
            let rewritten = Constraint::Or(vec![Constraint::not((**a).clone()), (**b).clone()]);
            nnf_signed(&rewritten, negated)
        }
        Constraint::Iff(a, b) => {
            // a ≡ b ≡ (a ∧ b) ∨ (¬a ∧ ¬b)
            let rewritten = Constraint::Or(vec![
                Constraint::And(vec![(**a).clone(), (**b).clone()]),
                Constraint::And(vec![
                    Constraint::not((**a).clone()),
                    Constraint::not((**b).clone()),
                ]),
            ]);
            nnf_signed(&rewritten, negated)
        }
        Constraint::Xor(a, b) => {
            let rewritten = Constraint::Or(vec![
                Constraint::And(vec![(**a).clone(), Constraint::not((**b).clone())]),
                Constraint::And(vec![Constraint::not((**a).clone()), (**b).clone()]),
            ]);
            nnf_signed(&rewritten, negated)
        }
        Constraint::ExactlyOne(xs) => {
            // ⊙{f1…fn} ≡ ∨_i (f_i ∧ ∧_{j≠i} ¬f_j)
            let mut disjuncts = Vec::with_capacity(xs.len());
            for i in 0..xs.len() {
                let mut conj = Vec::with_capacity(xs.len());
                for (j, x) in xs.iter().enumerate() {
                    if i == j {
                        conj.push(x.clone());
                    } else {
                        conj.push(Constraint::not(x.clone()));
                    }
                }
                disjuncts.push(Constraint::And(conj));
            }
            nnf_signed(&Constraint::Or(disjuncts), negated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Constraint as C, EqAtom, PathAtom};
    use odc_hierarchy::Category;

    fn p(idx: &[usize]) -> C {
        C::Path(PathAtom::new(
            idx.iter().map(|&i| Category::from_index(i)).collect(),
        ))
    }

    fn e(root: usize, cat: usize, v: &str) -> C {
        C::Eq(EqAtom::new(
            Category::from_index(root),
            Category::from_index(cat),
            v,
        ))
    }

    #[test]
    fn fold_connective_constants() {
        assert_eq!(fold(&C::And(vec![C::True, C::True])), C::True);
        assert_eq!(fold(&C::And(vec![C::True, C::False])), C::False);
        assert_eq!(fold(&C::Or(vec![C::False, C::False])), C::False);
        assert_eq!(fold(&C::Or(vec![C::False, C::True])), C::True);
        assert_eq!(fold(&C::not(C::True)), C::False);
        assert_eq!(fold(&C::implies(C::False, p(&[1, 2]))), C::True);
        assert_eq!(fold(&C::implies(C::True, p(&[1, 2]))), p(&[1, 2]));
        assert_eq!(fold(&C::iff(C::False, p(&[1, 2]))), C::not(p(&[1, 2])));
        assert_eq!(fold(&C::xor(C::True, p(&[1, 2]))), C::not(p(&[1, 2])));
        assert_eq!(fold(&C::xor(C::False, p(&[1, 2]))), p(&[1, 2]));
    }

    #[test]
    fn fold_removes_double_negation() {
        assert_eq!(fold(&C::not(C::not(p(&[1, 2])))), p(&[1, 2]));
    }

    #[test]
    fn fold_flattens_nested_and() {
        let c = C::And(vec![
            C::And(vec![p(&[1, 2]), p(&[1, 3])]),
            C::True,
            p(&[1, 4]),
        ]);
        assert_eq!(fold(&c), C::And(vec![p(&[1, 2]), p(&[1, 3]), p(&[1, 4])]));
    }

    #[test]
    fn fold_identical_iff_and_xor() {
        assert_eq!(fold(&C::iff(p(&[1, 2]), p(&[1, 2]))), C::True);
        assert_eq!(fold(&C::xor(p(&[1, 2]), p(&[1, 2]))), C::False);
    }

    #[test]
    fn fold_exactly_one_cases() {
        // Two trues → ⊥.
        assert_eq!(
            fold(&C::ExactlyOne(vec![C::True, C::True, p(&[1, 2])])),
            C::False
        );
        // One true → remaining must all be false.
        assert_eq!(
            fold(&C::ExactlyOne(vec![C::True, p(&[1, 2])])),
            C::not(p(&[1, 2]))
        );
        // Falses drop out.
        assert_eq!(fold(&C::ExactlyOne(vec![C::False, p(&[1, 2])])), p(&[1, 2]));
        assert_eq!(fold(&C::ExactlyOne(vec![C::False, C::False])), C::False);
        assert_eq!(fold(&C::ExactlyOne(vec![])), C::False);
        // Nothing known → stays ⊙.
        assert_eq!(
            fold(&C::ExactlyOne(vec![p(&[1, 2]), p(&[1, 3])])),
            C::ExactlyOne(vec![p(&[1, 2]), p(&[1, 3])])
        );
    }

    #[test]
    fn substitution_replaces_atoms() {
        let c = C::implies(e(1, 2, "k"), p(&[1, 2, 3]));
        let subst = substitute_atoms(&c, &mut |a| match a {
            crate::ast::AtomRef::Path(_) => Some(C::True),
            crate::ast::AtomRef::Eq(_) | crate::ast::AtomRef::Ord(_) => None,
        });
        assert_eq!(fold(&subst), C::True);
    }

    #[test]
    fn eval_closed_full_and_partial() {
        assert_eq!(eval_closed(&C::implies(C::True, C::False)), Some(false));
        assert_eq!(
            eval_closed(&C::ExactlyOne(vec![C::True, C::False])),
            Some(true)
        );
        assert_eq!(
            eval_closed(&C::ExactlyOne(vec![C::True, C::True])),
            Some(false)
        );
        assert_eq!(eval_closed(&p(&[1, 2])), None);
        assert_eq!(eval_closed(&C::And(vec![C::True, p(&[1, 2])])), None);
    }

    #[test]
    fn nnf_pushes_negation_to_atoms() {
        let c = C::not(C::And(vec![p(&[1, 2]), C::not(e(1, 3, "k"))]));
        let n = nnf(&c);
        assert_eq!(n, C::Or(vec![C::not(p(&[1, 2])), e(1, 3, "k")]));
    }

    #[test]
    fn nnf_expands_implication() {
        let c = C::implies(p(&[1, 2]), e(1, 3, "k"));
        assert_eq!(nnf(&c), C::Or(vec![C::not(p(&[1, 2])), e(1, 3, "k")]));
    }

    /// Truth-table equivalence of NNF with the original over all atom
    /// assignments, for a formula exercising every connective.
    #[test]
    fn nnf_preserves_semantics() {
        let atoms = [p(&[1, 2]), p(&[1, 3]), e(1, 2, "k")];
        let formula = C::iff(
            C::xor(atoms[0].clone(), atoms[1].clone()),
            C::ExactlyOne(vec![atoms[0].clone(), atoms[1].clone(), atoms[2].clone()]),
        );
        let converted = nnf(&formula);
        for bits in 0..8u32 {
            let assign = |a: crate::ast::AtomRef<'_>| -> Option<C> {
                let idx = match a {
                    crate::ast::AtomRef::Path(pa) if pa.path[1].index() == 2 => 0,
                    crate::ast::AtomRef::Path(_) => 1,
                    crate::ast::AtomRef::Eq(_) | crate::ast::AtomRef::Ord(_) => 2,
                };
                Some(if bits & (1 << idx) != 0 {
                    C::True
                } else {
                    C::False
                })
            };
            let v1 = eval_closed(&substitute_atoms(&formula, &mut assign.clone())).unwrap();
            let v2 = eval_closed(&substitute_atoms(&converted, &mut assign.clone())).unwrap();
            assert_eq!(v1, v2, "bits={bits:03b}");
        }
    }
}
