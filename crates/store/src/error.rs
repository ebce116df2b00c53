//! Typed ingest errors: every rejection names the offending row, the
//! dimension column it sits in, and — for instance defects — which of
//! the paper's conditions C1–C7 the delta would have violated.

use std::fmt;

/// Why a batch was rejected. Rows are 1-based line numbers in the
/// ingest stream (global across batches, matching what an editor shows
/// for the facts file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The line did not match the member/fact grammar.
    Syntax {
        /// 1-based stream line.
        row: usize,
        /// What went wrong.
        message: String,
    },
    /// A member line named a category absent from the dimension schema.
    UnknownCategory {
        /// 1-based stream line.
        row: usize,
        /// Dimension column.
        dim: usize,
        /// The unknown category name.
        name: String,
    },
    /// A member line referenced a parent key that neither the store nor
    /// the batch defines.
    UnknownParent {
        /// 1-based stream line.
        row: usize,
        /// Dimension column.
        dim: usize,
        /// The child member's key.
        key: String,
        /// The unresolved parent key.
        parent: String,
    },
    /// A member key was declared twice (within the batch or against the
    /// store). Re-declaration is rejected, mirroring `parse_instance`.
    DuplicateMember {
        /// 1-based stream line.
        row: usize,
        /// Dimension column.
        dim: usize,
        /// The duplicated key.
        key: String,
    },
    /// A member key has no form the stream grammar reads back (a `"`
    /// followed by a separator), so a saved store could not be reopened.
    UnreadableKey {
        /// 1-based stream line.
        row: usize,
        /// Dimension column.
        dim: usize,
        /// The key.
        key: String,
    },
    /// Committing the batch would violate one of the paper's instance
    /// conditions C1–C7.
    Condition {
        /// 1-based stream line of the offending member.
        row: usize,
        /// Dimension column.
        dim: usize,
        /// The violated condition number (1, 2, 4, 5, 6 or 7).
        condition: u8,
        /// Key of the offending member.
        member: String,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A fact row keyed a member the store does not know.
    UnknownFactMember {
        /// 1-based stream line.
        row: usize,
        /// Dimension column.
        dim: usize,
        /// The unknown member key.
        key: String,
    },
    /// A fact row keyed a member outside the bottom categories.
    NonBaseFact {
        /// 1-based stream line.
        row: usize,
        /// Dimension column.
        dim: usize,
        /// The member key.
        key: String,
        /// Name of the category the member actually sits in.
        category: String,
    },
    /// The storage layer failed (save/load only).
    Io(String),
}

impl IngestError {
    /// The 1-based stream line the error points at (0 for I/O errors,
    /// which have no stream position).
    pub fn row(&self) -> usize {
        match self {
            IngestError::Syntax { row, .. }
            | IngestError::UnknownCategory { row, .. }
            | IngestError::UnknownParent { row, .. }
            | IngestError::DuplicateMember { row, .. }
            | IngestError::UnreadableKey { row, .. }
            | IngestError::Condition { row, .. }
            | IngestError::UnknownFactMember { row, .. }
            | IngestError::NonBaseFact { row, .. } => *row,
            IngestError::Io(_) => 0,
        }
    }

    /// The violated condition number, when the error is an instance
    /// defect (`Condition`), mapping non-base facts to the fact-table
    /// analogue of "facts attach at bottom categories".
    pub fn condition(&self) -> Option<u8> {
        match self {
            IngestError::Condition { condition, .. } => Some(*condition),
            _ => None,
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Syntax { row, message } => write!(f, "row {row}: {message}"),
            IngestError::UnknownCategory { row, dim, name } => {
                write!(f, "row {row} (dim {dim}): unknown category `{name}`")
            }
            IngestError::UnknownParent {
                row,
                dim,
                key,
                parent,
            } => write!(
                f,
                "row {row} (dim {dim}): member `{key}` links to unknown parent `{parent}`"
            ),
            IngestError::DuplicateMember { row, dim, key } => {
                write!(f, "row {row} (dim {dim}): duplicate member key `{key}`")
            }
            IngestError::UnreadableKey { row, dim, key } => write!(
                f,
                "row {row} (dim {dim}): member key `{key}` has no form that reads back \
                 (a `\"` is followed by a separator)"
            ),
            IngestError::Condition {
                row,
                dim,
                condition,
                member,
                detail,
            } => write!(
                f,
                "row {row} (dim {dim}): member `{member}` violates C{condition}: {detail}"
            ),
            IngestError::UnknownFactMember { row, dim, key } => {
                write!(f, "row {row} (dim {dim}): fact keys unknown member `{key}`")
            }
            IngestError::NonBaseFact {
                row,
                dim,
                key,
                category,
            } => write!(
                f,
                "row {row} (dim {dim}): fact keys `{key}` in category `{category}`, \
                 not a bottom category"
            ),
            IngestError::Io(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for IngestError {}
