//! The versioned checkpoint envelope.
//!
//! When a governed search is interrupted it can serialize its progress
//! into a checkpoint and continue later from exactly that point. This
//! module owns the *envelope* — a small, dependency-free text container
//! with a format version, a kind discriminator (which solver layer wrote
//! the payload), and the fingerprint of the schema the search ran
//! against. The payload itself is opaque here: the solver layer that
//! writes one (`odc-dimsat`, for a single solve) defines its payload
//! lines and parses them back with [`CheckpointEnvelope::expect`]-validated
//! envelopes. The kinds earlier releases wrote for the category sweep,
//! the Theorem-1 battery and the advisor audit are retired
//! ([`CheckpointError::Retired`]): those batteries resume through item
//! caches now.
//!
//! ## Format
//!
//! ```text
//! odc-checkpoint v1
//! kind dimsat-solve
//! fingerprint 1234567890
//! <payload line>
//! <payload line>
//! end
//! ```
//!
//! Rules enforced on load:
//!
//! * the magic and version line must match ([`CHECKPOINT_VERSION`]) —
//!   a future format bump refuses old files rather than misreading them;
//! * the consumer states which `kind` it can resume; anything else is a
//!   [`CheckpointError::KindMismatch`];
//! * the consumer states the fingerprint of the schema it is about to
//!   resume against; a mismatch ([`CheckpointError::FingerprintMismatch`])
//!   means the schema changed since the checkpoint was written and the
//!   cursor would be meaningless — resuming is refused.
//!
//! Payload lines must not equal the terminator `end` (solver payloads
//! are `key value` tokens, so this cannot arise in practice).

use std::fmt;

/// The envelope format version this build reads and writes.
pub const CHECKPOINT_VERSION: u32 = 1;

const MAGIC: &str = "odc-checkpoint";

/// Why a checkpoint could not be loaded or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The text is not a well-formed checkpoint (bad magic, truncated,
    /// unparseable header or payload field).
    Malformed(String),
    /// The file was written by a different format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The checkpoint belongs to a different solver layer.
    KindMismatch {
        /// Kind found in the file.
        found: String,
        /// Kind the consumer can resume.
        expected: String,
    },
    /// The checkpoint was taken against a different schema; its cursor
    /// does not describe the current search space.
    FingerprintMismatch {
        /// Fingerprint recorded in the file.
        found: u64,
        /// Fingerprint of the schema being resumed.
        expected: u64,
    },
    /// An envelope of a kind no longer resumed: the category sweep, the
    /// Theorem-1 battery and the audit now resume from item-cache files.
    Retired {
        /// Kind found in the file.
        kind: String,
    },
}

impl CheckpointError {
    /// A [`CheckpointError::Malformed`] with context.
    pub fn malformed(msg: impl Into<String>) -> Self {
        CheckpointError::Malformed(msg.into())
    }

    /// Refuses a cursor whose schema fingerprint `found` is not the
    /// `expected` one.
    pub fn check_fingerprint(found: u64, expected: u64) -> Result<(), Self> {
        if found == expected {
            Ok(())
        } else {
            Err(CheckpointError::FingerprintMismatch { found, expected })
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint format v{found} is not supported (this build reads v{supported})"
            ),
            CheckpointError::KindMismatch { found, expected } => write!(
                f,
                "checkpoint holds a '{found}' cursor, but a '{expected}' cursor is required"
            ),
            CheckpointError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint was taken against schema fingerprint {found}, \
                 but the schema being resumed fingerprints to {expected} — \
                 the schema changed; re-solve from scratch"
            ),
            CheckpointError::Retired { kind } => write!(
                f,
                "an {MAGIC} v{CHECKPOINT_VERSION} envelope of kind '{kind}' is a retired \
                 checkpoint format (checkpoints are item-cache files now); rerun without --resume"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A parsed (or under-construction) checkpoint: header plus opaque
/// payload lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEnvelope {
    /// Which solver layer wrote the payload (e.g. `dimsat-solve`).
    pub kind: String,
    /// Fingerprint of the schema the search ran against.
    pub fingerprint: u64,
    /// The payload, one logical record per line.
    pub payload: Vec<String>,
}

impl CheckpointEnvelope {
    /// An empty envelope for `kind` against a schema fingerprint.
    pub fn new(kind: &str, fingerprint: u64) -> Self {
        CheckpointEnvelope {
            kind: kind.to_string(),
            fingerprint,
            payload: Vec::new(),
        }
    }

    /// Appends one payload line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.payload.push(line.into());
    }

    /// Serializes the envelope to its text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{MAGIC} v{CHECKPOINT_VERSION}\n"));
        out.push_str(&format!("kind {}\n", self.kind));
        out.push_str(&format!("fingerprint {}\n", self.fingerprint));
        for l in &self.payload {
            out.push_str(l);
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses a checkpoint from its text form, validating magic, version,
    /// and header shape (kind/fingerprint validation against a consumer's
    /// expectation happens in [`CheckpointEnvelope::expect`]).
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| CheckpointError::malformed("empty input"))?;
        let version = header
            .strip_prefix(MAGIC)
            .and_then(|rest| rest.trim().strip_prefix('v'))
            .ok_or_else(|| {
                CheckpointError::malformed(format!("bad magic line: {header:?}"))
            })?;
        let version: u32 = version
            .parse()
            .map_err(|_| CheckpointError::malformed(format!("bad version: {version:?}")))?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        let kind = lines
            .next()
            .and_then(|l| l.strip_prefix("kind "))
            .ok_or_else(|| CheckpointError::malformed("missing 'kind' header"))?
            .to_string();
        let fingerprint = lines
            .next()
            .and_then(|l| l.strip_prefix("fingerprint "))
            .ok_or_else(|| CheckpointError::malformed("missing 'fingerprint' header"))?;
        let fingerprint: u64 = fingerprint.parse().map_err(|_| {
            CheckpointError::malformed(format!("bad fingerprint: {fingerprint:?}"))
        })?;
        let mut payload = Vec::new();
        let mut terminated = false;
        for l in lines {
            if l == "end" {
                terminated = true;
                break;
            }
            payload.push(l.to_string());
        }
        if !terminated {
            return Err(CheckpointError::malformed(
                "missing 'end' terminator (truncated checkpoint?)",
            ));
        }
        Ok(CheckpointEnvelope {
            kind,
            fingerprint,
            payload,
        })
    }

    /// Validates that this envelope holds a `kind` cursor for the schema
    /// fingerprinting to `fingerprint`, and hands back the payload.
    pub fn expect(
        &self,
        kind: &str,
        fingerprint: u64,
    ) -> Result<&[String], CheckpointError> {
        if self.kind != kind {
            return Err(CheckpointError::KindMismatch {
                found: self.kind.clone(),
                expected: kind.to_string(),
            });
        }
        CheckpointError::check_fingerprint(self.fingerprint, fingerprint)?;
        Ok(&self.payload)
    }
}
