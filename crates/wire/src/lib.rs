//! `xhc-wire`: the versioned binary wire format and content addressing
//! for `xhybrid` artifacts.
//!
//! Every artifact the workspace exchanges across a process boundary — X
//! maps, workload specs, plan requests, partition plans and plan
//! certificates — has a canonical little-endian binary encoding here, so the planning daemon (`xhc-serve`), its clients and
//! the offline CLI all speak one format with zero external dependencies.
//!
//! # Layout
//!
//! ```text
//! +--------+---------+------+---------------+
//! | "XHCW" | version | kind | section count |   12-byte header
//! | 4 B    | u16     | u16  | u32           |
//! +--------+---------+------+---------------+
//! | tag u32 | len u64 |  ...                |   section table
//! +---------+---------+                         (12 B per entry)
//! | payload bytes, concatenated in table order |
//! +--------------------------------------------+
//! ```
//!
//! All integers are little-endian; every variable-length field is
//! length-prefixed. Encoders emit sections in ascending tag order with no
//! duplicates, which makes the encoding *canonical*: one artifact, one
//! byte string, one [`content_hash`]. Decoders are strict — any deviation
//! (bad magic, unknown version/kind/section, duplicate or missing
//! sections, truncation, trailing bytes, out-of-range indices, nonzero
//! tail bits) returns a typed [`WireError`]; they never panic on
//! untrusted input (the fuzz suite feeds them truncated and bit-flipped
//! buffers).
//!
//! # Content addressing
//!
//! [`content_hash`] folds a byte string through `xhc-prng`'s SplitMix64
//! finalizer ([`xhc_prng::splitmix64_mix`]) into a 64-bit digest rendered
//! as 16 hex characters ([`hash_hex`]). [`plan_request_hash_with_options`]
//! extends it with the planning parameters `(m, q)` and every engine
//! option but the thread count — that composite is the cache key of
//! `xhc-serve`'s content-addressed plan store (see `DESIGN.md`).
//!
//! # Examples
//!
//! ```
//! use xhc_scan::{CellId, ScanConfig, XMapBuilder};
//! use xhc_wire::{decode_xmap, encode_xmap, peek_kind, Kind};
//!
//! let mut b = XMapBuilder::new(ScanConfig::uniform(5, 3), 8);
//! b.add_x(CellId::new(0, 0), 3).unwrap();
//! let xmap = b.finish();
//!
//! let bytes = encode_xmap(&xmap);
//! assert_eq!(peek_kind(&bytes).unwrap(), Kind::XMap);
//! assert_eq!(decode_xmap(&bytes).unwrap(), xmap);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod cert;
mod codec;
mod hash;

pub use cert::{
    decode_certificate, encode_certificate, BlockCertificate, PartitionAccount, PlanCertificate,
};
pub use codec::{
    decode_plan, decode_plan_request, decode_workload_spec, decode_xmap, encode_plan,
    encode_plan_request, encode_workload_spec, encode_xmap, PlanRequest,
};
pub use hash::{content_hash, hash_hex, parse_hash_hex, plan_request_hash_with_options};

use std::fmt;
use xhc_scan::LintCode;

/// The 4-byte magic every wire buffer starts with.
pub const MAGIC: [u8; 4] = *b"XHCW";

/// The format version this crate encodes and accepts.
pub const VERSION: u16 = 1;

/// What kind of artifact a wire buffer carries. Codes 1 and 5 named
/// kinds nothing exchanged (a bare scan topology, a cancel-session
/// summary); they stay reserved and decode as unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A sparse X-location map ([`xhc_scan::XMap`]).
    XMap,
    /// A synthetic workload spec ([`xhc_workload::WorkloadSpec`]).
    WorkloadSpec,
    /// A partition plan ([`xhc_core::PartitionOutcome`]).
    PartitionPlan,
    /// A fully-specified planning request ([`PlanRequest`]): cancel
    /// parameters, engine options and the nested artifact to plan over.
    PlanRequest,
    /// A plan certificate ([`PlanCertificate`]): the accounting witness a
    /// partition plan travels with, content-hash linked to its plan and
    /// checkable without the engine (see `xhc-verify`).
    PlanCertificate,
}

impl Kind {
    pub(crate) fn code(self) -> u16 {
        match self {
            Kind::XMap => 2,
            Kind::WorkloadSpec => 3,
            Kind::PartitionPlan => 4,
            Kind::PlanRequest => 6,
            Kind::PlanCertificate => 7,
        }
    }

    pub(crate) fn from_code(code: u16) -> Option<Kind> {
        match code {
            2 => Some(Kind::XMap),
            3 => Some(Kind::WorkloadSpec),
            4 => Some(Kind::PartitionPlan),
            6 => Some(Kind::PlanRequest),
            7 => Some(Kind::PlanCertificate),
            _ => None,
        }
    }

    /// The stable lowercase artifact name (used in error messages and the
    /// daemon's content negotiation).
    pub fn name(self) -> &'static str {
        match self {
            Kind::XMap => "xmap",
            Kind::WorkloadSpec => "workload-spec",
            Kind::PartitionPlan => "partition-plan",
            Kind::PlanRequest => "plan-request",
            Kind::PlanCertificate => "plan-certificate",
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Every way a wire buffer can fail to decode.
///
/// Decoders return these instead of panicking; the variants are precise
/// enough for a server to map onto HTTP status codes and for tests to
/// assert exact failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before a required field.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// What was found instead.
        got: [u8; 4],
    },
    /// The version field is not [`VERSION`].
    UnsupportedVersion {
        /// The version found.
        got: u16,
    },
    /// The kind field maps to no known artifact kind.
    UnknownKind {
        /// The kind code found.
        got: u16,
    },
    /// The buffer carries a different artifact than the decoder expects.
    WrongKind {
        /// The kind the decoder was asked for.
        expected: Kind,
        /// The kind the buffer declares.
        got: Kind,
    },
    /// A section tag this version does not define.
    UnknownSection {
        /// The offending tag.
        tag: u32,
    },
    /// The same section tag appears twice (or tags are not ascending, so
    /// the encoding is non-canonical).
    DuplicateSection {
        /// The offending tag.
        tag: u32,
    },
    /// A section the artifact kind requires is absent.
    MissingSection {
        /// The missing tag.
        tag: u32,
    },
    /// A section payload is shorter or longer than its contents require.
    BadSectionLength {
        /// The offending tag.
        tag: u32,
    },
    /// Bytes remain after the last declared section.
    TrailingBytes {
        /// How many.
        count: usize,
    },
    /// A structurally-valid buffer with semantically-invalid contents
    /// (out-of-range index, bad fraction, nonzero tail bits, ...).
    Malformed {
        /// Which artifact/field the check belongs to.
        context: &'static str,
        /// What is wrong.
        message: String,
    },
    /// A well-formed buffer whose contents break a design rule: an X
    /// entry out of range (XL0202) or repeated (XL0203), or `q ≥ m`
    /// (XL0305).
    Violation {
        /// The rule the contents break.
        code: LintCode,
        /// Which artifact/field the check belongs to.
        context: &'static str,
        /// What is wrong.
        message: String,
    },
}

impl WireError {
    /// The rule the buffer breaks, if the rejection is a design-rule
    /// finding rather than a framing or encoding defect.
    pub fn code(&self) -> Option<LintCode> {
        match self {
            WireError::Violation { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// The rejection of `0 < q < m` by the `context` decoder.
    pub(crate) fn cancel_params(context: &'static str, m: usize, q: usize) -> WireError {
        WireError::Violation {
            code: LintCode::BadCancelConfig,
            context,
            message: format!("need 0 < q < m, got m={m} q={q}"),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated buffer: need {need} bytes, have {have}")
            }
            WireError::BadMagic { got } => {
                write!(f, "bad magic {got:02x?}, expected \"XHCW\"")
            }
            WireError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got}, this build speaks {VERSION}"
                )
            }
            WireError::UnknownKind { got } => write!(f, "unknown artifact kind code {got}"),
            WireError::WrongKind { expected, got } => {
                write!(f, "expected a {expected} artifact, got {got}")
            }
            WireError::UnknownSection { tag } => write!(f, "unknown section tag {tag}"),
            WireError::DuplicateSection { tag } => {
                write!(f, "duplicate or out-of-order section tag {tag}")
            }
            WireError::MissingSection { tag } => write!(f, "missing required section tag {tag}"),
            WireError::BadSectionLength { tag } => {
                write!(f, "section tag {tag} length disagrees with its contents")
            }
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) after the last section")
            }
            WireError::Malformed { context, message }
            | WireError::Violation {
                context, message, ..
            } => write!(f, "malformed {context}: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Reads the artifact kind of a wire buffer without decoding the body.
///
/// # Errors
///
/// Returns [`WireError`] if the header is truncated, the magic or version
/// is wrong, or the kind code is unknown.
pub fn peek_kind(bytes: &[u8]) -> Result<Kind, WireError> {
    let mut r = buf::Reader::new(bytes);
    let magic = r.bytes(4)?;
    if magic != MAGIC {
        let mut got = [0u8; 4];
        got.copy_from_slice(magic);
        return Err(WireError::BadMagic { got });
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion { got: version });
    }
    let kind = r.u16()?;
    Kind::from_code(kind).ok_or(WireError::UnknownKind { got: kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_roundtrip() {
        for kind in [
            Kind::XMap,
            Kind::WorkloadSpec,
            Kind::PartitionPlan,
            Kind::PlanRequest,
            Kind::PlanCertificate,
        ] {
            assert_eq!(Kind::from_code(kind.code()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        // The retired codes stay reserved.
        for code in [0, 1, 5] {
            assert_eq!(Kind::from_code(code), None);
        }
        assert_eq!(Kind::from_code(99), None);
    }

    #[test]
    fn peek_kind_rejects_garbage() {
        assert!(matches!(
            peek_kind(b"XHC"),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            peek_kind(b"NOPE\x01\x00\x02\x00"),
            Err(WireError::BadMagic { .. })
        ));
        assert!(matches!(
            peek_kind(b"XHCW\x63\x00\x02\x00"),
            Err(WireError::UnsupportedVersion { got: 0x63 })
        ));
        assert!(matches!(
            peek_kind(b"XHCW\x01\x00\x63\x00"),
            Err(WireError::UnknownKind { got: 0x63 })
        ));
    }

    #[test]
    fn errors_render() {
        let errors = [
            WireError::Truncated { need: 8, have: 3 },
            WireError::BadMagic { got: *b"NOPE" },
            WireError::UnsupportedVersion { got: 7 },
            WireError::UnknownKind { got: 9 },
            WireError::WrongKind {
                expected: Kind::XMap,
                got: Kind::PartitionPlan,
            },
            WireError::UnknownSection { tag: 42 },
            WireError::DuplicateSection { tag: 1 },
            WireError::MissingSection { tag: 2 },
            WireError::BadSectionLength { tag: 3 },
            WireError::TrailingBytes { count: 4 },
            WireError::Malformed {
                context: "xmap",
                message: "cell out of range".into(),
            },
            WireError::Violation {
                code: LintCode::XOutOfRange,
                context: "xmap",
                message: "cell out of range".into(),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
