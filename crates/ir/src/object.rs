//! Stateful INC object declarations.
//!
//! ClickINC programs operate on a small set of collective data types (paper
//! Fig. 5, "Object"): `Table`, `Array`, `Seq`, `Hash`, `Sketch` and `Crypto`.
//! Each is declared once per program and then operated on by primitives
//! (`get`, `write`, `count`, `del`, ...).  At the IR level the declaration carries
//! everything the placement engine needs to compute resource demand (depth, width,
//! match kind, statefulness) and everything the emulator needs to instantiate the
//! runtime state.

use crate::name::Name;
use std::fmt;

/// Matching discipline of a table object (paper Table 8: `_emt`, `_tmt`, `_lpmt`,
/// `_ram` index matching, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// Exact match on the full key.
    Exact,
    /// Ternary (wildcard) match, requires TCAM.
    Ternary,
    /// Longest-prefix match, requires TCAM (or algorithmic LPM).
    Lpm,
    /// Direct index match (the key *is* the index), `_ram` in Table 8.
    Index,
}

impl fmt::Display for MatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MatchKind::Exact => "exact",
            MatchKind::Ternary => "ternary",
            MatchKind::Lpm => "lpm",
            MatchKind::Index => "index",
        };
        write!(f, "{s}")
    }
}

/// Kind of approximate-membership / frequency sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SketchKind {
    /// Count-Min sketch: `rows` independent hash rows of `cols` counters.
    CountMin,
    /// Bloom filter: `rows` hash functions over a `cols`-bit array.
    Bloom,
}

impl fmt::Display for SketchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchKind::CountMin => write!(f, "count-min"),
            SketchKind::Bloom => write!(f, "bloom-filter"),
        }
    }
}

/// Hash algorithm families exposed by the devices (paper Table 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashAlgo {
    /// CRC-8.
    Crc8,
    /// CRC-16 (the default in most templates).
    Crc16,
    /// CRC-32.
    Crc32,
    /// Identity mapping (Tofino-only per Table 8).
    Identity,
}

impl HashAlgo {
    /// Output width in bits.
    pub fn output_bits(&self) -> u16 {
        match self {
            HashAlgo::Crc8 => 8,
            HashAlgo::Crc16 => 16,
            HashAlgo::Crc32 => 32,
            HashAlgo::Identity => 32,
        }
    }

    /// Parse the textual form used in ClickINC source (`"crc_16"`, `"crc16"`, ...).
    pub fn parse(s: &str) -> Option<HashAlgo> {
        match s.to_ascii_lowercase().replace('-', "_").as_str() {
            "crc8" | "crc_8" => Some(HashAlgo::Crc8),
            "crc16" | "crc_16" => Some(HashAlgo::Crc16),
            "crc32" | "crc_32" => Some(HashAlgo::Crc32),
            "identity" | "ident" => Some(HashAlgo::Identity),
            _ => None,
        }
    }
}

/// Cryptographic primitive families (paper Table 8: `_aes` on FPGA, `_ecs` on NFP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CryptoAlgo {
    /// AES block cipher (FPGA-only).
    Aes,
    /// The "ECS" stream cipher family of the Netronome accelerator (NFP-only).
    Ecs,
}

/// The shape/configuration of a stateful object.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectKind {
    /// A register array: `rows` independent arrays of `size` cells of `width` bits
    /// (paper example: `Array(row=3, size=65536, w=32)`).
    Array {
        /// Number of parallel rows.
        rows: u32,
        /// Number of cells per row.
        size: u32,
        /// Width of each cell in bits.
        width: u16,
    },
    /// A match-action table.
    Table {
        /// Match discipline.
        match_kind: MatchKind,
        /// Key width in bits.
        key_width: u16,
        /// Value width in bits (total across value fields).
        value_width: u16,
        /// Number of entries.
        depth: u32,
        /// Whether the data plane itself writes the table (stateful,
        /// `_semt`/`_stmt` in Table 8) or only the control plane does.
        stateful: bool,
    },
    /// A frequency / membership sketch built from hashed register rows.
    Sketch {
        /// Sketch flavour.
        kind: SketchKind,
        /// Number of hash rows.
        rows: u32,
        /// Number of counters/bits per row.
        cols: u32,
        /// Counter width in bits (1 for Bloom filters).
        width: u16,
    },
    /// A sequence/rolling buffer (used e.g. by DQAcc's rolling cache recorder).
    Seq {
        /// Number of slots.
        size: u32,
        /// Width of each slot in bits.
        width: u16,
    },
    /// A hash function instance.
    Hash {
        /// Algorithm.
        algo: HashAlgo,
        /// Optional modulus applied to the output (`ceil` parameter in templates).
        modulus: Option<u32>,
    },
    /// A cryptographic unit.
    Crypto {
        /// Algorithm.
        algo: CryptoAlgo,
    },
}

impl ObjectKind {
    /// Whether operating on this object constitutes *stateful* data-plane state
    /// (inter-packet state in the paper's terminology, §5.2 step 1).  Hash and
    /// Crypto objects are pure functions and carry no state.
    pub fn is_stateful(&self) -> bool {
        match self {
            ObjectKind::Array { .. } | ObjectKind::Sketch { .. } | ObjectKind::Seq { .. } => true,
            ObjectKind::Table { stateful, .. } => *stateful,
            ObjectKind::Hash { .. } | ObjectKind::Crypto { .. } => false,
        }
    }

    /// Total storage in bits required by the object (0 for pure functions).
    pub fn storage_bits(&self) -> u64 {
        match self {
            ObjectKind::Array { rows, size, width } => {
                u64::from(*rows) * u64::from(*size) * u64::from(*width)
            }
            ObjectKind::Table { key_width, value_width, depth, .. } => {
                u64::from(*depth) * (u64::from(*key_width) + u64::from(*value_width))
            }
            ObjectKind::Sketch { rows, cols, width, .. } => {
                u64::from(*rows) * u64::from(*cols) * u64::from(*width)
            }
            ObjectKind::Seq { size, width } => u64::from(*size) * u64::from(*width),
            ObjectKind::Hash { .. } | ObjectKind::Crypto { .. } => 0,
        }
    }

    /// Short human-readable kind name.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ObjectKind::Array { .. } => "Array",
            ObjectKind::Table { .. } => "Table",
            ObjectKind::Sketch { .. } => "Sketch",
            ObjectKind::Seq { .. } => "Seq",
            ObjectKind::Hash { .. } => "Hash",
            ObjectKind::Crypto { .. } => "Crypto",
        }
    }
}

/// A named, program-scoped object declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectDecl {
    /// Program-unique object name (after synthesis, prefixed with the owning
    /// user's id for isolation, e.g. `kvs_0_mtb`).
    pub name: Name,
    /// Shape / configuration.
    pub kind: ObjectKind,
    /// Owning user program (None for the operator's base program).  Used by the
    /// annotation-based incremental compilation (paper §6).
    pub owner: Option<Name>,
}

impl ObjectDecl {
    /// Create a declaration owned by no user (base program).
    pub fn new(name: impl Into<Name>, kind: ObjectKind) -> Self {
        ObjectDecl { name: name.into(), kind, owner: None }
    }

    /// Create a declaration owned by a user program.
    pub fn owned(name: impl Into<Name>, kind: ObjectKind, owner: impl Into<Name>) -> Self {
        ObjectDecl { name: name.into(), kind, owner: Some(owner.into()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statefulness_classification() {
        assert!(ObjectKind::Array { rows: 1, size: 8, width: 32 }.is_stateful());
        assert!(ObjectKind::Sketch { kind: SketchKind::CountMin, rows: 3, cols: 16, width: 32 }
            .is_stateful());
        assert!(ObjectKind::Seq { size: 4, width: 32 }.is_stateful());
        assert!(!ObjectKind::Hash { algo: HashAlgo::Crc16, modulus: None }.is_stateful());
        assert!(!ObjectKind::Crypto { algo: CryptoAlgo::Aes }.is_stateful());
        assert!(ObjectKind::Table {
            match_kind: MatchKind::Exact,
            key_width: 32,
            value_width: 32,
            depth: 16,
            stateful: true
        }
        .is_stateful());
        assert!(!ObjectKind::Table {
            match_kind: MatchKind::Exact,
            key_width: 32,
            value_width: 32,
            depth: 16,
            stateful: false
        }
        .is_stateful());
    }

    #[test]
    fn storage_accounting() {
        let arr = ObjectKind::Array { rows: 3, size: 65536, width: 32 };
        assert_eq!(arr.storage_bits(), 3 * 65536 * 32);
        let tbl = ObjectKind::Table {
            match_kind: MatchKind::Exact,
            key_width: 128,
            value_width: 512,
            depth: 5000,
            stateful: false,
        };
        assert_eq!(tbl.storage_bits(), 5000 * (128 + 512));
        assert_eq!(ObjectKind::Hash { algo: HashAlgo::Crc16, modulus: None }.storage_bits(), 0);
    }

    #[test]
    fn hash_algo_parsing_and_width() {
        assert_eq!(HashAlgo::parse("crc_16"), Some(HashAlgo::Crc16));
        assert_eq!(HashAlgo::parse("CRC32"), Some(HashAlgo::Crc32));
        assert_eq!(HashAlgo::parse("identity"), Some(HashAlgo::Identity));
        assert_eq!(HashAlgo::parse("sha256"), None);
        assert_eq!(HashAlgo::Crc16.output_bits(), 16);
        assert_eq!(HashAlgo::Crc8.output_bits(), 8);
    }

    #[test]
    fn owned_declarations_record_owner() {
        let d = ObjectDecl::owned("mtb", ObjectKind::Seq { size: 4, width: 8 }, "kvs_0");
        assert_eq!(d.owner.as_deref(), Some("kvs_0"));
        let d = ObjectDecl::new("fwd", ObjectKind::Seq { size: 4, width: 8 });
        assert!(d.owner.is_none());
    }

    #[test]
    fn display_forms() {
        assert_eq!(MatchKind::Ternary.to_string(), "ternary");
        assert_eq!(SketchKind::CountMin.to_string(), "count-min");
        assert_eq!(ObjectKind::Seq { size: 1, width: 1 }.kind_name(), "Seq");
    }
}
