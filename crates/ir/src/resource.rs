//! Generic resource-demand vectors.
//!
//! The device models (crate `clickinc-device`) describe both instruction demand
//! and per-stage / per-device capacity in the same vector space so that the
//! placement algorithm can check feasibility (`demand ≤ capacity`) and compute the
//! normalized resource-consumption term `h_r(x)` of the objective (paper Eq. 1).
//!
//! The dimensions are the union of the chip resources of Appendix E that actually
//! influence placement decisions: memory blocks (SRAM/TCAM), stateful and
//! stateless ALUs, hash units, match-action table slots, gateway (predicate)
//! slots, PHV bits, generic "instruction slots" (for RTC cores), and the FPGA
//! LUT/BRAM/DSP budgets.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Sub};

/// The resource dimensions tracked by placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// SRAM memory blocks.
    SramBlocks,
    /// TCAM memory blocks.
    TcamBlocks,
    /// Stateful ALUs (register/SALU slots).
    StatefulAlus,
    /// Stateless ALUs.
    StatelessAlus,
    /// Hash distribution units.
    HashUnits,
    /// Match-action table slots per stage.
    TableSlots,
    /// Gateway / predicate evaluation slots.
    GatewaySlots,
    /// Packet-header-vector bits occupied by carried variables.
    PhvBits,
    /// Generic instruction slots (micro-instructions on RTC cores).
    InstrSlots,
    /// FPGA lookup tables.
    Lut,
    /// FPGA block RAM (in 36Kb blocks).
    Bram,
    /// FPGA DSP slices.
    Dsp,
}

impl Resource {
    /// All dimensions in canonical order.
    pub const ALL: [Resource; 12] = [
        Resource::SramBlocks,
        Resource::TcamBlocks,
        Resource::StatefulAlus,
        Resource::StatelessAlus,
        Resource::HashUnits,
        Resource::TableSlots,
        Resource::GatewaySlots,
        Resource::PhvBits,
        Resource::InstrSlots,
        Resource::Lut,
        Resource::Bram,
        Resource::Dsp,
    ];

    /// Number of dimensions.
    pub const COUNT: usize = 12;

    fn idx(self) -> usize {
        match self {
            Resource::SramBlocks => 0,
            Resource::TcamBlocks => 1,
            Resource::StatefulAlus => 2,
            Resource::StatelessAlus => 3,
            Resource::HashUnits => 4,
            Resource::TableSlots => 5,
            Resource::GatewaySlots => 6,
            Resource::PhvBits => 7,
            Resource::InstrSlots => 8,
            Resource::Lut => 9,
            Resource::Bram => 10,
            Resource::Dsp => 11,
        }
    }

    /// Short name used in dumps.
    pub fn name(&self) -> &'static str {
        match self {
            Resource::SramBlocks => "sram",
            Resource::TcamBlocks => "tcam",
            Resource::StatefulAlus => "salu",
            Resource::StatelessAlus => "alu",
            Resource::HashUnits => "hash",
            Resource::TableSlots => "tables",
            Resource::GatewaySlots => "gateway",
            Resource::PhvBits => "phv",
            Resource::InstrSlots => "instr",
            Resource::Lut => "lut",
            Resource::Bram => "bram",
            Resource::Dsp => "dsp",
        }
    }
}

/// A dense vector over the [`Resource`] dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    values: [f64; Resource::COUNT],
}

impl ResourceVector {
    /// The zero vector, as a constant.
    pub const ZERO: ResourceVector = ResourceVector { values: [0.0; Resource::COUNT] };

    /// The zero vector.
    pub fn zero() -> ResourceVector {
        ResourceVector::ZERO
    }

    /// Build from `(resource, amount)` pairs.
    pub fn from_pairs(pairs: &[(Resource, f64)]) -> ResourceVector {
        let mut v = ResourceVector::zero();
        for (r, a) in pairs {
            v[*r] += *a;
        }
        v
    }

    /// Set one dimension (builder style).
    pub fn with(mut self, r: Resource, amount: f64) -> ResourceVector {
        self[r] = amount;
        self
    }

    /// Whether every dimension of `self` fits within `capacity`.
    pub fn fits_within(&self, capacity: &ResourceVector) -> bool {
        self.values.iter().zip(capacity.values.iter()).all(|(d, c)| *d <= *c + 1e-9)
    }

    /// Whether the vector is (numerically) all zeros.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|v| v.abs() < 1e-12)
    }

    /// Sum of all dimensions.  The placement DP's and the exhaustive
    /// search's objectives divide a demand's total by the network's available
    /// total to price its resource cost.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Mean utilization over the capacity dimensions that are non-zero.
    pub fn mean_utilization(&self, capacity: &ResourceVector) -> f64 {
        let mut n = 0usize;
        let mut acc = 0.0;
        for (d, c) in self.values.iter().zip(capacity.values.iter()) {
            if *c > 0.0 {
                acc += d / c;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            acc / n as f64
        }
    }

    /// Element-wise saturating subtraction (never goes below zero).
    pub fn saturating_sub(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = ResourceVector::zero();
        for i in 0..Resource::COUNT {
            out.values[i] = (self.values[i] - other.values[i]).max(0.0);
        }
        out
    }

    /// Scale every dimension by a factor.
    pub fn scaled(&self, factor: f64) -> ResourceVector {
        let mut out = *self;
        for v in &mut out.values {
            *v *= factor;
        }
        out
    }

    /// Iterate over `(resource, value)` pairs with non-zero value.
    pub fn nonzero(&self) -> impl Iterator<Item = (Resource, f64)> + '_ {
        Resource::ALL
            .iter()
            .copied()
            .filter(move |r| self[*r].abs() > 1e-12)
            .map(move |r| (r, self[r]))
    }
}

impl Index<Resource> for ResourceVector {
    type Output = f64;
    fn index(&self, r: Resource) -> &f64 {
        &self.values[r.idx()]
    }
}

impl IndexMut<Resource> for ResourceVector {
    fn index_mut(&mut self, r: Resource) -> &mut f64 {
        &mut self.values[r.idx()]
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        for i in 0..Resource::COUNT {
            self.values[i] += rhs.values[i];
        }
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    fn sub(self, rhs: ResourceVector) -> ResourceVector {
        let mut out = self;
        for i in 0..Resource::COUNT {
            out.values[i] -= rhs.values[i];
        }
        out
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> =
            self.nonzero().map(|(r, v)| format!("{}={:.1}", r.name(), v)).collect();
        if parts.is_empty() {
            write!(f, "{{}}")
        } else {
            write!(f, "{{{}}}", parts.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_and_builders() {
        let v =
            ResourceVector::zero().with(Resource::SramBlocks, 4.0).with(Resource::HashUnits, 1.0);
        assert_eq!(v[Resource::SramBlocks], 4.0);
        assert_eq!(v[Resource::TcamBlocks], 0.0);
        let w =
            ResourceVector::from_pairs(&[(Resource::SramBlocks, 2.0), (Resource::SramBlocks, 2.0)]);
        assert_eq!(w[Resource::SramBlocks], 4.0);
    }

    #[test]
    fn arithmetic() {
        let a = ResourceVector::zero().with(Resource::StatefulAlus, 2.0);
        let b = ResourceVector::zero().with(Resource::StatefulAlus, 3.0);
        assert_eq!((a + b)[Resource::StatefulAlus], 5.0);
        assert_eq!((b - a)[Resource::StatefulAlus], 1.0);
        assert_eq!(a.scaled(2.0)[Resource::StatefulAlus], 4.0);
        let mut c = a;
        c += b;
        assert_eq!(c[Resource::StatefulAlus], 5.0);
    }

    #[test]
    fn saturating_sub_never_negative() {
        let a = ResourceVector::zero().with(Resource::Lut, 1.0);
        let b = ResourceVector::zero().with(Resource::Lut, 5.0);
        assert_eq!(a.saturating_sub(&b)[Resource::Lut], 0.0);
        assert_eq!(b.saturating_sub(&a)[Resource::Lut], 4.0);
    }

    #[test]
    fn fits_within_capacity() {
        let cap =
            ResourceVector::zero().with(Resource::SramBlocks, 10.0).with(Resource::TcamBlocks, 2.0);
        let ok = ResourceVector::zero().with(Resource::SramBlocks, 10.0);
        let bad = ResourceVector::zero().with(Resource::TcamBlocks, 3.0);
        assert!(ok.fits_within(&cap));
        assert!(!bad.fits_within(&cap));
        assert!(ResourceVector::zero().fits_within(&cap));
    }

    #[test]
    fn utilization_metrics() {
        let cap = ResourceVector::zero()
            .with(Resource::SramBlocks, 10.0)
            .with(Resource::StatefulAlus, 4.0);
        let use_ = ResourceVector::zero()
            .with(Resource::SramBlocks, 5.0)
            .with(Resource::StatefulAlus, 4.0);
        assert!((use_.mean_utilization(&cap) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn zero_detection_and_display() {
        assert!(ResourceVector::zero().is_zero());
        let v = ResourceVector::zero().with(Resource::Dsp, 2.0);
        assert!(!v.is_zero());
        assert_eq!(ResourceVector::zero().to_string(), "{}");
        assert!(v.to_string().contains("dsp=2.0"));
        assert_eq!(v.nonzero().count(), 1);
        assert_eq!(v.total(), 2.0);
    }
}
