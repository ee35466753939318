//! Device model definitions and the per-family constants.

use clickinc_ir::{CapabilityClass, Resource, ResourceVector};
use std::collections::BTreeSet;
use std::fmt;

/// The device families ClickINC targets (paper §7.1 "Implementation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceKind {
    /// Intel Tofino switch ASIC (RMT pipeline, P4-16).
    Tofino,
    /// Intel Tofino2 switch ASIC (more stages / memory than Tofino).
    Tofino2,
    /// Broadcom Trident4 switch ASIC (NPL).
    Trident4,
    /// Netronome NFP multi-core smartNIC (Micro-C, run-to-completion).
    NfpSmartNic,
    /// Xilinx FPGA smartNIC (Vitis Networking P4 + HLS).
    FpgaSmartNic,
    /// Xilinx FPGA accelerator card attached to a switch as a bypass device.
    FpgaAccelerator,
    /// A plain server NIC/DPDK host — no in-network program can be placed here;
    /// used as the no-offload baseline.
    Server,
}

impl DeviceKind {
    /// All programmable kinds (excludes [`DeviceKind::Server`]).
    pub const PROGRAMMABLE: [DeviceKind; 6] = [
        DeviceKind::Tofino,
        DeviceKind::Tofino2,
        DeviceKind::Trident4,
        DeviceKind::NfpSmartNic,
        DeviceKind::FpgaSmartNic,
        DeviceKind::FpgaAccelerator,
    ];

    /// The default model for this kind.
    pub fn model(&self) -> DeviceModel {
        match self {
            DeviceKind::Tofino => DeviceModel::tofino(),
            DeviceKind::Tofino2 => DeviceModel::tofino2(),
            DeviceKind::Trident4 => DeviceModel::trident4(),
            DeviceKind::NfpSmartNic => DeviceModel::nfp_smartnic(),
            DeviceKind::FpgaSmartNic => DeviceModel::fpga_smartnic(),
            DeviceKind::FpgaAccelerator => DeviceModel::fpga_accelerator(),
            DeviceKind::Server => DeviceModel::server(),
        }
    }

    /// Stage count and per-stage capacity of this kind's model: the one
    /// place each family's resource constants are written.
    fn stage_capacity(self) -> (usize, ResourceVector) {
        match self {
            DeviceKind::Tofino => (
                12,
                ResourceVector::from_pairs(&[
                    (Resource::SramBlocks, 80.0),
                    (Resource::TcamBlocks, 24.0),
                    (Resource::StatefulAlus, 4.0),
                    (Resource::StatelessAlus, 16.0),
                    (Resource::HashUnits, 6.0),
                    (Resource::TableSlots, 16.0),
                    (Resource::GatewaySlots, 16.0),
                    (Resource::PhvBits, 6144.0),
                    (Resource::InstrSlots, 64.0),
                ]),
            ),
            DeviceKind::Tofino2 => (
                20,
                ResourceVector::from_pairs(&[
                    (Resource::SramBlocks, 160.0),
                    (Resource::TcamBlocks, 32.0),
                    (Resource::StatefulAlus, 4.0),
                    (Resource::StatelessAlus, 20.0),
                    (Resource::HashUnits, 8.0),
                    (Resource::TableSlots, 16.0),
                    (Resource::GatewaySlots, 16.0),
                    (Resource::PhvBits, 8192.0),
                    (Resource::InstrSlots, 64.0),
                ]),
            ),
            DeviceKind::Trident4 => (
                10,
                ResourceVector::from_pairs(&[
                    (Resource::SramBlocks, 60.0),
                    (Resource::TcamBlocks, 16.0),
                    (Resource::StatefulAlus, 3.0),
                    (Resource::StatelessAlus, 12.0),
                    (Resource::HashUnits, 4.0),
                    (Resource::TableSlots, 12.0),
                    (Resource::GatewaySlots, 12.0),
                    (Resource::PhvBits, 4096.0),
                    (Resource::InstrSlots, 48.0),
                ]),
            ),
            DeviceKind::NfpSmartNic => (
                1,
                ResourceVector::from_pairs(&[
                    (Resource::SramBlocks, 512.0),
                    (Resource::TcamBlocks, 8.0),
                    (Resource::StatefulAlus, 64.0),
                    (Resource::StatelessAlus, 256.0),
                    (Resource::HashUnits, 32.0),
                    (Resource::TableSlots, 64.0),
                    (Resource::GatewaySlots, 256.0),
                    (Resource::PhvBits, 16384.0),
                    (Resource::InstrSlots, 8192.0),
                ]),
            ),
            DeviceKind::FpgaSmartNic => (
                24,
                ResourceVector::from_pairs(&[
                    (Resource::SramBlocks, 64.0),
                    (Resource::TcamBlocks, 8.0),
                    (Resource::StatefulAlus, 32.0),
                    (Resource::StatelessAlus, 64.0),
                    (Resource::HashUnits, 16.0),
                    (Resource::TableSlots, 32.0),
                    (Resource::GatewaySlots, 64.0),
                    (Resource::PhvBits, 16384.0),
                    (Resource::InstrSlots, 2048.0),
                    (Resource::Lut, 162_000.0),
                    (Resource::Bram, 270.0),
                    (Resource::Dsp, 350.0),
                ]),
            ),
            DeviceKind::FpgaAccelerator => (
                32,
                ResourceVector::from_pairs(&[
                    (Resource::SramBlocks, 256.0),
                    (Resource::TcamBlocks, 16.0),
                    (Resource::StatefulAlus, 64.0),
                    (Resource::StatelessAlus, 128.0),
                    (Resource::HashUnits, 32.0),
                    (Resource::TableSlots, 64.0),
                    (Resource::GatewaySlots, 128.0),
                    (Resource::PhvBits, 32768.0),
                    (Resource::InstrSlots, 4096.0),
                    (Resource::Lut, 1_300_000.0),
                    (Resource::Bram, 2016.0),
                    (Resource::Dsp, 9024.0),
                ]),
            ),
            DeviceKind::Server => (1, ResourceVector::zero()),
        }
    }

    /// Total resource capacity of this kind's model over all stages, read
    /// without building the [`DeviceModel`] (whose capability set allocates).
    pub fn total_capacity(self) -> ResourceVector {
        let (stages, per_stage) = self.stage_capacity();
        per_stage.scaled(stages as f64)
    }

    /// The device-specific target language emitted by the backend.
    pub fn target_language(&self) -> &'static str {
        match self {
            DeviceKind::Tofino | DeviceKind::Tofino2 => "P4-16 (TNA)",
            DeviceKind::Trident4 => "NPL",
            DeviceKind::NfpSmartNic => "Micro-C",
            DeviceKind::FpgaSmartNic | DeviceKind::FpgaAccelerator => "Verilog/HLS",
            DeviceKind::Server => "DPDK C",
        }
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceKind::Tofino => "Tofino",
            DeviceKind::Tofino2 => "Tofino2",
            DeviceKind::Trident4 => "TD4",
            DeviceKind::NfpSmartNic => "NFP-NIC",
            DeviceKind::FpgaSmartNic => "FPGA-NIC",
            DeviceKind::FpgaAccelerator => "FPGA-Accel",
            DeviceKind::Server => "Server",
        };
        write!(f, "{s}")
    }
}

/// High-level execution architecture (paper Appendix D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Fixed pipeline of stages (Tofino, TD4): instructions map to stages and
    /// must respect stage ordering; no cyclic dependencies without recirculation.
    Pipeline,
    /// Run-to-completion cores (NFP): the whole snippet runs on a core; only
    /// aggregate resources constrain placement.
    Rtc,
    /// Hybrid (FPGA): a configurable pipeline with RTC-like flexibility.
    Hybrid,
}

/// The resource/capability model of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Device family.
    pub kind: DeviceKind,
    /// Execution architecture.
    pub arch: Architecture,
    /// Number of pipeline stages (1 for RTC devices).
    stages: usize,
    /// Per-stage resource capacity.
    per_stage: ResourceVector,
    /// Capability classes the device supports.
    supported: BTreeSet<CapabilityClass>,
    /// Port line rate in Gbps.
    pub line_rate_gbps: f64,
    /// Base per-packet processing latency in nanoseconds.
    pub base_latency_ns: f64,
    /// Additional latency per executed IR instruction in nanoseconds.
    pub per_instr_latency_ns: f64,
}

impl DeviceModel {
    /// Number of pipeline stages (or 1 for RTC devices).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Total resource capacity over all stages.
    pub fn total_capacity(&self) -> ResourceVector {
        self.per_stage.scaled(self.stages as f64)
    }

    /// Total state storage the device offers, in bits: SRAM + TCAM + BRAM
    /// blocks across all stages, each converted at its block size.  This is
    /// the coarse bound the verifier's resource pre-check compares a
    /// snippet's aggregate object footprint against (the placement solver
    /// still enforces the exact per-stage constraint system).
    pub fn storage_capacity_bits(&self) -> u64 {
        let total = self.total_capacity();
        (total[Resource::SramBlocks] * crate::demand::SRAM_BLOCK_BITS
            + total[Resource::TcamBlocks] * crate::demand::TCAM_BLOCK_BITS
            + total[Resource::Bram] * crate::demand::BRAM_BLOCK_BITS) as u64
    }

    /// Whether the device can execute instructions of the given class.
    pub fn supports(&self, class: CapabilityClass) -> bool {
        self.supported.contains(&class)
    }

    /// Whether the device supports every class in the set.
    pub fn supports_all<'a>(&self, classes: impl IntoIterator<Item = &'a CapabilityClass>) -> bool {
        classes.into_iter().all(|c| self.supports(*c))
    }

    /// The supported class set.
    pub fn supported_classes(&self) -> &BTreeSet<CapabilityClass> {
        &self.supported
    }

    // ---- the concrete families ------------------------------------------------

    /// Intel Tofino: RMT pipeline.  Per Appendix E.1 Tofino cannot run integer
    /// multiplication/division (BIC), floating point (BCA), direct-index tables
    /// (BDM), stateful match tables (BSEM/BSNEM) or crypto (BCF).
    pub fn tofino() -> DeviceModel {
        let (stages, per_stage) = DeviceKind::Tofino.stage_capacity();
        DeviceModel {
            kind: DeviceKind::Tofino,
            arch: Architecture::Pipeline,
            stages,
            per_stage,
            supported: classes(&[
                CapabilityClass::Bin,
                CapabilityClass::Bso,
                CapabilityClass::Bem,
                CapabilityClass::Bnem,
                CapabilityClass::Bbpf,
                CapabilityClass::Bapf,
                CapabilityClass::Baf,
            ]),
            line_rate_gbps: 100.0,
            base_latency_ns: 400.0,
            per_instr_latency_ns: 4.0,
        }
    }

    /// Intel Tofino2: same capability envelope as Tofino with more stages and
    /// roughly double the per-stage memory.
    pub fn tofino2() -> DeviceModel {
        let mut m = DeviceModel::tofino();
        m.kind = DeviceKind::Tofino2;
        (m.stages, m.per_stage) = DeviceKind::Tofino2.stage_capacity();
        m.base_latency_ns = 450.0;
        m
    }

    /// Broadcom Trident4: pipeline ASIC; unlike Tofino it supports direct-index
    /// tables (BDM) but still no BIC/BCA/BSEM/BSNEM/BCF (Appendix E.2, Eq. 21).
    pub fn trident4() -> DeviceModel {
        let (stages, per_stage) = DeviceKind::Trident4.stage_capacity();
        DeviceModel {
            kind: DeviceKind::Trident4,
            arch: Architecture::Pipeline,
            stages,
            per_stage,
            supported: classes(&[
                CapabilityClass::Bin,
                CapabilityClass::Bso,
                CapabilityClass::Bem,
                CapabilityClass::Bnem,
                CapabilityClass::Bdm,
                CapabilityClass::Bbpf,
                CapabilityClass::Bapf,
                CapabilityClass::Baf,
            ]),
            line_rate_gbps: 100.0,
            base_latency_ns: 500.0,
            per_instr_latency_ns: 5.0,
        }
    }

    /// Netronome NFP smartNIC: ~100 RTC cores with a hierarchical memory; it
    /// supports integer multiply/divide, stateful tables and ECS crypto but not
    /// floating point (BCA) or the advanced packet functions (BAPF)
    /// (Appendix E.3, Eq. 31).
    pub fn nfp_smartnic() -> DeviceModel {
        let (stages, per_stage) = DeviceKind::NfpSmartNic.stage_capacity();
        DeviceModel {
            kind: DeviceKind::NfpSmartNic,
            arch: Architecture::Rtc,
            stages,
            per_stage,
            supported: classes(&[
                CapabilityClass::Bin,
                CapabilityClass::Bic,
                CapabilityClass::Bso,
                CapabilityClass::Bem,
                CapabilityClass::Bsem,
                CapabilityClass::Bnem,
                CapabilityClass::Bsnem,
                CapabilityClass::Bdm,
                CapabilityClass::Bbpf,
                CapabilityClass::Baf,
                CapabilityClass::Bcf,
            ]),
            line_rate_gbps: 100.0,
            base_latency_ns: 1200.0,
            per_instr_latency_ns: 15.0,
        }
    }

    /// Xilinx FPGA smartNIC: hybrid pipeline, supports every class including
    /// floating point and AES.
    pub fn fpga_smartnic() -> DeviceModel {
        let (stages, per_stage) = DeviceKind::FpgaSmartNic.stage_capacity();
        DeviceModel {
            kind: DeviceKind::FpgaSmartNic,
            arch: Architecture::Hybrid,
            stages,
            per_stage,
            supported: CapabilityClass::ALL.iter().copied().collect(),
            line_rate_gbps: 100.0,
            base_latency_ns: 900.0,
            per_instr_latency_ns: 8.0,
        }
    }

    /// Xilinx Alveo-class FPGA accelerator card used as a switch bypass
    /// (larger memory than the smartNIC variant).
    pub fn fpga_accelerator() -> DeviceModel {
        let mut m = DeviceModel::fpga_smartnic();
        m.kind = DeviceKind::FpgaAccelerator;
        (m.stages, m.per_stage) = DeviceKind::FpgaAccelerator.stage_capacity();
        m.base_latency_ns = 1100.0;
        m
    }

    /// A non-programmable server endpoint (DPDK software path).
    pub fn server() -> DeviceModel {
        let (stages, per_stage) = DeviceKind::Server.stage_capacity();
        DeviceModel {
            kind: DeviceKind::Server,
            arch: Architecture::Rtc,
            stages,
            per_stage,
            supported: BTreeSet::new(),
            line_rate_gbps: 100.0,
            base_latency_ns: 20_000.0,
            per_instr_latency_ns: 30.0,
        }
    }
}

fn classes(list: &[CapabilityClass]) -> BTreeSet<CapabilityClass> {
    list.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tofino_capability_envelope_matches_appendix_e1() {
        let t = DeviceModel::tofino();
        assert!(t.supports(CapabilityClass::Bin));
        assert!(t.supports(CapabilityClass::Bso));
        assert!(t.supports(CapabilityClass::Bem));
        assert!(t.supports(CapabilityClass::Baf));
        assert!(!t.supports(CapabilityClass::Bic), "no integer multiply on Tofino");
        assert!(!t.supports(CapabilityClass::Bca), "no floating point on Tofino");
        assert!(!t.supports(CapabilityClass::Bcf), "no crypto on Tofino");
        assert!(!t.supports(CapabilityClass::Bsem));
    }

    #[test]
    fn trident4_adds_direct_match_but_not_float() {
        let t = DeviceModel::trident4();
        assert!(t.supports(CapabilityClass::Bdm));
        assert!(!t.supports(CapabilityClass::Bca));
        assert!(!t.supports(CapabilityClass::Bcf));
    }

    #[test]
    fn nfp_supports_multiply_and_crypto_but_not_float_or_multicast() {
        let n = DeviceModel::nfp_smartnic();
        assert!(n.supports(CapabilityClass::Bic));
        assert!(n.supports(CapabilityClass::Bcf));
        assert!(n.supports(CapabilityClass::Bsem));
        assert!(!n.supports(CapabilityClass::Bca));
        assert!(!n.supports(CapabilityClass::Bapf));
        assert_eq!(n.arch, Architecture::Rtc);
        assert_eq!(n.stages(), 1);
    }

    #[test]
    fn fpga_supports_everything() {
        let f = DeviceModel::fpga_smartnic();
        for c in CapabilityClass::ALL {
            assert!(f.supports(c), "FPGA should support {c}");
        }
        assert!(f.supports_all(CapabilityClass::ALL.iter()));
        let acc = DeviceModel::fpga_accelerator();
        assert!(
            acc.total_capacity()[clickinc_ir::Resource::Bram]
                > f.total_capacity()[clickinc_ir::Resource::Bram]
        );
    }

    #[test]
    fn server_is_not_programmable() {
        let s = DeviceModel::server();
        assert!(!s.supports(CapabilityClass::Bin));
    }

    #[test]
    fn tofino2_is_bigger_than_tofino() {
        let t1 = DeviceModel::tofino();
        let t2 = DeviceModel::tofino2();
        assert!(t2.stages() > t1.stages());
        assert!(
            t2.total_capacity()[clickinc_ir::Resource::SramBlocks]
                > t1.total_capacity()[clickinc_ir::Resource::SramBlocks]
        );
        assert_eq!(t1.supported_classes(), t2.supported_classes());
    }

    #[test]
    fn kind_round_trips_to_model_and_language() {
        for kind in DeviceKind::PROGRAMMABLE {
            let model = kind.model();
            assert_eq!(model.kind, kind);
            assert!(model.stages() >= 1);
            assert_eq!(kind.total_capacity(), model.total_capacity(), "{kind}");
            assert!(!kind.target_language().is_empty());
        }
        assert_eq!(DeviceKind::Tofino.target_language(), "P4-16 (TNA)");
        assert_eq!(DeviceKind::Trident4.to_string(), "TD4");
    }
}
