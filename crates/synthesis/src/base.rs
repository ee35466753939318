//! The operator's base program.
//!
//! Every device runs basic network functions regardless of INC: header
//! validation, a forwarding decision, and housekeeping counters.  For synthesis
//! the base program is split into a *head* (everything user snippets depend on,
//! e.g. packet integrity checks — "only valid packets should be handed to the
//! user programs") and a *tail* (everything that depends on the user snippets,
//! e.g. the final forwarding decision, which must observe address rewrites made
//! by programs like NetCache).

use crate::merge::extend_image;
use clickinc_ir::{CmpOp, IrProgram, Operand, Predicate, ProgramBuilder, ValueType};

/// A base program split into its head and tail parts.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseProgram {
    /// Functions the user snippets depend on (parse + validate).
    pub head: IrProgram,
    /// Functions that depend on the user snippets (forwarding + counters).
    pub tail: IrProgram,
}

impl BaseProgram {
    /// Total instruction count of the base program.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether the base program is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The image a device runs before any tenant lands on it (Fig. 10(b)):
    /// `head`, then `tail`.  Tenant slices go in between, ahead of the last
    /// `tail.len()` instructions, through [`extend_image`].
    pub fn image(&self) -> IrProgram {
        let mut image = IrProgram::new("device_image");
        extend_image(&mut image, &self.head, 0);
        extend_image(&mut image, &self.tail, 0);
        image
    }
}

/// Build the representative operator base program used throughout the
/// evaluation: Ethernet/IPv4/UDP validation in the head; a LPM forwarding
/// lookup, a TTL decrement and a port counter in the tail.
pub fn base_program() -> BaseProgram {
    let mut head = ProgramBuilder::new("base_head");
    head.header("ethertype", ValueType::Bit(16));
    head.header("ip_version", ValueType::Bit(4));
    head.header("ip_ttl", ValueType::Bit(8));
    head.header("ip_dst", ValueType::Bit(32));
    head.header("udp_dport", ValueType::Bit(16));
    // validation: drop malformed packets before any user logic sees them
    head.cmp("valid_eth", CmpOp::Eq, Operand::hdr("ethertype"), Operand::int(0x0800));
    head.cmp("valid_ip", CmpOp::Eq, Operand::hdr("ip_version"), Operand::int(4));
    head.cmp("ttl_ok", CmpOp::Gt, Operand::hdr("ip_ttl"), Operand::int(0));
    head.guarded(Predicate::new(Operand::var("valid_eth"), CmpOp::Eq, Operand::int(0)), |b| {
        b.drop_packet();
    });
    head.guarded(Predicate::new(Operand::var("ttl_ok"), CmpOp::Eq, Operand::int(0)), |b| {
        b.drop_packet();
    });
    let head = head.build().expect("base head program is well-formed");

    let mut tail = ProgramBuilder::new("base_tail");
    tail.table("ipv4_lpm", clickinc_ir::MatchKind::Lpm, 32, 16, 1024, false);
    tail.array("port_counters", 1, 256, 64);
    tail.get("egress_port", "ipv4_lpm", vec![Operand::hdr("ip_dst")]);
    tail.alu("new_ttl", clickinc_ir::AluOp::Sub, Operand::hdr("ip_ttl"), Operand::int(1));
    tail.set_header("ip_ttl", Operand::var("new_ttl"));
    tail.count(None, "port_counters", vec![Operand::var("egress_port")], Operand::int(1));
    tail.forward();
    let tail = tail.build().expect("base tail program is well-formed");

    BaseProgram { head, tail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_ir::CapabilityClass;

    #[test]
    fn base_program_validates_and_is_asic_friendly() {
        let base = base_program();
        assert!(base.head.validate().is_ok());
        assert!(base.tail.validate().is_ok());
        assert!(!base.is_empty());
        assert!(base.len() >= 10);
        // the base program runs on every switch family, so it must avoid
        // Tofino-unsupported classes
        let tofino = clickinc_device::DeviceModel::tofino();
        for class in base.head.required_capabilities().union(&base.tail.required_capabilities()) {
            assert!(tofino.supports(*class), "base program uses unsupported class {class}");
        }
        let _ = CapabilityClass::Bin;
    }

    #[test]
    fn head_validates_tail_forwards() {
        let base = base_program();
        assert!(base.head.instructions.iter().any(|i| matches!(i.op, clickinc_ir::OpCode::Drop)));
        assert!(base
            .tail
            .instructions
            .iter()
            .any(|i| matches!(i.op, clickinc_ir::OpCode::Forward)));
        // all base instructions belong to the operator (no owner annotation)
        assert!(base.head.instructions.iter().all(|i| i.is_base()));
        assert!(base.tail.instructions.iter().all(|i| i.is_base()));
    }
}
