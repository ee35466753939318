//! P4-16 (TNA) backend for Tofino-class switches.

use crate::emit::{declare_temporaries, Args, Compute, GuardExpr, Ident, Opnd, HDR};
use clickinc_ir::{IrProgram, MatchKind, Name, ObjectKind, OpCode};
use std::fmt::Write as _;

/// Generate a P4-16 program for the merged device image.
pub fn generate(image: &IrProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Auto-generated by the ClickINC backend for program `{}`", image.name);
    let _ = writeln!(out, "#include <core.p4>");
    let _ = writeln!(out, "#include <tna.p4>");
    out.push('\n');

    // ---- headers ----------------------------------------------------------
    let _ = writeln!(out, "header ethernet_h {{ bit<48> dst; bit<48> src; bit<16> ethertype; }}");
    let _ = writeln!(out, "header ipv4_h {{ bit<4> version; bit<4> ihl; bit<8> tos; bit<16> len; bit<16> id; bit<16> frag; bit<8> ttl; bit<8> proto; bit<16> csum; bit<32> src; bit<32> dst; }}");
    let _ = writeln!(
        out,
        "header udp_h {{ bit<16> sport; bit<16> dport; bit<16> len; bit<16> csum; }}"
    );
    let _ = writeln!(out, "header inc_h {{");
    let _ = writeln!(out, "    bit<8> inc_user;");
    let _ = writeln!(out, "    bit<16> step;");
    for field in &image.headers {
        let _ = writeln!(out, "    bit<{}> {};", field.ty.width_bits().max(1), Ident(&field.name));
    }
    let _ = writeln!(out, "}}");
    let _ = writeln!(
        out,
        "struct headers_t {{ ethernet_h ethernet; ipv4_h ipv4; udp_h udp; inc_h inc; }}"
    );
    let _ =
        writeln!(out, "struct metadata_t {{ bit<8> inc_user; bit<16> step; bit<9> egress_port; }}");
    out.push('\n');

    // ---- parser -----------------------------------------------------------
    let _ = writeln!(out, "parser IngressParser(packet_in pkt, out headers_t hdr, out metadata_t meta, out ingress_intrinsic_metadata_t ig_intr_md) {{");
    let _ = writeln!(out, "    state start {{ pkt.extract(ig_intr_md); pkt.advance(PORT_METADATA_SIZE); transition parse_ethernet; }}");
    let _ = writeln!(out, "    state parse_ethernet {{ pkt.extract(hdr.ethernet); transition select(hdr.ethernet.ethertype) {{ 0x0800: parse_ipv4; default: accept; }} }}");
    let _ = writeln!(out, "    state parse_ipv4 {{ pkt.extract(hdr.ipv4); transition select(hdr.ipv4.proto) {{ 17: parse_udp; default: accept; }} }}");
    let _ = writeln!(out, "    state parse_udp {{ pkt.extract(hdr.udp); transition parse_inc; }}");
    let _ = writeln!(out, "    state parse_inc {{ pkt.extract(hdr.inc); transition accept; }}");
    let _ = writeln!(out, "}}");
    out.push('\n');

    // ---- state objects ------------------------------------------------------
    for obj in &image.objects {
        let name = Ident(&obj.name);
        match &obj.kind {
            ObjectKind::Array { rows, size, width } => {
                for row in 0..*rows {
                    let _ = writeln!(
                        out,
                        "Register<bit<{width}>, bit<32>>({size}) reg_{name}_row{row};"
                    );
                    let _ = writeln!(
                        out,
                        "RegisterAction<bit<{width}>, bit<32>, bit<{width}>>(reg_{name}_row{row}) ra_{name}_row{row} = {{ void apply(inout bit<{width}> v, out bit<{width}> rv) {{ rv = v; }} }};"
                    );
                }
            }
            ObjectKind::Seq { size, width } => {
                let _ = writeln!(out, "Register<bit<{width}>, bit<32>>({size}) reg_{name};");
            }
            ObjectKind::Sketch { rows, cols, width, .. } => {
                for row in 0..*rows {
                    let _ = writeln!(
                        out,
                        "Register<bit<{width}>, bit<32>>({cols}) sketch_{name}_row{row};"
                    );
                    let _ =
                        writeln!(out, "Hash<bit<16>>(HashAlgorithm_t.CRC16) hash_{name}_row{row};");
                }
            }
            ObjectKind::Table { match_kind, key_width, value_width, depth, .. } => {
                let match_str = match match_kind {
                    MatchKind::Exact => "exact",
                    MatchKind::Ternary => "ternary",
                    MatchKind::Lpm => "lpm",
                    MatchKind::Index => "exact",
                };
                let _ = writeln!(
                    out,
                    "action {name}_hit(bit<{value_width}> value) {{ meta.step = meta.step; }}"
                );
                let _ = writeln!(out, "action {name}_miss() {{ }}");
                let _ = writeln!(out, "table {name} {{");
                let _ =
                    writeln!(out, "    key = {{ hdr.inc.key : {match_str}; }} // bit<{key_width}>");
                let _ = writeln!(out, "    actions = {{ {name}_hit; {name}_miss; }}");
                let _ = writeln!(out, "    size = {depth};");
                let _ = writeln!(out, "    default_action = {name}_miss();");
                let _ = writeln!(out, "}}");
            }
            ObjectKind::Hash { algo, .. } => {
                let _ = writeln!(
                    out,
                    "Hash<bit<{}>>(HashAlgorithm_t.CRC{}) hash_{name};",
                    algo.output_bits(),
                    algo.output_bits()
                );
            }
            ObjectKind::Crypto { .. } => {
                let _ = writeln!(out, "// crypto unit `{name}` is not supported on Tofino targets");
            }
        }
    }
    out.push('\n');

    // ---- ingress control ------------------------------------------------------
    let _ = writeln!(out, "control Ingress(inout headers_t hdr, inout metadata_t meta, in ingress_intrinsic_metadata_t ig_intr_md, inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md, inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {{");
    declare_temporaries(&mut out, &image.instructions, "bit<32>", " = 0");
    let _ = writeln!(out, "    apply {{");
    for instr in &image.instructions {
        match &instr.guard {
            Some(g) => {
                let _ = write!(out, "        if ({}) {{", GuardExpr(g, HDR));
                owner_note(&mut out, &instr.owners);
                write_body(&mut out, &instr.op, "            ", &[]);
                let _ = writeln!(out, "        }}");
            }
            None => write_body(&mut out, &instr.op, "        ", &instr.owners),
        }
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    out.push('\n');
    let _ = writeln!(out, "control IngressDeparser(packet_out pkt, inout headers_t hdr, in metadata_t meta, in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {{");
    let _ = writeln!(out, "    apply {{ pkt.emit(hdr); }}");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out, "Pipeline(IngressParser(), Ingress(), IngressDeparser()) pipe;");
    let _ = writeln!(out, "Switch(pipe) main;");
    out
}

/// End the line with ` // @owner: a,b` when the instruction has owners.
fn owner_note(out: &mut String, owners: &[Name]) {
    for (i, owner) in owners.iter().enumerate() {
        out.push_str(if i == 0 { " // @owner: " } else { "," });
        out.push_str(owner);
    }
    out.push('\n');
}

/// Write the statements of `op`, one a line, each indented by `indent` and
/// ended by the owner note of `owners`.
fn write_body(out: &mut String, op: &OpCode, indent: &str, owners: &[Name]) {
    macro_rules! line {
        ($($fmt:tt)*) => {{
            out.push_str(indent);
            let _ = write!(out, $($fmt)*);
            owner_note(out, owners);
        }};
    }
    let o = |op| Opnd(op, HDR);
    let args = |ops| Args(ops, ", ", HDR);
    match op {
        OpCode::Assign { .. } | OpCode::Alu { .. } | OpCode::Cmp { .. } => {
            line!("{}", Compute(op, HDR))
        }
        OpCode::Hash { dest, object, keys } => {
            line!("{} = hash_{}.get({{{}}});", Ident(dest), Ident(object), args(keys))
        }
        OpCode::ReadState { dest, object, index } => {
            line!("{} = ra_{}.execute({});", Ident(dest), Ident(object), args(index))
        }
        OpCode::WriteState { object, index, value } => {
            line!("ra_{}.write({}, {});", Ident(object), args(index), args(value))
        }
        OpCode::CountState { dest, object, index, delta } => {
            line!("ra_{}.add({}, {});", Ident(object), args(index), o(delta));
            if let Some(d) = dest {
                line!("{} = ra_{}.read({});", Ident(d), Ident(object), args(index));
            }
        }
        OpCode::ClearState { object } => line!("ra_{}.clear();", Ident(object)),
        OpCode::DeleteState { object, index } => {
            line!("ra_{}.invalidate({});", Ident(object), args(index))
        }
        OpCode::Drop => line!("ig_dprsr_md.drop_ctl = 1;"),
        OpCode::Forward => line!("ig_tm_md.ucast_egress_port = meta.egress_port;"),
        OpCode::Back { updates } => {
            line!("swap_addresses(hdr);");
            for (field, value) in updates {
                line!("hdr.inc.{} = {};", Ident(field), o(value));
            }
            line!("ig_tm_md.ucast_egress_port = ig_intr_md.ingress_port;");
        }
        OpCode::Mirror { updates } => {
            line!("ig_dprsr_md.mirror_type = 1;");
            for (field, value) in updates {
                line!("hdr.inc.{} = {};", Ident(field), o(value));
            }
        }
        OpCode::Multicast { group } => line!("ig_tm_md.mcast_grp_a = (bit<16>){};", o(group)),
        OpCode::CopyTo { target, values } => {
            line!("digest_{}.pack({{{}}});", Ident(target), args(values))
        }
        OpCode::SetHeader { field, value } => line!("hdr.inc.{} = {};", Ident(field), o(value)),
        OpCode::Crypto { dest, object, input, .. } => line!(
            "{} = crypto_{}.run({}); // unsupported on Tofino",
            Ident(dest),
            Ident(object),
            o(input)
        ),
        OpCode::RandInt { dest, bound } => line!("{} = rng.get() % {};", Ident(dest), o(bound)),
        OpCode::Checksum { dest, inputs } => {
            line!("{} = csum16.update({{{}}});", Ident(dest), args(inputs))
        }
        OpCode::NoOp => line!("// removed user instruction"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{count_min_sketch, mlagg_template, MlAggParams};

    #[test]
    fn cms_p4_contains_registers_hashes_and_guards() {
        let t = count_min_sketch("cms", 3, 65536);
        let ir = compile_source("cms", &t.source).unwrap();
        let p4 = generate(&ir);
        assert!(p4.contains("Register<bit<32>, bit<32>>(65536)"));
        assert!(p4.contains("HashAlgorithm_t.CRC16"));
        assert!(p4.contains("Pipeline("));
        assert!(p4.contains("parse_inc"));
    }

    #[test]
    fn mlagg_p4_declares_one_register_per_dimension_row() {
        let t = mlagg_template(
            "mlagg",
            MlAggParams { dims: 4, num_aggregators: 64, ..Default::default() },
        );
        let ir = compile_source("mlagg", &t.source).unwrap();
        let p4 = generate(&ir);
        for row in 0..4 {
            assert!(p4.contains(&format!("reg_agg_data_t_row{row}")), "row {row} register missing");
        }
        assert!(p4.contains("if ("), "guards materialize as if statements");
        assert!(p4.contains("@owner") || !ir.instructions.iter().any(|i| !i.owners.is_empty()));
    }
}
