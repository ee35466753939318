//! P4-16 (TNA) backend for Tofino-class switches.

use crate::emit::{args, compute_expr, guard_expr, operand, sanitize};
use clickinc_ir::{IrProgram, MatchKind, ObjectKind, OpCode};
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
        let _ =
            writeln!(out, "    bit<{}> {};", field.ty.width_bits().max(1), sanitize(&field.name));
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
        let name = sanitize(&obj.name);
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
    // temporaries
    let mut declared = std::collections::BTreeSet::new();
    for instr in &image.instructions {
        if let Some(dest) = instr.dest() {
            let d = sanitize(dest);
            if declared.insert(d.clone()) {
                let _ = writeln!(out, "    bit<32> {d} = 0;");
            }
        }
    }
    let _ = writeln!(out, "    apply {{");
    for instr in &image.instructions {
        let body = instruction_body(instr);
        let owner_note = if instr.owners.is_empty() {
            String::new()
        } else {
            format!(" // @owner: {}", instr.owners.join(","))
        };
        match &instr.guard {
            Some(g) => {
                let _ = writeln!(out, "        if ({}) {{{owner_note}", guard_expr(g));
                for line in body {
                    let _ = writeln!(out, "            {line}");
                }
                let _ = writeln!(out, "        }}");
            }
            None => {
                for line in body {
                    let _ = writeln!(out, "        {line}{owner_note}");
                }
            }
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

fn instruction_body(instr: &clickinc_ir::Instruction) -> Vec<String> {
    if let Some((dest, expr)) = compute_expr(&instr.op) {
        return vec![format!("{dest} = {expr};")];
    }
    match &instr.op {
        OpCode::Hash { dest, object, keys } => {
            vec![format!("{} = hash_{}.get({{{}}});", sanitize(dest), sanitize(object), args(keys))]
        }
        OpCode::ReadState { dest, object, index } => {
            vec![format!("{} = ra_{}.execute({});", sanitize(dest), sanitize(object), args(index))]
        }
        OpCode::WriteState { object, index, value } => {
            vec![format!("ra_{}.write({}, {});", sanitize(object), args(index), args(value))]
        }
        OpCode::CountState { dest, object, index, delta } => {
            let mut lines =
                vec![format!("ra_{}.add({}, {});", sanitize(object), args(index), operand(delta))];
            if let Some(d) = dest {
                lines.push(format!(
                    "{} = ra_{}.read({});",
                    sanitize(d),
                    sanitize(object),
                    args(index)
                ));
            }
            lines
        }
        OpCode::ClearState { object } => vec![format!("ra_{}.clear();", sanitize(object))],
        OpCode::DeleteState { object, index } => {
            vec![format!("ra_{}.invalidate({});", sanitize(object), args(index))]
        }
        OpCode::Drop => vec!["ig_dprsr_md.drop_ctl = 1;".to_string()],
        OpCode::Forward => vec!["ig_tm_md.ucast_egress_port = meta.egress_port;".to_string()],
        OpCode::Back { updates } => {
            let mut lines = vec!["swap_addresses(hdr);".to_string()];
            for (field, value) in updates {
                lines.push(format!("hdr.inc.{} = {};", sanitize(field), operand(value)));
            }
            lines.push("ig_tm_md.ucast_egress_port = ig_intr_md.ingress_port;".to_string());
            lines
        }
        OpCode::Mirror { updates } => {
            let mut lines = vec!["ig_dprsr_md.mirror_type = 1;".to_string()];
            for (field, value) in updates {
                lines.push(format!("hdr.inc.{} = {};", sanitize(field), operand(value)));
            }
            lines
        }
        OpCode::Multicast { group } => {
            vec![format!("ig_tm_md.mcast_grp_a = (bit<16>){};", operand(group))]
        }
        OpCode::CopyTo { target, values } => {
            vec![format!("digest_{}.pack({{{}}});", sanitize(target), args(values))]
        }
        OpCode::SetHeader { field, value } => {
            vec![format!("hdr.inc.{} = {};", sanitize(field), operand(value))]
        }
        OpCode::Crypto { dest, object, input, .. } => vec![format!(
            "{} = crypto_{}.run({}); // unsupported on Tofino",
            sanitize(dest),
            sanitize(object),
            operand(input)
        )],
        OpCode::RandInt { dest, bound } => {
            vec![format!("{} = rng.get() % {};", sanitize(dest), operand(bound))]
        }
        OpCode::Checksum { dest, inputs } => {
            vec![format!("{} = csum16.update({{{}}});", sanitize(dest), args(inputs))]
        }
        OpCode::NoOp => vec!["// removed user instruction".to_string()],
        _ => vec![format!("// {}", instr.op.mnemonic())],
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
