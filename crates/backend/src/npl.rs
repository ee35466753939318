//! NPL backend for Broadcom Trident4.

use crate::emit::{args, compute_expr, guard_expr, operand, sanitize};
use clickinc_ir::{IrProgram, ObjectKind, OpCode};
use std::fmt::Write as _;

/// Generate an NPL program for the merged device image.
pub fn generate(image: &IrProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Auto-generated NPL for program `{}` (Trident4)", image.name);
    let _ = writeln!(out, "package clickinc_{};", sanitize(&image.name));
    out.push('\n');

    // headers / bus declarations
    let _ = writeln!(out, "struct inc_header_t {{");
    let _ = writeln!(out, "    fields {{");
    let _ = writeln!(out, "        inc_user : 8;");
    let _ = writeln!(out, "        step : 16;");
    for field in &image.headers {
        let _ =
            writeln!(out, "        {} : {};", sanitize(&field.name), field.ty.width_bits().max(1));
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out, "bus obj_bus {{ inc_header_t inc; }}");
    out.push('\n');

    // tables / flex state
    for obj in &image.objects {
        let name = sanitize(&obj.name);
        match &obj.kind {
            ObjectKind::Table { key_width, value_width, depth, .. } => {
                let _ = writeln!(out, "logical_table {name} {{");
                let _ = writeln!(out, "    min_size : {depth};");
                let _ = writeln!(out, "    key {{ fields {{ key : {key_width}; }} }}");
                let _ = writeln!(out, "    data {{ fields {{ value : {value_width}; }} }}");
                let _ = writeln!(out, "}}");
            }
            ObjectKind::Array { rows, size, width } => {
                for row in 0..*rows {
                    let _ = writeln!(
                        out,
                        "flex_state {name}_row{row} {{ entries : {size}; width : {width}; }}"
                    );
                }
            }
            ObjectKind::Sketch { rows, cols, width, .. } => {
                for row in 0..*rows {
                    let _ = writeln!(
                        out,
                        "flex_state {name}_row{row} {{ entries : {cols}; width : {width}; }}"
                    );
                }
            }
            ObjectKind::Seq { size, width } => {
                let _ = writeln!(out, "flex_state {name} {{ entries : {size}; width : {width}; }}");
            }
            ObjectKind::Hash { algo, .. } => {
                let _ =
                    writeln!(out, "hash_unit {name} {{ algorithm : crc{}; }}", algo.output_bits());
            }
            ObjectKind::Crypto { .. } => {
                let _ = writeln!(out, "// crypto object `{name}` is not supported on TD4");
            }
        }
    }
    out.push('\n');

    // processing function
    let _ = writeln!(out, "program ingress_flow {{");
    let mut declared = std::collections::BTreeSet::new();
    for instr in &image.instructions {
        if let Some(dest) = instr.dest() {
            let d = sanitize(dest);
            if declared.insert(d.clone()) {
                let _ = writeln!(out, "    bit[32] {d};");
            }
        }
    }
    for instr in &image.instructions {
        let line = instruction_line(instr);
        match &instr.guard {
            Some(g) => {
                let _ = writeln!(out, "    if ({}) {{ {line} }}", guard_expr(g));
            }
            None => {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn instruction_line(instr: &clickinc_ir::Instruction) -> String {
    if let Some((dest, expr)) = compute_expr(&instr.op) {
        return format!("{dest} = {expr};");
    }
    match &instr.op {
        OpCode::Hash { dest, object, keys } => {
            format!("{} = {}.compute({});", sanitize(dest), sanitize(object), args(keys))
        }
        OpCode::ReadState { dest, object, index } => {
            format!("{} = {}.lookup({});", sanitize(dest), sanitize(object), args(index))
        }
        OpCode::WriteState { object, index, value } => {
            format!("{}.update({}, {});", sanitize(object), args(index), args(value))
        }
        OpCode::CountState { dest, object, index, delta } => match dest {
            Some(d) => format!(
                "{} = {}.increment({}, {});",
                sanitize(d),
                sanitize(object),
                args(index),
                operand(delta)
            ),
            None => format!("{}.increment({}, {});", sanitize(object), args(index), operand(delta)),
        },
        OpCode::ClearState { object } => format!("{}.reset();", sanitize(object)),
        OpCode::DeleteState { object, index } => {
            format!("{}.delete({});", sanitize(object), args(index))
        }
        OpCode::Drop => "drop_packet();".to_string(),
        OpCode::Forward => "forward_packet(obj_bus);".to_string(),
        OpCode::Back { .. } => "return_to_sender(obj_bus);".to_string(),
        OpCode::Mirror { .. } => "mirror_packet(1);".to_string(),
        OpCode::Multicast { group } => format!("multicast_packet({});", operand(group)),
        OpCode::CopyTo { target, values } => {
            format!("copy_to_{}({});", sanitize(target), args(values))
        }
        OpCode::SetHeader { field, value } => {
            format!("obj_bus.inc.{} = {};", sanitize(field), operand(value))
        }
        OpCode::NoOp => "// removed".to_string(),
        other => format!("// {}", other.mnemonic()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{dqacc_template, DqAccParams};

    #[test]
    fn dqacc_npl_declares_flex_state_per_way() {
        let t = dqacc_template("dq", DqAccParams { depth: 1000, ways: 4 });
        let ir = compile_source("dq", &t.source).unwrap();
        let npl = generate(&ir);
        assert!(npl.contains("package clickinc_dq"));
        for way in 0..4 {
            assert!(npl.contains(&format!("cache_row{way}")), "way {way} missing");
        }
        assert!(npl.contains("hash_unit hidx"));
        assert!(npl.contains("program ingress_flow"));
    }
}
