//! NPL backend for Broadcom Trident4.

use crate::emit::{declare_temporaries, write_lines, Args, Compute, Ident, Opnd, HDR};
use clickinc_ir::{IrProgram, ObjectKind, OpCode};
use std::fmt::Write as _;

/// Generate an NPL program for the merged device image.
pub fn generate(image: &IrProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Auto-generated NPL for program `{}` (Trident4)", image.name);
    let _ = writeln!(out, "package clickinc_{};", Ident(&image.name));
    out.push('\n');

    // headers / bus declarations
    let _ = writeln!(out, "struct inc_header_t {{");
    let _ = writeln!(out, "    fields {{");
    let _ = writeln!(out, "        inc_user : 8;");
    let _ = writeln!(out, "        step : 16;");
    for field in &image.headers {
        let _ = writeln!(out, "        {} : {};", Ident(&field.name), field.ty.width_bits().max(1));
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out, "bus obj_bus {{ inc_header_t inc; }}");
    out.push('\n');

    // tables / flex state
    for obj in &image.objects {
        let name = Ident(&obj.name);
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
    declare_temporaries(&mut out, &image.instructions, "bit[32]", "");
    write_lines(&mut out, &image.instructions, HDR, statement);
    let _ = writeln!(out, "}}");
    out
}

fn statement(out: &mut String, op: &OpCode) {
    let o = |op| Opnd(op, HDR);
    let args = |ops| Args(ops, ", ", HDR);
    let _ = match op {
        OpCode::Assign { .. } | OpCode::Alu { .. } | OpCode::Cmp { .. } => {
            write!(out, "{}", Compute(op, HDR))
        }
        OpCode::Hash { dest, object, keys } => {
            write!(out, "{} = {}.compute({});", Ident(dest), Ident(object), args(keys))
        }
        OpCode::ReadState { dest, object, index } => {
            write!(out, "{} = {}.lookup({});", Ident(dest), Ident(object), args(index))
        }
        OpCode::WriteState { object, index, value } => {
            write!(out, "{}.update({}, {});", Ident(object), args(index), args(value))
        }
        OpCode::CountState { dest: Some(d), object, index, delta } => write!(
            out,
            "{} = {}.increment({}, {});",
            Ident(d),
            Ident(object),
            args(index),
            o(delta)
        ),
        OpCode::CountState { dest: None, object, index, delta } => {
            write!(out, "{}.increment({}, {});", Ident(object), args(index), o(delta))
        }
        OpCode::ClearState { object } => write!(out, "{}.reset();", Ident(object)),
        OpCode::DeleteState { object, index } => {
            write!(out, "{}.delete({});", Ident(object), args(index))
        }
        OpCode::Drop => write!(out, "drop_packet();"),
        OpCode::Forward => write!(out, "forward_packet(obj_bus);"),
        OpCode::Back { .. } => write!(out, "return_to_sender(obj_bus);"),
        OpCode::Mirror { .. } => write!(out, "mirror_packet(1);"),
        OpCode::Multicast { group } => write!(out, "multicast_packet({});", o(group)),
        OpCode::CopyTo { target, values } => {
            write!(out, "copy_to_{}({});", Ident(target), args(values))
        }
        OpCode::SetHeader { field, value } => {
            write!(out, "obj_bus.inc.{} = {};", Ident(field), o(value))
        }
        OpCode::NoOp => write!(out, "// removed"),
        other => write!(out, "// {}", other.mnemonic()),
    };
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
