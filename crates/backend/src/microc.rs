//! Micro-C backend for the Netronome NFP smartNICs (run-to-completion).

use crate::emit::{args, compute_expr, guard_expr, operand, sanitize};
use clickinc_ir::{IrProgram, ObjectKind, OpCode};
use std::fmt::Write as _;

/// Generate a Micro-C program for the merged device image.
pub fn generate(image: &IrProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Auto-generated Micro-C for program `{}` (Netronome NFP)", image.name);
    let _ = writeln!(out, "#include <nfp.h>");
    let _ = writeln!(out, "#include <pif_plugin.h>");
    out.push('\n');
    let _ = writeln!(out, "struct inc_header {{");
    let _ = writeln!(out, "    uint8_t inc_user;");
    let _ = writeln!(out, "    uint16_t step;");
    for field in &image.headers {
        let bits = field.ty.width_bits().max(1);
        let ctype = if bits <= 8 {
            "uint8_t"
        } else if bits <= 16 {
            "uint16_t"
        } else if bits <= 32 {
            "uint32_t"
        } else {
            "uint64_t"
        };
        let _ = writeln!(out, "    {ctype} {};", sanitize(&field.name));
    }
    let _ = writeln!(out, "}};");
    out.push('\n');

    // state in the hierarchical memory (IMEM for big tables, CLS for counters)
    for obj in &image.objects {
        let name = sanitize(&obj.name);
        match &obj.kind {
            ObjectKind::Array { rows, size, width } => {
                let _ = writeln!(
                    out,
                    "__declspec(imem shared) uint{}_t {name}[{rows}][{size}];",
                    width.next_power_of_two().clamp(8, 64)
                );
            }
            ObjectKind::Sketch { rows, cols, width, .. } => {
                let _ = writeln!(
                    out,
                    "__declspec(cls shared) uint{}_t {name}[{rows}][{cols}];",
                    width.next_power_of_two().clamp(8, 64)
                );
            }
            ObjectKind::Seq { size, width } => {
                let _ = writeln!(
                    out,
                    "__declspec(cls shared) uint{}_t {name}[{size}];",
                    width.next_power_of_two().clamp(8, 64)
                );
            }
            ObjectKind::Table { depth, .. } => {
                let _ = writeln!(out, "__declspec(emem shared) struct {{ uint64_t key; uint64_t value; uint8_t valid; }} {name}[{depth}];");
            }
            ObjectKind::Hash { .. } => {
                let _ = writeln!(out, "// hash `{name}` uses the NFP CRC accelerator");
            }
            ObjectKind::Crypto { .. } => {
                let _ = writeln!(out, "// crypto `{name}` uses the NFP ECS accelerator");
            }
        }
    }
    out.push('\n');

    let _ = writeln!(
        out,
        "int pif_plugin_{}(EXTRACTED_HEADERS_T *headers, MATCH_DATA_T *match) {{",
        sanitize(&image.name)
    );
    let _ = writeln!(out, "    struct inc_header *hdr = pif_plugin_hdr_get_inc(headers);");
    let mut declared = std::collections::BTreeSet::new();
    for instr in &image.instructions {
        if let Some(dest) = instr.dest() {
            let d = sanitize(dest);
            if declared.insert(d.clone()) {
                let _ = writeln!(out, "    uint32_t {d} = 0;");
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
    let _ = writeln!(out, "    return PIF_PLUGIN_RETURN_FORWARD;");
    let _ = writeln!(out, "}}");
    out
}

fn instruction_line(instr: &clickinc_ir::Instruction) -> String {
    if let Some((dest, expr)) = compute_expr(&instr.op) {
        return format!("{dest} = {expr};");
    }
    match &instr.op {
        OpCode::Hash { dest, object, keys } => {
            format!("{} = crc_32({}); /* {} */", sanitize(dest), args(keys), sanitize(object))
        }
        OpCode::ReadState { dest, object, index } => {
            format!(
                "{} = {}[{}];",
                sanitize(dest),
                sanitize(object),
                args(index).replace(", ", "][")
            )
        }
        OpCode::WriteState { object, index, value } => {
            format!("{}[{}] = {};", sanitize(object), args(index).replace(", ", "]["), args(value))
        }
        OpCode::CountState { dest, object, index, delta } => {
            let idx = args(index).replace(", ", "][");
            match dest {
                Some(d) => format!(
                    "{}[{}] += {}; {} = {}[{}];",
                    sanitize(object),
                    idx,
                    operand(delta),
                    sanitize(d),
                    sanitize(object),
                    idx
                ),
                None => format!("{}[{}] += {};", sanitize(object), idx, operand(delta)),
            }
        }
        OpCode::ClearState { object } => {
            format!("memset({}, 0, sizeof({}));", sanitize(object), sanitize(object))
        }
        OpCode::DeleteState { object, index } => {
            format!("{}[{}] = 0;", sanitize(object), args(index).replace(", ", "]["))
        }
        OpCode::Drop => "return PIF_PLUGIN_RETURN_DROP;".to_string(),
        OpCode::Forward => "/* forward via normal path */".to_string(),
        OpCode::Back { .. } => "swap_and_return(headers);".to_string(),
        OpCode::Mirror { .. } => "mirror_to_host(headers);".to_string(),
        OpCode::Multicast { group } => format!("multicast(headers, {});", operand(group)),
        OpCode::CopyTo { target, values } => {
            format!("copy_to_{}({});", sanitize(target), args(values))
        }
        OpCode::SetHeader { field, value } => {
            format!("hdr->{} = {};", sanitize(field), operand(value))
        }
        OpCode::NoOp => "/* removed */".to_string(),
        other => format!("/* {} */", other.mnemonic()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{mlagg_template, MlAggParams};

    #[test]
    fn mlagg_microc_uses_hierarchical_memory_and_plugin_entry() {
        let t = mlagg_template(
            "mlagg",
            MlAggParams { dims: 4, num_aggregators: 128, ..Default::default() },
        );
        let ir = compile_source("mlagg", &t.source).unwrap();
        let c = generate(&ir);
        assert!(c.contains("__declspec(imem shared)"));
        assert!(c.contains("pif_plugin_mlagg"));
        assert!(c.contains("PIF_PLUGIN_RETURN_DROP"));
        assert!(c.contains("agg_data_t[4][128]") || c.contains("agg_data_t"));
    }
}
