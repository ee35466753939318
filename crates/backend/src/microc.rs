//! Micro-C backend for the Netronome NFP smartNICs (run-to-completion).

use crate::emit::{declare_temporaries, write_lines, Args, Compute, Ident, Opnd, HDR};
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
        let _ = writeln!(out, "    {ctype} {};", Ident(&field.name));
    }
    let _ = writeln!(out, "}};");
    out.push('\n');

    // state in the hierarchical memory (IMEM for big tables, CLS for counters)
    for obj in &image.objects {
        let name = Ident(&obj.name);
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
        Ident(&image.name)
    );
    let _ = writeln!(out, "    struct inc_header *hdr = pif_plugin_hdr_get_inc(headers);");
    declare_temporaries(&mut out, &image.instructions, "uint32_t", " = 0");
    write_lines(&mut out, &image.instructions, HDR, statement);
    let _ = writeln!(out, "    return PIF_PLUGIN_RETURN_FORWARD;");
    let _ = writeln!(out, "}}");
    out
}

fn statement(out: &mut String, op: &OpCode) {
    let o = |op| Opnd(op, HDR);
    let (args, subscripts) = (|ops| Args(ops, ", ", HDR), |ops| Args(ops, "][", HDR));
    let _ = match op {
        OpCode::Assign { .. } | OpCode::Alu { .. } | OpCode::Cmp { .. } => {
            write!(out, "{}", Compute(op, HDR))
        }
        OpCode::Hash { dest, object, keys } => {
            write!(out, "{} = crc_32({}); /* {} */", Ident(dest), args(keys), Ident(object))
        }
        OpCode::ReadState { dest, object, index } => {
            write!(out, "{} = {}[{}];", Ident(dest), Ident(object), subscripts(index))
        }
        OpCode::WriteState { object, index, value } => {
            write!(out, "{}[{}] = {};", Ident(object), subscripts(index), args(value))
        }
        OpCode::CountState { dest: Some(d), object, index, delta } => write!(
            out,
            "{obj}[{idx}] += {}; {} = {obj}[{idx}];",
            o(delta),
            Ident(d),
            obj = Ident(object),
            idx = subscripts(index)
        ),
        OpCode::CountState { dest: None, object, index, delta } => {
            write!(out, "{}[{}] += {};", Ident(object), subscripts(index), o(delta))
        }
        OpCode::ClearState { object } => {
            write!(out, "memset({obj}, 0, sizeof({obj}));", obj = Ident(object))
        }
        OpCode::DeleteState { object, index } => {
            write!(out, "{}[{}] = 0;", Ident(object), subscripts(index))
        }
        OpCode::Drop => write!(out, "return PIF_PLUGIN_RETURN_DROP;"),
        OpCode::Forward => write!(out, "/* forward via normal path */"),
        OpCode::Back { .. } => write!(out, "swap_and_return(headers);"),
        OpCode::Mirror { .. } => write!(out, "mirror_to_host(headers);"),
        OpCode::Multicast { group } => write!(out, "multicast(headers, {});", o(group)),
        OpCode::CopyTo { target, values } => {
            write!(out, "copy_to_{}({});", Ident(target), args(values))
        }
        OpCode::SetHeader { field, value } => write!(out, "hdr->{} = {};", Ident(field), o(value)),
        OpCode::NoOp => write!(out, "/* removed */"),
        other => write!(out, "/* {} */", other.mnemonic()),
    };
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
