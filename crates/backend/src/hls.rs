//! HLS C++ backend for Xilinx FPGA smartNICs and accelerator cards.

use crate::emit::{args, compute_expr, guard_expr, operand, sanitize};
use clickinc_ir::{IrProgram, ObjectKind, OpCode};
use std::fmt::Write as _;

/// Generate an HLS C++ kernel for the merged device image.
pub fn generate(image: &IrProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Auto-generated Vitis HLS kernel for program `{}`", image.name);
    let _ = writeln!(out, "#include <ap_int.h>");
    let _ = writeln!(out, "#include <hls_stream.h>");
    out.push('\n');
    let _ = writeln!(out, "struct inc_packet_t {{");
    let _ = writeln!(out, "    ap_uint<8> inc_user;");
    let _ = writeln!(out, "    ap_uint<16> step;");
    for field in &image.headers {
        let _ = writeln!(
            out,
            "    ap_uint<{}> {};",
            field.ty.width_bits().max(1),
            sanitize(&field.name)
        );
    }
    let _ = writeln!(out, "    bool drop;");
    let _ = writeln!(out, "}};");
    out.push('\n');

    for obj in &image.objects {
        let name = sanitize(&obj.name);
        match &obj.kind {
            ObjectKind::Array { rows, size, width } => {
                let _ = writeln!(out, "static ap_uint<{width}> {name}[{rows}][{size}];");
                let _ =
                    writeln!(out, "#pragma HLS BIND_STORAGE variable={name} type=ram_2p impl=uram");
            }
            ObjectKind::Sketch { rows, cols, width, .. } => {
                let _ = writeln!(out, "static ap_uint<{width}> {name}[{rows}][{cols}];");
                let _ =
                    writeln!(out, "#pragma HLS BIND_STORAGE variable={name} type=ram_2p impl=bram");
            }
            ObjectKind::Seq { size, width } => {
                let _ = writeln!(out, "static ap_uint<{width}> {name}[{size}];");
            }
            ObjectKind::Table { key_width, value_width, depth, .. } => {
                let _ = writeln!(out, "struct {name}_entry {{ ap_uint<{key_width}> key; ap_uint<{value_width}> value; bool valid; }};");
                let _ = writeln!(out, "static {name}_entry {name}[{depth}];");
                let _ =
                    writeln!(out, "#pragma HLS BIND_STORAGE variable={name} type=ram_2p impl=uram");
            }
            ObjectKind::Hash { algo, .. } => {
                let _ = writeln!(
                    out,
                    "// hash `{name}`: crc{} implemented in fabric",
                    algo.output_bits()
                );
            }
            ObjectKind::Crypto { algo } => {
                let _ = writeln!(
                    out,
                    "// crypto `{name}`: {algo:?} core instantiated from the Vitis library"
                );
            }
        }
    }
    out.push('\n');

    let _ = writeln!(
        out,
        "void {}(hls::stream<inc_packet_t>& in, hls::stream<inc_packet_t>& out) {{",
        sanitize(&image.name)
    );
    let _ = writeln!(out, "#pragma HLS INTERFACE axis port=in");
    let _ = writeln!(out, "#pragma HLS INTERFACE axis port=out");
    let _ = writeln!(out, "#pragma HLS PIPELINE II=1");
    let _ = writeln!(out, "    inc_packet_t pkt = in.read();");
    let mut declared = std::collections::BTreeSet::new();
    for instr in &image.instructions {
        if let Some(dest) = instr.dest() {
            let d = sanitize(dest);
            if declared.insert(d.clone()) {
                let _ = writeln!(out, "    ap_uint<32> {d} = 0;");
            }
        }
    }
    for instr in &image.instructions {
        let line = instruction_line(instr);
        match &instr.guard {
            Some(g) => {
                let _ = writeln!(
                    out,
                    "    if ({}) {{ {line} }}",
                    guard_expr(g).replace("hdr.inc.", "pkt.")
                );
            }
            None => {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
    let _ = writeln!(out, "    if (!pkt.drop) out.write(pkt);");
    let _ = writeln!(out, "}}");
    out.replace("hdr.inc.", "pkt.")
}

fn instruction_line(instr: &clickinc_ir::Instruction) -> String {
    if let Some((dest, expr)) = compute_expr(&instr.op) {
        return format!("{dest} = {expr};");
    }
    match &instr.op {
        OpCode::Hash { dest, object, keys } => {
            format!("{} = crc16({}); /* {} */", sanitize(dest), args(keys), sanitize(object))
        }
        OpCode::ReadState { dest, object, index } => {
            format!("{} = {}[{}];", sanitize(dest), sanitize(object), args(index).replace(", ", "]["))
        }
        OpCode::WriteState { object, index, value } => {
            format!("{}[{}] = {};", sanitize(object), args(index).replace(", ", "]["), args(value))
        }
        OpCode::CountState { dest, object, index, delta } => {
            let idx = args(index).replace(", ", "][");
            match dest {
                Some(d) => format!(
                    "{obj}[{idx}] += {dlt}; {d} = {obj}[{idx}];",
                    obj = sanitize(object),
                    idx = idx,
                    dlt = operand(delta),
                    d = sanitize(d)
                ),
                None => format!("{}[{}] += {};", sanitize(object), idx, operand(delta)),
            }
        }
        OpCode::ClearState { object } => format!("clear_loop: for (int i = 0; i < (int)(sizeof({obj})/sizeof({obj}[0])); i++) {obj}[i] = 0;", obj = sanitize(object)),
        OpCode::DeleteState { object, index } => {
            format!("{}[{}] = 0;", sanitize(object), args(index).replace(", ", "]["))
        }
        OpCode::Drop => "pkt.drop = true;".to_string(),
        OpCode::Forward => "/* pass through */".to_string(),
        OpCode::Back { .. } => "pkt.step = 0xffff; /* bounce to sender */".to_string(),
        OpCode::Mirror { .. } => "/* mirror to host DMA */".to_string(),
        OpCode::Multicast { group } => format!("/* multicast group {} */", operand(group)),
        OpCode::CopyTo { target, values } => format!("/* copy to {}: {} */", sanitize(target), args(values)),
        OpCode::SetHeader { field, value } => format!("pkt.{} = {};", sanitize(field), operand(value)),
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
    fn float_mlagg_hls_has_pipeline_pragma_and_uram_storage() {
        let t = mlagg_template(
            "mlagg_f",
            MlAggParams { dims: 4, is_float: true, num_aggregators: 256, ..Default::default() },
        );
        let ir = compile_source("mlagg_f", &t.source).unwrap();
        let hls = generate(&ir);
        assert!(hls.contains("#pragma HLS PIPELINE II=1"));
        assert!(hls.contains("BIND_STORAGE"));
        assert!(hls.contains("ap_uint<32> agg_data_t[4][256];"));
        assert!(hls.contains("pkt.drop"));
        assert!(!hls.contains("hdr.inc."), "header accesses are rewritten to the packet struct");
    }
}
