//! HLS C++ backend for Xilinx FPGA smartNICs and accelerator cards.

use crate::emit::{declare_temporaries, write_lines, Args, Compute, Ident, Opnd};
use clickinc_ir::{IrProgram, ObjectKind, OpCode};
use std::fmt::Write as _;

/// HLS reads header fields from the packet record.
const PKT: &str = "pkt.";

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
        let _ =
            writeln!(out, "    ap_uint<{}> {};", field.ty.width_bits().max(1), Ident(&field.name));
    }
    let _ = writeln!(out, "    bool drop;");
    let _ = writeln!(out, "}};");
    out.push('\n');

    for obj in &image.objects {
        let name = Ident(&obj.name);
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
        Ident(&image.name)
    );
    let _ = writeln!(out, "#pragma HLS INTERFACE axis port=in");
    let _ = writeln!(out, "#pragma HLS INTERFACE axis port=out");
    let _ = writeln!(out, "#pragma HLS PIPELINE II=1");
    let _ = writeln!(out, "    inc_packet_t pkt = in.read();");
    declare_temporaries(&mut out, &image.instructions, "ap_uint<32>", " = 0");
    write_lines(&mut out, &image.instructions, PKT, statement);
    let _ = writeln!(out, "    if (!pkt.drop) out.write(pkt);");
    let _ = writeln!(out, "}}");
    out
}

fn statement(out: &mut String, op: &OpCode) {
    let o = |op| Opnd(op, PKT);
    let (args, subscripts) = (|ops| Args(ops, ", ", PKT), |ops| Args(ops, "][", PKT));
    let _ = match op {
        OpCode::Assign { .. } | OpCode::Alu { .. } | OpCode::Cmp { .. } => {
            write!(out, "{}", Compute(op, PKT))
        }
        OpCode::Hash { dest, object, keys } => {
            write!(out, "{} = crc16({}); /* {} */", Ident(dest), args(keys), Ident(object))
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
        OpCode::ClearState { object } => write!(out, "clear_loop: for (int i = 0; i < (int)(sizeof({obj})/sizeof({obj}[0])); i++) {obj}[i] = 0;", obj = Ident(object)),
        OpCode::DeleteState { object, index } => {
            write!(out, "{}[{}] = 0;", Ident(object), subscripts(index))
        }
        OpCode::Drop => write!(out, "pkt.drop = true;"),
        OpCode::Forward => write!(out, "/* pass through */"),
        OpCode::Back { .. } => write!(out, "pkt.step = 0xffff; /* bounce to sender */"),
        OpCode::Mirror { .. } => write!(out, "/* mirror to host DMA */"),
        OpCode::Multicast { group } => write!(out, "/* multicast group {} */", o(group)),
        OpCode::CopyTo { target, values } => {
            write!(out, "/* copy to {}: {} */", Ident(target), args(values))
        }
        OpCode::SetHeader { field, value } => write!(out, "pkt.{} = {};", Ident(field), o(value)),
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
