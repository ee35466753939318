//! The emitted device code, byte for byte: merged device images emitted on
//! every programmable target are pinned in `tests/golden/<name>.<ext>` — one
//! file per target language — so a change to any backend that moves a single
//! byte diffs here.  Regenerate with `UPDATE_GOLDEN=1 cargo test --test
//! backend_golden` and review the diff.

use clickinc::device::DeviceKind;
use clickinc::ir::{
    AluOp, CmpOp, CryptoAlgo, Guard, HashAlgo, HeaderFieldDecl, Instruction, IrProgram, MatchKind,
    Name, ObjectDecl, ObjectKind, OpCode, Operand, Predicate, SketchKind, Value, ValueType,
};
use clickinc::lang::templates::{
    count_min_sketch, kvs_template, mlagg_template, KvsParams, MlAggParams,
};
use clickinc::topology::{NodeId, Topology};
use clickinc::{Controller, ServiceRequest};
use std::collections::BTreeSet;

/// The golden file extension of a target language.
fn extension(kind: DeviceKind) -> &'static str {
    match kind {
        DeviceKind::Tofino | DeviceKind::Tofino2 => "p4",
        DeviceKind::Trident4 => "npl",
        DeviceKind::NfpSmartNic => "c",
        DeviceKind::FpgaSmartNic | DeviceKind::FpgaAccelerator => "hls",
        DeviceKind::Server => unreachable!("servers are not programmable targets"),
    }
}

/// Emit `image` for every programmable target and compare each text with
/// `tests/golden/<name>.<ext>`, or rewrite the files under `UPDATE_GOLDEN=1`.
fn assert_emits_golden(name: &str, image: &IrProgram) {
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for kind in DeviceKind::PROGRAMMABLE {
        let source = clickinc::backend::generate(kind, image).source;
        let path = golden_dir.join(format!("{name}.{}", extension(kind)));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(&golden_dir).expect("golden dir");
            std::fs::write(&path, &source).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden {} ({e}); run UPDATE_GOLDEN=1 cargo test", path.display())
        });
        assert_eq!(source, want, "{kind} code drifted from {}", path.display());
    }
}

/// The image of the first device both users occupy.
fn shared_image(controller: &Controller, a: &str, b: &str) -> IrProgram {
    let devices = |user| controller.devices_of(user).into_iter().collect::<BTreeSet<NodeId>>();
    let shared = *devices(a).intersection(&devices(b)).next().expect("the tenants share a device");
    controller.images().images[&shared].clone()
}

#[test]
fn two_kvs_tenants_on_one_device_emit_their_golden_code() {
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    for user in ["kvs_a", "kvs_b"] {
        let template = kvs_template(user, KvsParams { cache_depth: 1000, ..Default::default() });
        controller
            .deploy(ServiceRequest::from_template(template, &["pod0a"], "pod2b"))
            .expect("kvs deploys");
    }
    assert_emits_golden("kvs_pair", &shared_image(&controller, "kvs_a", "kvs_b"));
}

#[test]
fn an_mlagg_and_cms_image_with_a_removed_tenant_emits_its_golden_code() {
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let params = MlAggParams { dims: 4, num_aggregators: 256, ..Default::default() };
    let requests = [
        ServiceRequest::from_template(mlagg_template("agg", params), &["pod0a"], "pod2b"),
        ServiceRequest::from_template(count_min_sketch("cms", 3, 1024), &["pod0a"], "pod2b"),
        ServiceRequest::from_template(count_min_sketch("gone", 2, 512), &["pod0a"], "pod2b"),
    ];
    for request in requests {
        controller.deploy(request).expect("deploys");
    }
    let image = shared_image(&controller, "agg", "cms");
    assert!(image.owners().contains("gone"), "the departing tenant shares the device");
    controller.remove("gone").expect("removes");
    let image = shared_image(&controller, "agg", "cms");
    assert!(image.instructions.iter().any(|i| i.op == OpCode::NoOp), "removal left NoOps");
    assert_eq!(image.owners(), ["agg", "cms"].map(Name::from).into());
    assert_emits_golden("mlagg_cms_removed", &image);
}

/// One instruction per opcode, every operator, operand kind and constant
/// type, every object kind and names that need sanitizing — the corners the
/// template images above do not reach.
fn every_opcode_image() -> IrProgram {
    let (v, h) = (Operand::var, Operand::hdr);
    let m = |name: &str| Operand::Meta(name.into());
    let c = Operand::Const;
    let mut image = IrProgram::new("every-op");
    image.headers = vec![
        HeaderFieldDecl::new("key", ValueType::Bit(128)),
        HeaderFieldDecl::new("x.5", ValueType::Bit(7)),
        HeaderFieldDecl::new("flag", ValueType::Bool),
        HeaderFieldDecl::new("wide", ValueType::Bit(48)),
        HeaderFieldDecl::new("grad", ValueType::Float),
        HeaderFieldDecl::new("n", ValueType::Int),
    ];
    let table = |match_kind| ObjectKind::Table {
        match_kind,
        key_width: 32,
        value_width: 16,
        depth: 64,
        stateful: true,
    };
    let sketch = |kind, width| ObjectKind::Sketch { kind, rows: 2, cols: 128, width };
    image.objects = vec![
        ObjectDecl::new("rows", ObjectKind::Array { rows: 2, size: 16, width: 12 }),
        ObjectDecl::new("seq.0", ObjectKind::Seq { size: 8, width: 64 }),
        ObjectDecl::new("cms", sketch(SketchKind::CountMin, 32)),
        ObjectDecl::new("bf", sketch(SketchKind::Bloom, 1)),
        ObjectDecl::new("exact", table(MatchKind::Exact)),
        ObjectDecl::new("tern", table(MatchKind::Ternary)),
        ObjectDecl::new("lpm", table(MatchKind::Lpm)),
        ObjectDecl::new("idx", table(MatchKind::Index)),
        ObjectDecl::new("h8", ObjectKind::Hash { algo: HashAlgo::Crc8, modulus: None }),
        ObjectDecl::new("h32", ObjectKind::Hash { algo: HashAlgo::Crc32, modulus: Some(9) }),
        ObjectDecl::new("hid", ObjectKind::Hash { algo: HashAlgo::Identity, modulus: None }),
        ObjectDecl::new("aes", ObjectKind::Crypto { algo: CryptoAlgo::Aes }),
        ObjectDecl::new("ecs", ObjectKind::Crypto { algo: CryptoAlgo::Ecs }),
    ];
    let alu =
        |dest: &str, op, lhs, rhs, float| OpCode::Alu { dest: dest.into(), op, lhs, rhs, float };
    let alus = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Min,
        AluOp::Max,
        AluOp::Slice,
    ];
    let cmps = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    let mut ops = vec![
        OpCode::Assign { dest: "$t0".into(), src: c(Value::Float(2.5)) },
        OpCode::Assign { dest: "_u".into(), src: c(Value::Bool(true)) },
        OpCode::Assign { dest: "3bad".into(), src: c(Value::Bytes(vec![0, 0xab, 7])) },
        OpCode::Assign { dest: "x.5".into(), src: c(Value::None) },
        OpCode::Assign { dest: "_".into(), src: c(Value::Float(-1e300)) },
    ];
    ops.extend(alus.iter().enumerate().map(|(i, op)| {
        alu(
            &format!("a{i}"),
            *op,
            v("$t0"),
            if i % 2 == 0 { h("n") } else { Operand::int(-3) },
            i == 0,
        )
    }));
    ops.extend(cmps.iter().enumerate().map(|(i, op)| OpCode::Cmp {
        dest: format!("c{i}").into(),
        op: *op,
        lhs: m("step"),
        rhs: v("a1"),
    }));
    ops.extend([
        OpCode::Hash { dest: "hv".into(), object: "h32".into(), keys: vec![h("key"), v("x.5")] },
        OpCode::Hash { dest: "hv".into(), object: "h8".into(), keys: vec![] },
        OpCode::ReadState {
            dest: "r".into(),
            object: "rows".into(),
            index: vec![Operand::int(1), v("hv")],
        },
        OpCode::ReadState { dest: "r".into(), object: "exact".into(), index: vec![h("key")] },
        OpCode::WriteState {
            object: "rows".into(),
            index: vec![Operand::int(0), v("hv")],
            value: vec![v("r"), h("wide")],
        },
        OpCode::WriteState { object: "seq.0".into(), index: vec![v("hv")], value: vec![] },
        OpCode::CountState {
            dest: Some("cnt".into()),
            object: "cms".into(),
            index: vec![Operand::int(1), v("hv")],
            delta: Operand::int(1),
        },
        OpCode::CountState { dest: None, object: "bf".into(), index: vec![v("hv")], delta: h("n") },
        OpCode::ClearState { object: "seq.0".into() },
        OpCode::DeleteState { object: "tern".into(), index: vec![h("key"), v("r")] },
        OpCode::Drop,
        OpCode::Forward,
        OpCode::Back { updates: vec![("x.5".into(), v("cnt")), ("n".into(), Operand::int(0))] },
        OpCode::Back { updates: vec![] },
        OpCode::Mirror { updates: vec![("flag".into(), c(Value::Bool(false)))] },
        OpCode::Mirror { updates: vec![] },
        OpCode::Multicast { group: Operand::int(3) },
        OpCode::CopyTo { target: "CPU".into(), values: vec![v("r"), h("key")] },
        OpCode::CopyTo { target: "ctl.q".into(), values: vec![] },
        OpCode::SetHeader { field: "grad".into(), value: v("a0") },
        OpCode::Crypto { dest: "enc".into(), object: "aes".into(), input: h("key"), encrypt: true },
        OpCode::Crypto {
            dest: "dec".into(),
            object: "ecs".into(),
            input: v("enc"),
            encrypt: false,
        },
        OpCode::RandInt { dest: "rnd".into(), bound: Operand::int(100) },
        OpCode::Checksum { dest: "ck".into(), inputs: vec![h("key"), v("rnd"), m("inc_user")] },
        OpCode::Checksum { dest: "ck".into(), inputs: vec![] },
        OpCode::NoOp,
    ]);
    let user = |id| Predicate::new(m("inc_user"), CmpOp::Eq, Operand::int(id));
    image.instructions = ops
        .into_iter()
        .enumerate()
        .map(|(i, op)| {
            let guard = match i % 4 {
                0 => Guard::always(),
                1 => Guard::single(user(1)),
                2 => {
                    Guard::single(user(2)).and(Predicate::new(v("c0"), CmpOp::Ne, Operand::int(0)))
                }
                _ => Guard::single(Predicate::new(h("x.5"), CmpOp::Ge, c(Value::Float(0.5)))),
            };
            let instr = Instruction::guarded(i as u32, op, guard);
            match i % 3 {
                0 => instr,
                1 => instr.with_owner("t1"),
                _ => instr.with_owner("t1").with_owner("t-2"),
            }
        })
        .collect();
    image
}

#[test]
fn every_opcode_emits_its_golden_code() {
    assert_emits_golden("every_opcode", &every_opcode_image());
}
