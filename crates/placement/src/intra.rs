//! Intra-device instruction allocation (paper Algorithm 2).
//!
//! Given one device and the instructions of the blocks assigned to it, decide
//! whether they fit and, for pipeline devices, which stage each instruction
//! occupies.  The allocation must respect:
//!
//! * **capability** — every instruction's class must be supported by the device
//!   (or its bypass accelerator);
//! * **dependencies** — on a pipeline, an instruction must sit in a strictly
//!   later stage than the instructions it depends on (packets never flow
//!   backwards; recirculation is not allowed, Appendix D);
//! * **resources** — per-stage resource capacities (pipeline) or the aggregate
//!   capacity (RTC / hybrid devices), netted against what previous tenants
//!   already consumed.
//!
//! The paper's Algorithm 2 enumerates instruction subsets with dominance
//! pruning; because the frontend produces SSA straight-line code, a greedy
//! earliest-stage assignment over a topological order achieves the same compact
//! placements (each stage is filled before the next is opened) and is what we
//! implement here.

use crate::network::PlacementDevice;
use clickinc_device::{instruction_demand, object_demand, Architecture, DeviceKind, DeviceModel};
use clickinc_ir::{classify_instruction, DependencyKind, IrProgram, ResourceVector};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The result of allocating a set of instructions onto one device.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAllocation {
    /// Stage index assigned to each instruction (instruction index → stage).
    /// RTC devices place everything in stage 0.
    pub stage_of: BTreeMap<usize, usize>,
    /// Number of stages actually used.
    pub stages_used: usize,
    /// Total resource demand of the allocation (per physical device).
    pub demand: ResourceVector,
}

impl StageAllocation {
    /// An empty allocation.
    pub fn empty() -> StageAllocation {
        StageAllocation {
            stage_of: BTreeMap::new(),
            stages_used: 0,
            demand: ResourceVector::zero(),
        }
    }

    /// Number of instructions allocated.
    pub fn len(&self) -> usize {
        self.stage_of.len()
    }

    /// Whether nothing was allocated.
    pub fn is_empty(&self) -> bool {
        self.stage_of.is_empty()
    }
}

/// What the placement DP keeps of an allocation — a [`StageAllocation`]
/// without the per-instruction stage map: 104 bytes, `Copy`, no heap.  The
/// DP tables and the [`SolveCache`](crate::SolveCache) carry this; the stage
/// map is built only for the segments a plan ends up using.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SegFit {
    /// Number of stages actually used.
    pub(crate) stages_used: usize,
    /// Total resource demand of the segment (per physical device).
    pub(crate) demand: ResourceVector,
}

impl SegFit {
    /// The fit of no instructions.
    pub(crate) const EMPTY: SegFit = SegFit { stages_used: 0, demand: ResourceVector::ZERO };
}

/// One slot per [`DeviceKind`] variant (`Server`, the last, included).
const DEVICE_KINDS: usize = DeviceKind::Server as usize + 1;

/// What a program demands of one device kind: `instruction_demand` per
/// instruction and `object_demand` per declared object.  Both read only the
/// model's kind and the architecture the kind fixes.
#[derive(Debug, PartialEq)]
struct KindDemand {
    arch: Architecture,
    instr: Vec<ResourceVector>,
    object: Vec<ResourceVector>,
}

/// The facts the stage allocator needs about a program, derived once so the
/// placement DP (which evaluates thousands of segments per solve) reads them
/// by index.  The answers are identical — the facts are a cache of pure
/// derivations, not a different algorithm.  None of them reads a name, only
/// which instructions and objects share one, so one program isolated under
/// two tenants has equal facts and a solve for either may use them (see
/// [`PlacementInputs`](crate::PlacementInputs)).
#[derive(Debug, PartialEq)]
pub struct SegFacts {
    /// Capability class per instruction index.
    class_of: Vec<clickinc_ir::CapabilityClass>,
    /// Data-dependency predecessors per instruction index (program order).
    data_preds: Vec<Vec<usize>>,
    /// Index into `program.objects` of the object each instruction names
    /// (the first declaration of that name, as `IrProgram::object` finds it).
    object_of: Vec<Option<usize>>,
    /// Demand vectors per device kind met, filled on first use.
    demand: [OnceLock<KindDemand>; DEVICE_KINDS],
}

impl SegFacts {
    /// Derive classes, data dependencies and object indices for `program`.
    pub fn new(program: &IrProgram) -> SegFacts {
        let class_of = program
            .instructions
            .iter()
            .map(|i| classify_instruction(i, &program.objects))
            .collect();
        let mut data_preds: Vec<Vec<usize>> = vec![Vec::new(); program.instructions.len()];
        for (a, b, kind) in &program.dependencies() {
            if *kind == DependencyKind::Data {
                data_preds[*b].push(*a);
            }
        }
        let object_of = program
            .instructions
            .iter()
            .map(|i| {
                i.object().and_then(|name| program.objects.iter().position(|o| o.name == name))
            })
            .collect();
        SegFacts { class_of, data_preds, object_of, demand: Default::default() }
    }

    /// Fill the demand of every device kind, not only the kinds a solve met,
    /// so two sets of facts compare in full.
    pub(crate) fn fill(&self, program: &IrProgram) {
        for kind in DeviceKind::PROGRAMMABLE.into_iter().chain([DeviceKind::Server]) {
            self.demand_on(program, &kind.model());
        }
    }

    fn demand_on(&self, program: &IrProgram, model: &DeviceModel) -> &KindDemand {
        let demand = self.demand[model.kind as usize].get_or_init(|| KindDemand {
            arch: model.arch,
            instr: (program.instructions.iter())
                .map(|i| instruction_demand(model, program, i))
                .collect(),
            object: program.objects.iter().map(|o| object_demand(model, &o.kind)).collect(),
        });
        debug_assert_eq!(demand.arch, model.arch, "a device kind fixes its architecture");
        demand
    }
}

/// A program with its [`SegFacts`]: what the stage allocator reads.
pub struct SegContext<'a> {
    program: &'a IrProgram,
    facts: &'a SegFacts,
}

impl<'a> SegContext<'a> {
    /// Pair `program` with facts derived from it (or from the same program
    /// isolated under another tenant).
    pub fn new(program: &'a IrProgram, facts: &'a SegFacts) -> SegContext<'a> {
        SegContext { program, facts }
    }

    /// The program the context reads.
    pub fn program(&self) -> &'a IrProgram {
        self.program
    }
}

/// Try to allocate `instrs` (indices into `program`) onto `device`.
///
/// Returns `None` if the device cannot execute them (capability violation) or
/// they do not fit (stage or resource exhaustion).
pub fn allocate_stages(
    device: &PlacementDevice,
    program: &IrProgram,
    instrs: &[usize],
) -> Option<StageAllocation> {
    allocate_stages_with(device, &SegContext::new(program, &SegFacts::new(program)), instrs)
}

/// [`allocate_stages`] with the per-program derivations supplied by a
/// pre-built [`SegContext`].
pub fn allocate_stages_with(
    device: &PlacementDevice,
    ctx: &SegContext<'_>,
    instrs: &[usize],
) -> Option<StageAllocation> {
    let mut stage_of = BTreeMap::new();
    let SegFit { stages_used, demand } = fit_segment(device, ctx, instrs, Some(&mut stage_of))?;
    Some(StageAllocation { stage_of, stages_used, demand })
}

/// The stage allocator.  Decides whether `instrs` fit `device` and in how
/// many stages; with `stage_out` it also records the stage of every
/// instruction — the form the placement DP's inner loop calls leaves it out
/// and gets the same [`SegFit`] without building a map.
pub(crate) fn fit_segment(
    device: &PlacementDevice,
    ctx: &SegContext<'_>,
    instrs: &[usize],
    mut stage_out: Option<&mut BTreeMap<usize, usize>>,
) -> Option<SegFit> {
    if instrs.is_empty() {
        return Some(SegFit::EMPTY);
    }
    // capability check (constraint 3 of §5.4)
    let facts = ctx.facts;
    if !instrs.iter().all(|&i| device.supports(facts.class_of[i])) {
        return None;
    }

    // aggregate resource feasibility first (cheap reject, also the only check
    // for RTC devices).  Summed in `block_demand`'s order — each instruction,
    // then its object on first sight — so every `f64` is bit-equal to it.
    let model = &device.model;
    let kind_demand = facts.demand_on(ctx.program, model);
    let mut object_seen = vec![false; kind_demand.object.len()];
    let mut demand = ResourceVector::ZERO;
    for &i in instrs {
        demand += kind_demand.instr[i];
        if let Some(object) = facts.object_of[i] {
            if !std::mem::replace(&mut object_seen[object], true) {
                demand += kind_demand.object[object];
            }
        }
    }
    if !demand.fits_within(&device.available) {
        return None;
    }

    let stages = match model.arch {
        Architecture::Rtc => 1,
        _ => model.stages(),
    };
    if stages == 1 {
        if let Some(stage_of) = stage_out {
            stage_of.extend(instrs.iter().map(|&i| (i, 0)));
        }
        return Some(SegFit { stages_used: 1, demand });
    }

    // per-stage budget: total availability spread evenly over the stages (the
    // ledger tracks device-level consumption; assuming earlier tenants were
    // packed compactly this is the faithful per-stage view)
    let per_stage_budget = device.available.scaled(1.0 / stages as f64);

    // greedy earliest-stage placement over program order (which is a valid
    // topological order of the SSA data dependencies)
    // Per-stage packing only tracks the compute-side resources; object memory
    // (SRAM/TCAM/BRAM) physically spreads across stages on real chips and is
    // therefore checked once at device level by the aggregate test above.
    let mut order: Vec<usize> = instrs.to_vec();
    order.sort_unstable();
    // per instruction index, the first stage open to what depends on it: one
    // past its own once placed, 0 while it is not (and only members of
    // `instrs` ever are, so a dependency outside the segment constrains nothing)
    let mut open_after = vec![0usize; facts.class_of.len()];
    let mut stage_use: Vec<ResourceVector> = vec![ResourceVector::ZERO; stages];
    let mut stages_used = 0;

    for &i in &order {
        let need = kind_demand.instr[i];
        let min_stage = facts.data_preds[i].iter().map(|&p| open_after[p]).max().unwrap_or(0);
        let stage =
            (min_stage..stages).find(|&s| (stage_use[s] + need).fits_within(&per_stage_budget))?;
        stage_use[stage] += need;
        open_after[i] = stage + 1;
        stages_used = stages_used.max(stage + 1);
        if let Some(stage_of) = stage_out.as_deref_mut() {
            stage_of.insert(i, stage);
        }
    }
    Some(SegFit { stages_used, demand })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{PlacementNetwork, ResourceLedger};
    use clickinc_device::DeviceKind;
    use clickinc_ir::{AluOp, Operand, ProgramBuilder};
    use clickinc_topology::{reduce_for_traffic, Topology};

    fn single_device(kind: DeviceKind) -> PlacementDevice {
        let topo = Topology::chain(1, kind);
        let servers = topo.servers();
        let reduced = reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new());
        net.client[0].clone()
    }

    fn chain_program(n: usize) -> IrProgram {
        let mut b = ProgramBuilder::new("chain");
        let mut prev: Option<String> = None;
        for i in 0..n {
            let v = format!("v{i}");
            let lhs = prev.clone().map(Operand::var).unwrap_or_else(|| Operand::hdr("x"));
            b.alu(&v, AluOp::Add, lhs, Operand::int(1));
            prev = Some(v);
        }
        b.build().expect("test program is well-formed")
    }

    #[test]
    fn dependent_instructions_occupy_increasing_stages() {
        let dev = single_device(DeviceKind::Tofino);
        let program = chain_program(5);
        let instrs: Vec<usize> = (0..5).collect();
        let alloc = allocate_stages(&dev, &program, &instrs).expect("fits");
        assert_eq!(alloc.stages_used, 5, "a 5-long dependency chain needs 5 stages");
        for i in 1..5 {
            assert!(alloc.stage_of[&i] > alloc.stage_of[&(i - 1)]);
        }
        assert_eq!(alloc.len(), 5);
    }

    #[test]
    fn independent_instructions_share_a_stage() {
        let dev = single_device(DeviceKind::Tofino);
        let mut b = ProgramBuilder::new("indep");
        for i in 0..4 {
            b.alu(&format!("v{i}"), AluOp::Add, Operand::hdr("x"), Operand::int(i));
        }
        let program = b.build().expect("test program is well-formed");
        let alloc = allocate_stages(&dev, &program, &[0, 1, 2, 3]).expect("fits");
        assert_eq!(alloc.stages_used, 1);
    }

    #[test]
    fn chain_longer_than_pipeline_is_rejected() {
        let dev = single_device(DeviceKind::Tofino);
        let program = chain_program(dev.model.stages() + 3);
        let instrs: Vec<usize> = (0..program.len()).collect();
        assert!(allocate_stages(&dev, &program, &instrs).is_none());
    }

    #[test]
    fn rtc_devices_ignore_stage_ordering() {
        let dev = single_device(DeviceKind::NfpSmartNic);
        let program = chain_program(40);
        let instrs: Vec<usize> = (0..program.len()).collect();
        let alloc = allocate_stages(&dev, &program, &instrs).expect("NFP runs long chains");
        assert_eq!(alloc.stages_used, 1);
        assert!(alloc.stage_of.values().all(|s| *s == 0));
    }

    #[test]
    fn capability_violations_are_rejected() {
        let dev = single_device(DeviceKind::Tofino);
        let mut b = ProgramBuilder::new("float");
        b.falu("f", AluOp::Mul, Operand::hdr("a"), Operand::hdr("b"));
        let program = b.build().expect("test program is well-formed");
        assert!(allocate_stages(&dev, &program, &[0]).is_none(), "Tofino cannot run floats");
        let fpga = single_device(DeviceKind::FpgaSmartNic);
        assert!(allocate_stages(&fpga, &program, &[0]).is_some());
    }

    #[test]
    fn oversized_state_is_rejected() {
        let dev = single_device(DeviceKind::Tofino);
        let mut b = ProgramBuilder::new("huge");
        // far beyond a Tofino's SRAM (hundreds of MB)
        b.array("huge", 64, 1_000_000, 128);
        b.get("v", "huge", vec![Operand::hdr("k")]);
        let program = b.build().expect("test program is well-formed");
        assert!(allocate_stages(&dev, &program, &[0]).is_none());
    }

    #[test]
    fn empty_allocation_is_trivially_ok() {
        let dev = single_device(DeviceKind::Tofino);
        let program = chain_program(1);
        let alloc = allocate_stages(&dev, &program, &[]).unwrap();
        assert!(alloc.is_empty());
        assert_eq!(alloc.stages_used, 0);
        assert!(alloc.demand.is_zero());
    }

    #[test]
    fn bypass_accelerator_unlocks_unsupported_classes() {
        // a TD4 with an FPGA bypass (as on Agg4/Agg5 of the emulation topology)
        let topo = Topology::emulation_topology();
        let src = topo.find("pod0a").unwrap();
        let dst = topo.find("pod2b").unwrap();
        let reduced = reduce_for_traffic(&topo, &[src], dst, &[]);
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new());
        let agg = net.server.iter().find(|d| d.bypass.is_some()).expect("bypass agg");
        let mut b = ProgramBuilder::new("float");
        b.falu("f", AluOp::Add, Operand::hdr("a"), Operand::hdr("b"));
        let program = b.build().expect("test program is well-formed");
        assert!(allocate_stages(agg, &program, &[0]).is_some());
    }

    /// Algorithm 2 as its module doc states it, from the crates' public
    /// building blocks and nothing precomputed: `block_demand` for the
    /// aggregate test, then the earliest stage after every dependency placed
    /// so far that still has room.
    fn reference_allocation(
        device: &PlacementDevice,
        program: &IrProgram,
        instrs: &[usize],
    ) -> Option<StageAllocation> {
        use clickinc_ir::DependencyKind::Data;
        let class = |i: usize| classify_instruction(&program.instructions[i], &program.objects);
        if !instrs.iter().all(|&i| device.supports(class(i))) {
            return None;
        }
        let demand = clickinc_device::block_demand(&device.model, program, instrs);
        if !demand.fits_within(&device.available) {
            return None;
        }
        let stages = match device.model.arch {
            Architecture::Rtc => 1,
            _ => device.model.stages(),
        };
        if stages == 1 {
            let stage_of = instrs.iter().map(|&i| (i, 0)).collect();
            return Some(StageAllocation { stage_of, stages_used: 1, demand });
        }
        let budget = device.available.scaled(1.0 / stages as f64);
        let deps = program.dependencies();
        let mut order = instrs.to_vec();
        order.sort_unstable();
        let mut stage_of: BTreeMap<usize, usize> = BTreeMap::new();
        let mut used = vec![ResourceVector::zero(); stages];
        for &i in &order {
            let after = deps
                .iter()
                .filter(|(_, b, kind)| *b == i && *kind == Data)
                .filter_map(|(a, _, _)| stage_of.get(a).map(|s| s + 1))
                .max()
                .unwrap_or(0);
            let need = instruction_demand(&device.model, program, &program.instructions[i]);
            let stage = (after..stages).find(|&s| (used[s] + need).fits_within(&budget))?;
            used[stage] += need;
            stage_of.insert(i, stage);
        }
        let stages_used = stage_of.values().max().map_or(0, |s| s + 1);
        Some(StageAllocation { stage_of, stages_used, demand })
    }

    /// Every programmable kind alone, plus the bypass-equipped Trident4 of
    /// the emulation topology (Agg4/Agg5).
    fn device_menu() -> Vec<PlacementDevice> {
        let mut devices: Vec<PlacementDevice> =
            DeviceKind::PROGRAMMABLE.iter().map(|&kind| single_device(kind)).collect();
        let topo = Topology::emulation_topology();
        let (src, dst) = (topo.find("pod0a").unwrap(), topo.find("pod2b").unwrap());
        let reduced = reduce_for_traffic(&topo, &[src], dst, &[]);
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new());
        devices.push(net.server.iter().find(|d| d.bypass.is_some()).expect("bypass agg").clone());
        devices
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// The flat allocator against the reference on random contiguous
        /// block segments of the fig13 programs, on every device model, with
        /// random residual capacities.
        #[test]
        fn the_allocator_matches_the_reference_on_fig13_segments(
            program in 0usize..4,
            device in 0usize..7,
            first in proptest::prelude::any::<u16>(),
            len in proptest::prelude::any::<u16>(),
            tightness in 0u8..4,
            used in proptest::collection::vec(proptest::prelude::any::<u8>(), 12),
        ) {
            let program = &crate::fig13_programs()[program];
            let dag = clickinc_blockdag::build_block_dag(program, &Default::default());
            let order = dag.blocks_by_step();
            let j = usize::from(first) % order.len();
            let k = j + 1 + usize::from(len) % (order.len() - j);
            let mut instrs: Vec<usize> =
                order[j..k].iter().flat_map(|&b| dag.blocks()[b].instrs.iter().copied()).collect();
            instrs.sort_unstable();

            let mut device = device_menu().swap_remove(device);
            for (r, byte) in clickinc_ir::Resource::ALL.into_iter().zip(used) {
                let used = f64::from(byte) / 255.0 * f64::from(tightness) / 3.0;
                device.available[r] *= 1.0 - used;
            }

            let facts = SegFacts::new(program);
            let ctx = SegContext::new(program, &facts);
            let reference = reference_allocation(&device, program, &instrs);
            let allocation = allocate_stages_with(&device, &ctx, &instrs);
            proptest::prop_assert_eq!(&allocation, &reference);
            if let (Some(a), Some(r)) = (&allocation, &reference) {
                for res in clickinc_ir::Resource::ALL {
                    proptest::prop_assert_eq!(a.demand[res].to_bits(), r.demand[res].to_bits());
                }
            }
            let fit = allocation.map(|a| SegFit { stages_used: a.stages_used, demand: a.demand });
            proptest::prop_assert_eq!(fit_segment(&device, &ctx, &instrs, None), fit);
        }
    }
}
