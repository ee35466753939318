//! Placement plans: the result of the placement algorithms.

use crate::network::PlacementNetwork;
use crate::objective::Weights;
use clickinc_blockdag::{BlockDag, BlockId};
use clickinc_device::DeviceKind;
use clickinc_ir::{classify_instruction, Fnv, IrProgram, Resource, ResourceVector};
use clickinc_topology::NodeId;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// The snippet assigned to one placement device (equivalence class).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Placement-device name (EC label).
    pub device: String,
    /// Physical devices that will run the snippet (every EC member).
    pub members: Vec<NodeId>,
    /// Device family.
    pub kind: DeviceKind,
    /// Blocks assigned (in execution order).
    pub blocks: Vec<BlockId>,
    /// Instruction indices assigned (in program order).
    pub instrs: Vec<usize>,
    /// Stage assigned to each instruction (pipeline devices).
    pub stage_of: BTreeMap<usize, usize>,
    /// Number of pipeline stages used.
    pub stages_used: usize,
    /// Resource demand on one physical device.
    pub demand: ResourceVector,
    /// Range `[start, end)` of the block order covered by this assignment —
    /// this becomes the step-number range stamped into the INC header.
    pub step_range: (usize, usize),
}

impl Assignment {
    /// Number of instructions in the snippet.
    pub fn instruction_count(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the assignment actually carries program logic.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} instrs, {} stages, steps {}..{}",
            self.device,
            self.instrs.len(),
            self.stages_used,
            self.step_range.0,
            self.step_range.1
        )
    }
}

/// Errors from the placement algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// The program has no instructions.
    EmptyProgram,
    /// The network has no programmable device.
    EmptyNetwork,
    /// No assignment satisfying all constraints exists (the "/" entries of
    /// Table 5: the INC plugin cannot be placed on any device).
    NoFeasiblePlacement,
    /// The requested solver does not support this network shape
    /// (the SMT baseline only handles single-path chains).
    UnsupportedNetwork(String),
    /// The solver hit its exploration budget before finding a plan.
    BudgetExhausted,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::EmptyProgram => write!(f, "the program has no instructions"),
            PlacementError::EmptyNetwork => write!(f, "no programmable device available"),
            PlacementError::NoFeasiblePlacement => {
                write!(f, "no feasible placement satisfies the resource and capability constraints")
            }
            PlacementError::UnsupportedNetwork(msg) => write!(f, "unsupported network: {msg}"),
            PlacementError::BudgetExhausted => {
                write!(f, "solver budget exhausted before a plan was found")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// A complete placement plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// Name of the placed program.
    pub program: String,
    /// Per-device assignments, ordered along the traffic direction
    /// (client leaves towards the destination).
    pub assignments: Vec<Assignment>,
    /// Objective value (Eq. 1).
    pub gain: f64,
    /// h_t — fraction of traffic served by INC.
    pub traffic_served: f64,
    /// h_r — normalized resource consumption.
    pub resource_cost: f64,
    /// h_p — normalized cross-device parameter traffic.
    pub comm_cost: f64,
    /// Weights in effect when the plan was computed.
    pub weights: Weights,
    /// Wall-clock solve time.
    pub solve_time: Duration,
}

impl PlacementPlan {
    /// Names of the devices that received at least one instruction.
    pub fn devices_used(&self) -> Vec<&str> {
        self.assignments.iter().filter(|a| !a.is_empty()).map(|a| a.device.as_str()).collect()
    }

    /// Instruction counts per non-empty device, in traffic order
    /// (the "instructions" column of Table 4).
    pub fn instructions_per_device(&self) -> Vec<usize> {
        self.assignments
            .iter()
            .filter(|a| !a.is_empty())
            .map(Assignment::instruction_count)
            .collect()
    }

    /// Stage counts per non-empty device, in traffic order
    /// (the "stages" column of Table 4).
    pub fn stages_per_device(&self) -> Vec<usize> {
        self.assignments.iter().filter(|a| !a.is_empty()).map(|a| a.stages_used).collect()
    }

    /// Total instructions placed (counting each snippet once, not per replica).
    pub fn total_instructions(&self) -> usize {
        self.assignments.iter().map(Assignment::instruction_count).sum()
    }

    /// A deterministic digest of the *solution*: every assignment's device,
    /// member set, block/instruction lists, stage map and resource demand,
    /// plus the gain terms — and **not** the wall-clock solve time, so two
    /// runs that solved the same problem fingerprint equal no matter how
    /// fast each ran.  The service layer keys its plan cache and its
    /// bit-identity tests on this digest.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_str(&self.program);
        h.write_u64(self.assignments.len() as u64);
        for a in &self.assignments {
            h.write_str(&a.device);
            h.write_u64(a.members.len() as u64);
            for m in &a.members {
                h.write_u64(m.0 as u64);
            }
            h.write_u64(a.blocks.len() as u64);
            for b in &a.blocks {
                h.write_u64(b.0 as u64);
            }
            h.write_u64(a.instrs.len() as u64);
            for i in &a.instrs {
                h.write_u64(*i as u64);
            }
            for (i, stage) in &a.stage_of {
                h.write_u64(*i as u64);
                h.write_u64(*stage as u64);
            }
            h.write_u64(a.stages_used as u64);
            for r in Resource::ALL {
                h.write_u64(a.demand[r].to_bits());
            }
            h.write_u64(a.step_range.0 as u64);
            h.write_u64(a.step_range.1 as u64);
        }
        for term in [self.gain, self.traffic_served, self.resource_cost, self.comm_cost] {
            h.write_u64(term.to_bits());
        }
        h.finish()
    }

    /// Check every structural invariant of the plan against the program, DAG
    /// and network; panics with a description on violation (test helper).
    pub fn assert_valid(&self, program: &IrProgram, dag: &BlockDag, net: &PlacementNetwork) {
        // every device in the plan exists in the network
        for a in &self.assignments {
            let device = net
                .all_devices()
                .find(|d| d.name == a.device)
                .unwrap_or_else(|| panic!("unknown device {} in plan", a.device));
            // capability constraint
            for &i in &a.instrs {
                let class = classify_instruction(&program.instructions[i], &program.objects);
                assert!(
                    device.supports(class),
                    "device {} cannot execute class {class} (instr {i})",
                    a.device
                );
            }
            // resource constraint
            assert!(
                a.demand.fits_within(&device.available),
                "assignment on {} exceeds available resources",
                a.device
            );
            // blocks and instruction lists agree
            let mut expected: Vec<usize> =
                a.blocks.iter().flat_map(|b| dag.blocks()[b.0].instrs.clone()).collect();
            expected.sort_unstable();
            let mut actual = a.instrs.clone();
            actual.sort_unstable();
            assert_eq!(expected, actual, "blocks and instructions disagree on {}", a.device);
        }
        // full coverage: every block appears on every path from a client leaf
        let order = dag.blocks_by_step();
        for leaf in net.client_leaves() {
            let path: Vec<String> = net.path_through(leaf).iter().map(|d| d.name.clone()).collect();
            let mut covered: Vec<usize> = Vec::new();
            for device in &path {
                for a in self.assignments.iter().filter(|a| &a.device == device) {
                    covered.extend(a.blocks.iter().map(|b| b.0));
                }
            }
            covered.sort_unstable();
            covered.dedup();
            let mut expected: Vec<usize> = order.clone();
            expected.sort_unstable();
            assert_eq!(covered, expected, "path through leaf {leaf} does not cover every block");
        }
    }
}

impl fmt::Display for PlacementPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "placement of `{}`: gain={:.4} (h_t={:.2}, h_r={:.4}, h_p={:.4}), {:?}",
            self.program,
            self.gain,
            self.traffic_served,
            self.resource_cost,
            self.comm_cost,
            self.solve_time
        )?;
        for a in self.assignments.iter().filter(|a| !a.is_empty()) {
            writeln!(f, "  {a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment(device: &str, instrs: Vec<usize>, stages: usize) -> Assignment {
        Assignment {
            device: device.to_string(),
            members: vec![NodeId(0)],
            kind: DeviceKind::Tofino,
            blocks: Vec::new(),
            instrs,
            stage_of: BTreeMap::new(),
            stages_used: stages,
            demand: ResourceVector::zero(),
            step_range: (0, 1),
        }
    }

    fn plan() -> PlacementPlan {
        PlacementPlan {
            program: "kvs".into(),
            assignments: vec![
                assignment("SW0", vec![0, 1, 2], 3),
                assignment("SW1", vec![], 0),
                assignment("SW2", vec![3, 4], 2),
            ],
            gain: 0.4,
            traffic_served: 1.0,
            resource_cost: 0.1,
            comm_cost: 0.05,
            weights: Weights::fixed(),
            solve_time: Duration::from_millis(5),
        }
    }

    #[test]
    fn per_device_summaries_skip_empty_assignments() {
        let p = plan();
        assert_eq!(p.devices_used(), vec!["SW0", "SW2"]);
        assert_eq!(p.instructions_per_device(), vec![3, 2]);
        assert_eq!(p.stages_per_device(), vec![3, 2]);
        assert_eq!(p.total_instructions(), 5);
    }

    #[test]
    fn display_mentions_gain_and_devices() {
        let p = plan();
        let s = p.to_string();
        assert!(s.contains("kvs"));
        assert!(s.contains("SW0"));
        assert!(!s.contains("SW1:"), "empty assignments are not printed");
    }

    #[test]
    fn error_display() {
        assert!(PlacementError::NoFeasiblePlacement.to_string().contains("feasible"));
        assert!(PlacementError::UnsupportedNetwork("multi-path".into())
            .to_string()
            .contains("multi-path"));
    }

    #[test]
    fn fingerprint_ignores_solve_time_but_not_the_solution() {
        let a = plan();
        let mut b = plan();
        b.solve_time = Duration::from_secs(1000);
        assert_eq!(a.fingerprint(), b.fingerprint(), "solve time is not part of the solution");
        let mut c = plan();
        c.assignments[0].instrs.push(99);
        assert_ne!(a.fingerprint(), c.fingerprint(), "the assignment content is");
        let mut d = plan();
        d.gain += 0.5;
        assert_ne!(a.fingerprint(), d.fingerprint(), "so are the gain terms");
    }
}
