//! # clickinc-frontend — the compiler frontend
//!
//! The frontend lowers a parsed ClickINC program into the platform-independent
//! IR, performing the four passes described in §4.2 of the paper:
//!
//! 1. **Inlining** — user-defined helper functions (`def`) and provider
//!    templates instantiated in the program (e.g. `agg = MLAgg(...)`; `agg(hdr)`)
//!    are expanded at their call sites;
//! 2. **Loop unrolling** — `for i in range(N)` with a compile-time constant trip
//!    count is fully unrolled (a non-constant bound is a compile error, matching
//!    the paper);
//! 3. **If-conversion** — branches become predicated (guarded) straight-line
//!    code: each condition is materialized into a boolean temporary and the
//!    branch bodies execute under a guard on that temporary, with φ-style merge
//!    copies emitted at the join.  Both arms lower against one environment:
//!    an arm's first write to a name records the name's prior entry in an
//!    undo log, restored before the other arm runs, and the join visits only
//!    the names either arm wrote, in sorted order;
//! 4. **SSA / single-operand form** — every temporary gets a fresh version per
//!    assignment so the IR has no write-after-read or write-after-write
//!    dependencies, which the block-DAG construction relies on.
//!
//! The entry points are [`compile_source`] (text → IR) and [`compile_ast`].
//! A compile allocates for the structure it builds and for each distinct
//! name: source identifiers arrive from the parser as shared
//! [`clickinc_ir::Name`]s and reach the IR unchanged, `def` bodies are
//! borrowed from the program, and no branch copies the environment.

mod error;
mod lower;

pub use error::FrontendError;
pub use lower::{CompileOptions, Frontend};

use clickinc_ir::IrProgram;
use clickinc_lang::Program;

/// Compile ClickINC source text into an IR program named `name`.
pub fn compile_source(name: &str, source: &str) -> Result<IrProgram, FrontendError> {
    Frontend::new().compile_source(name, source, &CompileOptions::default())
}

/// Compile a parsed AST into an IR program named `name`.
pub fn compile_ast(name: &str, program: &Program) -> Result<IrProgram, FrontendError> {
    Frontend::new().compile_ast(name, program, &CompileOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_ir::CapabilityClass;

    #[test]
    fn compiles_a_minimal_program() {
        let ir = compile_source("p", "x = 1 + 2\nforward()\n").unwrap();
        assert!(ir.validate().is_ok());
        assert!(ir.required_capabilities().contains(&CapabilityClass::Bbpf));
    }

    /// The tenant name reaches the IR only as the program name — the fact a
    /// same-source arrival's reuse of a resident's compiled program rests on.
    #[test]
    fn the_compile_name_is_only_the_program_name() {
        use clickinc_lang::templates::*;
        let mlagg = MlAggParams { dims: 8, num_workers: 4, num_aggregators: 64, is_float: false };
        let sources = [
            kvs_template("t", KvsParams { cache_depth: 64, ..Default::default() }).source,
            mlagg_template("t", mlagg).source,
            count_min_sketch("t", 3, 128).source,
            dqacc_template("t", DqAccParams { depth: 32, ways: 4 }).source,
            mlagg_sparse_user("t", mlagg, 2, 4).source,
        ];
        for source in &sources {
            let a = compile_source("kvs_a", source).unwrap();
            let b = compile_source("other7", source).unwrap();
            assert_eq!((a.name.as_str(), b.name.as_str()), ("kvs_a", "other7"));
            assert_eq!(IrProgram { name: b.name.clone(), ..a }, b, "{source}");
        }
    }

    #[test]
    fn reports_parse_errors() {
        assert!(matches!(compile_source("p", "if x\n    y = 1\n"), Err(FrontendError::Lang(_))));
    }
}
