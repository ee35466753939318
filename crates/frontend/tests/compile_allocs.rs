//! Allocation pins of a cold compile, on counts that repeat exactly.
//!
//! A compile allocates for the structure it builds and for each distinct
//! name, never per token or per branch: the lexer's tokens borrow the source
//! (the token vector is its one allocation), the parser mints one shared
//! name per distinct identifier and sizes every AST list exactly, and the
//! lowering runs both arms of an `if` against one environment.

use clickinc_frontend::compile_source;
use clickinc_lang::ast::{Expr, Stmt};
use clickinc_lang::templates::{
    count_min_sketch, dqacc_template, kvs_template, mlagg_sparse_user, mlagg_template, DqAccParams,
    KvsParams, MlAggParams, Template,
};
use clickinc_lang::{parse_program, Lexer, Program, TokenKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

thread_local! {
    // const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor registers anything
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread call counter (each test counts
/// only its own thread, so the tests may run side by side).
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees; the
// counter is a plain statistic and bumping it never allocates.
// (`alloc_zeroed` and `realloc` default to `alloc`, so they are counted too.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // a thread being torn down has no counter any more; nothing measured
        // runs there
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the allocations the calling thread made inside it.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const MLAGG_12: MlAggParams =
    MlAggParams { num_aggregators: 64, num_workers: 4, dims: 12, is_float: false };

/// KVS, MLAgg-12 and CMS: the pinned programs.
fn pinned() -> [Template; 3] {
    [
        kvs_template("kvs_0", KvsParams::default()),
        mlagg_template("mlagg_1", MLAGG_12),
        count_min_sketch("cms_2", 3, 1024),
    ]
}

/// Every provider template, in both number formats where it has two.
fn templates() -> Vec<Template> {
    let float = MlAggParams { is_float: true, ..MLAGG_12 };
    let mut all = pinned().to_vec();
    all.extend([
        mlagg_template("mlagg_f", float),
        dqacc_template("dqacc", DqAccParams::default()),
        mlagg_sparse_user("sparse", MlAggParams { dims: 8, ..MLAGG_12 }, 2, 4),
    ]);
    all
}

/// The heap blocks an AST holds besides its names: one per box and one per
/// non-empty list.
fn containers(program: &Program) -> u64 {
    fn list<T>(items: &[T]) -> u64 {
        u64::from(!items.is_empty())
    }
    fn block(stmts: &[Stmt]) -> u64 {
        list(stmts) + stmts.iter().map(stmt).sum::<u64>()
    }
    fn stmt(s: &Stmt) -> u64 {
        match s {
            Stmt::Assign { targets, value } => {
                list(targets) + targets.iter().map(expr).sum::<u64>() + expr(value)
            }
            Stmt::AugAssign { target, value, .. } => expr(target) + expr(value),
            Stmt::ExprStmt(e) | Stmt::Return(Some(e)) => expr(e),
            Stmt::If { cond, body, orelse } => expr(cond) + block(body) + block(orelse),
            Stmt::For { iter, body, .. } => expr(iter) + block(body),
            Stmt::FuncDef { params, body, .. } => list(params) + block(body),
            Stmt::Import { .. } | Stmt::Return(None) => 0,
        }
    }
    fn expr(e: &Expr) -> u64 {
        match e {
            Expr::Int(_)
            | Expr::Float(_)
            | Expr::Str(_)
            | Expr::Bool(_)
            | Expr::NoneLit
            | Expr::Name(_) => 0,
            Expr::Attribute { value, .. } | Expr::Unary { operand: value, .. } => 1 + expr(value),
            Expr::Index { value: lhs, index: rhs }
            | Expr::BinOp { lhs, rhs, .. }
            | Expr::Compare { lhs, rhs, .. } => 2 + expr(lhs) + expr(rhs),
            Expr::Call { func, args, kwargs } => {
                1 + expr(func)
                    + list(args)
                    + args.iter().map(expr).sum::<u64>()
                    + list(kwargs)
                    + kwargs.iter().map(|(_, v)| expr(v)).sum::<u64>()
            }
            Expr::BoolChain { values: items, .. } | Expr::List(items) => {
                list(items) + items.iter().map(expr).sum::<u64>()
            }
            Expr::Dict(pairs) => {
                list(pairs) + pairs.iter().map(|(k, v)| expr(k) + expr(v)).sum::<u64>()
            }
        }
    }
    block(&program.stmts)
}

/// The distinct identifiers and string literals of `source`.
fn distinct_names(source: &str) -> u64 {
    let tokens = Lexer::new(source).tokenize().expect("the template lexes");
    let names = tokens.iter().filter_map(|t| match &t.kind {
        TokenKind::Ident(s) | TokenKind::Str(s) => Some(s.to_string()),
        _ => None,
    });
    names.collect::<BTreeSet<_>>().len() as u64
}

#[test]
fn lexing_allocates_only_the_token_vector() {
    for template in templates() {
        let (tokens, allocs) = allocs_in(|| Lexer::new(&template.source).tokenize());
        assert!(tokens.is_ok(), "{}", template.name);
        assert!(allocs <= 1, "{}: lexing allocated {allocs} times", template.name);
    }
}

#[test]
fn parsing_allocates_the_ast_and_each_distinct_name_once() {
    for template in pinned() {
        let tokens = Lexer::new(&template.source).tokenize().expect("the template lexes");
        let (program, allocs) = allocs_in(|| parse_program(&tokens));
        let program = program.expect("the template parses");
        // the name table, and the growth of the parser's scratch stacks
        let constant = 8;
        let (containers, names) = (containers(&program), distinct_names(&template.source));
        let bound = containers + names + constant;
        assert!(
            allocs <= bound,
            "{}: parsing allocated {allocs}, more than {bound} ({containers} containers, \
             {names} distinct names)",
            template.name
        );
    }
}

#[test]
fn compile_source_allocates_its_measured_counts() {
    // lexing, parsing and lowering, the frontend's module library and
    // default options included
    let measured = [("kvs_0", 193), ("mlagg_1", 517), ("cms_2", 82)];
    for (template, (name, want)) in pinned().into_iter().zip(measured) {
        assert_eq!(template.name, name);
        let (ir, allocs) = allocs_in(|| compile_source(name, &template.source));
        assert!(ir.is_ok(), "{name}");
        assert_eq!(allocs, want, "{name}: compile_source allocated {allocs}");
    }
}
