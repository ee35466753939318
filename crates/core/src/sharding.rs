//! State-profile analysis: choose a program's [`ShardingMode`] from its
//! IR.
//!
//! The runtime can spread a single tenant's flows across every engine shard
//! ([`ShardingMode::ByFlow`]) — but only when that cannot tear the tenant's
//! inter-packet state apart.  The answer comes from the shared taint engine
//! in `clickinc_ir::analysis::taint`: [`state_profile`] walks the program
//! tracking which packet header fields every value is derived from, records
//! every stateful access's key fields, and notes the first reason (if any)
//! the tenant must stay on one shard — every non-commutative mutation
//! `mutation_kind` classifies among them.  This module merely maps the
//! engine's [`ShardingDecision`] onto the runtime's [`ShardingMode`]:
//!
//! * [`ShardingDecision::Stateless`] — no inter-packet state at all: hash
//!   the full flow identity ([`ShardingMode::ByFlow`] with empty key).
//! * [`ShardingDecision::ByKey`] — every stateful access is keyed by (at
//!   least) the common fields, and every mutation merges commutatively
//!   (counter sums, Bloom ORs): flow-shard on those fields.
//! * [`ShardingDecision::Pinned`] — register/table overwrites, deletes,
//!   clears, `randint`, constant/tainted indices, or disjoint key sets:
//!   fall back to [`ShardingMode::ByTenant`], which is always safe.
//!
//! The controller derives the mode once per program text, from the
//! isolated, optimized program, and keeps it in the text's
//! [`PreparedSource`](crate::controller::PreparedSource) — beside the block
//! DAG, lent with it to every later deploy of the same text.  The mode names
//! only header fields, which isolation does not rename.  The service's
//! mirror stage and the adaptive loop read it from there; the verifier's
//! `commutativity` pass classifies mutations with the same `mutation_kind`,
//! so the runtime's sharding decision and the verifier's classification can
//! never disagree.
//!
//! On the provider templates: the KVS cache program (read-only exact-match
//! cache, hit counters, heavy-hitter CMS, Bloom marker — every access keyed
//! by `hdr.key`, every mutation commutative) flow-shards on `key`; MLAgg
//! pins to `ByTenant` because its aggregation registers are *overwritten*
//! through a lossy hash-modulo slot — two rounds on different shards can
//! collide on one slot, and no merge of the torn registers reproduces the
//! shared store.

use clickinc_ir::analysis::taint::{state_profile, ShardingDecision};
use clickinc_ir::IrProgram;
use clickinc_runtime::ShardingMode;

/// Derive the sharding mode of `program`, a whole (isolated) program; see
/// the [module docs](self) for the analysis.
pub fn sharding_mode_for(program: &IrProgram) -> ShardingMode {
    match state_profile(&[program]).sharding_decision() {
        ShardingDecision::Stateless => ShardingMode::ByFlow { key_fields: Vec::new() },
        ShardingDecision::ByKey(key_fields) => ShardingMode::ByFlow { key_fields },
        ShardingDecision::Pinned(_) => ShardingMode::ByTenant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{kvs_template, mlagg_template, KvsParams, MlAggParams};
    use clickinc_synthesis::isolate_user_program;

    fn mode_of(source: &str, user: &str) -> ShardingMode {
        let ir = compile_source(user, source).expect("compiles");
        sharding_mode_for(&isolate_user_program(&ir, user, 1))
    }

    #[test]
    fn kvs_flow_shards_on_the_request_key() {
        let t = kvs_template("kvs0", KvsParams::default());
        let mode = mode_of(&t.source, "kvs0");
        assert_eq!(mode, ShardingMode::ByFlow { key_fields: vec!["key".to_string()] });
    }

    #[test]
    fn mlagg_register_overwrites_pin_it_to_one_shard() {
        // the aggregation registers are overwritten through a lossy
        // hash-modulo slot: two rounds colliding on a slot from different
        // shards would tear the cell, so the profile must refuse ByFlow
        let t = mlagg_template(
            "agg0",
            MlAggParams { dims: 4, num_workers: 2, num_aggregators: 64, is_float: false },
        );
        let mode = mode_of(&t.source, "agg0");
        assert_eq!(mode, ShardingMode::ByTenant);
    }

    #[test]
    fn fig13_programs_keep_their_sharding_modes() {
        // regression lock for the port onto the shared taint engine: the
        // fig13-scale templates must classify exactly as before — KVS
        // flow-shards on `key`, MLAgg pins to one shard
        let kvs = kvs_template("kvs_srv", KvsParams { cache_depth: 2000, ..Default::default() });
        assert_eq!(
            mode_of(&kvs.source, "kvs_srv"),
            ShardingMode::ByFlow { key_fields: vec!["key".to_string()] }
        );
        let mlagg = mlagg_template(
            "mlagg",
            MlAggParams { dims: 32, num_workers: 4, num_aggregators: 4096, is_float: false },
        );
        assert_eq!(mode_of(&mlagg.source, "mlagg"), ShardingMode::ByTenant);
    }

    #[test]
    fn stateless_programs_flow_shard_on_the_full_flow_identity() {
        let mode = mode_of("forward()\n", "fwd0");
        assert_eq!(mode, ShardingMode::ByFlow { key_fields: Vec::new() });
    }

    #[test]
    fn an_empty_program_is_stateless() {
        let empty = IrProgram::new("empty");
        assert_eq!(sharding_mode_for(&empty), ShardingMode::ByFlow { key_fields: Vec::new() });
    }

    #[test]
    fn global_counters_pin_a_tenant_to_one_shard() {
        // a constant-indexed counter is shared by every packet of the tenant
        let source = "ctr = Array(row=1, size=4, w=32)\ncount(ctr, 0, 1)\nforward()\n";
        assert_eq!(mode_of(source, "ctr0"), ShardingMode::ByTenant);
    }

    #[test]
    fn header_rewrites_cannot_launder_a_constant_into_a_flow_key() {
        // rewriting hdr.key to a constant makes every packet hit ctr[0]; the
        // rewrite must not let the access masquerade as keyed by hdr.key
        let source = "ctr = Array(row=1, size=64, w=32)\n\
                      hdr.key = 0\n\
                      count(ctr, hdr.key, 1)\n\
                      forward()\n";
        assert_eq!(mode_of(source, "rw0"), ShardingMode::ByTenant);
    }

    #[test]
    fn back_rewrites_cannot_launder_a_constant_into_a_flow_key() {
        // back() rewrites the live packet before bouncing it; a later
        // (guarded) stateful access keyed by the rewritten field must not
        // classify as flow-keyed
        let source = "ctr = Array(row=1, size=64, w=32)\n\
                      if hdr.op == 1:\n\
                      \x20   back(hdr={key: 0})\n\
                      else:\n\
                      \x20   count(ctr, hdr.key, 1)\n\
                      forward()\n";
        assert_eq!(mode_of(source, "bk0"), ShardingMode::ByTenant);
    }

    #[test]
    fn register_overwrites_pin_a_tenant_to_one_shard() {
        // a keyed *overwrite* is not commutatively mergeable across shards
        let source = "reg = Array(row=1, size=64, w=32)\n\
                      write(reg, 0, hdr.key, hdr.seq)\n\
                      forward()\n";
        assert_eq!(mode_of(source, "wr0"), ShardingMode::ByTenant);
    }

    #[test]
    fn disjoint_state_keys_pin_a_tenant_to_one_shard() {
        // two stateful objects keyed by different fields: no single flow key
        // co-locates both objects' sharers
        let source = "a = Array(row=1, size=64, w=32)\n\
                      b = Array(row=1, size=64, w=32)\n\
                      count(a, hdr.key, 1)\n\
                      count(b, hdr.seq, 1)\n\
                      forward()\n";
        assert_eq!(mode_of(source, "dj0"), ShardingMode::ByTenant);
    }
}
