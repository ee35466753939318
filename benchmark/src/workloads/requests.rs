//! Seeded request generation shared by the deploy workloads and the probes.
//!
//! A [`Shape`] is one point in a provider template's parameter space.  The
//! instruction count of a compiled program — and with it the work every
//! deploy stage does — is fixed by the *structural* parameters (MLAgg
//! dimensions, sketch rows); the *size* parameters (table depth, aggregator
//! slots, sketch columns) change object geometry, which is enough to make a
//! shape new to the placement memo.  The generators below draw structural
//! parameters from a fixed multiset and only sizes from the seed, so two seeds
//! give different inputs but the same amount of work.

use clickinc::ServiceRequest;
use clickinc_lang::templates::{
    count_min_sketch, kvs_template, mlagg_template, KvsParams, MlAggParams,
};
use rand::prelude::*;
use rand::rngs::StdRng;

/// One program shape a tenant can ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Fig. 15 key-value cache.
    Kvs { cache_depth: u32 },
    /// Fig. 16 gradient aggregation.
    MlAgg { dims: u32, aggregators: u32 },
    /// Fig. 1 count-min sketch.
    Cms { rows: u32, cols: u32 },
}

impl Shape {
    /// The deploy request of `user` for this shape.  Sources follow the churn
    /// scenario of `crates/apps`: one client pod per template family, one
    /// shared destination.
    pub fn request(&self, user: &str, priority: u8) -> ServiceRequest {
        let builder = ServiceRequest::builder(user);
        let builder = match *self {
            Shape::Kvs { cache_depth } => builder
                .template(kvs_template(user, KvsParams { cache_depth, ..Default::default() }))
                .from_("pod0a"),
            Shape::MlAgg { dims, aggregators } => builder
                .template(mlagg_template(
                    user,
                    MlAggParams { dims, num_aggregators: aggregators, ..Default::default() },
                ))
                .from_("pod1a"),
            Shape::Cms { rows, cols } => {
                builder.template(count_min_sketch(user, rows, cols)).from_("pod0b")
            }
        };
        builder.to("pod2b").priority(priority).build().expect("generated request is well-formed")
    }
}

/// MLAgg dimensions the generators cycle through (the churn scenario's range).
const MLAGG_DIMS: [u32; 5] = [8, 12, 16, 20, 24];
/// Sketch row counts the generators cycle through.
const CMS_ROWS: [u32; 3] = [2, 3, 4];

/// `count` distinct shapes cycling KVS / MLAgg / CMS.  Shape `i` of a family
/// takes its structural parameter from the family's fixed cycle and its size
/// from a seed-drawn offset inside a window owned by `i`, so no two shapes of
/// one call coincide and the multiset of structural parameters does not
/// depend on the seed.
pub fn distinct_shapes(rng: &mut StdRng, count: usize) -> Vec<Shape> {
    (0..count)
        .map(|i| {
            let k = (i / 3) as u32;
            match i % 3 {
                0 => Shape::Kvs { cache_depth: 1000 + 64 * k + rng.gen_range(0..64) },
                1 => Shape::MlAgg {
                    dims: MLAGG_DIMS[k as usize % MLAGG_DIMS.len()],
                    aggregators: 256 + 32 * k + rng.gen_range(0..32),
                },
                _ => Shape::Cms {
                    rows: CMS_ROWS[k as usize % CMS_ROWS.len()],
                    cols: 512 + 32 * k + rng.gen_range(0..32),
                },
            }
        })
        .collect()
}

/// The generator every workload derives its inputs from.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    // distinct streams for distinct purposes, so adding a draw to one input
    // does not shift another
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_distinct_and_structurally_seed_independent() {
        let a = distinct_shapes(&mut rng_for(1, 0), 60);
        let b = distinct_shapes(&mut rng_for(2, 0), 60);
        for (i, x) in a.iter().enumerate() {
            for y in &a[i + 1..] {
                assert_ne!(x, y);
            }
        }
        assert_ne!(a, b, "sizes follow the seed");
        let structure = |shapes: &[Shape]| -> Vec<(u8, u32)> {
            shapes
                .iter()
                .map(|s| match *s {
                    Shape::Kvs { .. } => (0, 0),
                    Shape::MlAgg { dims, .. } => (1, dims),
                    Shape::Cms { rows, .. } => (2, rows),
                })
                .collect()
        };
        assert_eq!(structure(&a), structure(&b));
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        let render = |seed| -> Vec<String> {
            distinct_shapes(&mut rng_for(seed, 0), 12)
                .iter()
                .enumerate()
                .map(|(i, s)| s.request(&format!("u{i}"), 0).source)
                .collect()
        };
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
    }
}
