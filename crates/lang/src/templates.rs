//! Provider-supplied templates (paper §4.1 "Template", Appendix A.1).
//!
//! ClickINC ships templates for the three evaluated applications — key-value
//! store (KVS, Fig. 15), ML gradient aggregation (MLAgg, Fig. 16) and SQL
//! DISTINCT acceleration (DQAcc) — plus the count-min-sketch module program used
//! as the running example in Fig. 1 and the sparse-gradient aggregation *user*
//! program of Fig. 7 that extends the MLAgg template.
//!
//! Each generator takes the template parameters (depths, dimensions, worker
//! counts, ...) and returns ClickINC source text that the frontend compiles
//! like any user program.  Because the sources are ordinary strings they are
//! also what the Table 1 lines-of-code benchmark measures.

use std::collections::BTreeMap;
use std::fmt;

/// The provider template catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemplateKind {
    /// In-network key-value cache (NetCache-style).
    Kvs,
    /// ML gradient aggregation (SwitchML/ATP-style).
    MlAgg,
    /// SQL DISTINCT acceleration with a rolling cache.
    DqAcc,
    /// The count-min sketch module of Fig. 1.
    CountMinSketch,
    /// The user-written sparse gradient aggregation of Fig. 7 (extends MLAgg).
    MlAggSparse,
}

impl TemplateKind {
    /// The template's short id (`KVS`, `MLAgg`, ...).
    pub fn app_id(&self) -> &'static str {
        match self {
            TemplateKind::Kvs => "KVS",
            TemplateKind::MlAgg => "MLAgg",
            TemplateKind::DqAcc => "DQAcc",
            TemplateKind::CountMinSketch => "CMS",
            TemplateKind::MlAggSparse => "MLAggSparse",
        }
    }
}

impl fmt::Display for TemplateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.app_id())
    }
}

/// A template instance: its kind, the parameters it was instantiated with, and
/// the generated ClickINC source.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Which template.
    pub kind: TemplateKind,
    /// Instance name (also the user/program id used for isolation).
    pub name: String,
    /// Parameters used to generate the source.
    pub params: BTreeMap<String, i64>,
    /// The ClickINC source text.
    pub source: String,
}

impl Template {
    /// Lines of code of the instance source, counted as in Table 1.
    pub fn lines_of_code(&self) -> usize {
        crate::lines_of_code(&self.source)
    }
}

/// Parameters of the KVS template (paper §7.3: 5K-entry cache, 128-bit key,
/// 16×32-bit value vector, 3×1K heavy hitter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvsParams {
    /// Cache depth (entries).
    pub cache_depth: u32,
    /// Key width in bits.
    pub key_bits: u16,
    /// Number of 32-bit value fields.
    pub value_dims: u32,
    /// Count-min sketch rows.
    pub cms_rows: u32,
    /// Count-min sketch columns per row.
    pub cms_cols: u32,
    /// Bloom filter bits.
    pub bloom_bits: u32,
    /// Heavy-hitter trigger threshold.
    pub threshold: u32,
}

impl Default for KvsParams {
    fn default() -> Self {
        KvsParams {
            cache_depth: 5000,
            key_bits: 128,
            value_dims: 16,
            cms_rows: 3,
            cms_cols: 1024,
            bloom_bits: 1024,
            threshold: 100,
        }
    }
}

/// Generate the KVS template (Fig. 15) for the given parameters.
pub fn kvs_template(name: &str, p: KvsParams) -> Template {
    let mut src = String::new();
    src.push_str("from Funclib import *\n");
    src.push_str("REQUEST = 1\nREPLY = 2\nUPDATE = 3\n");
    src.push_str(&format!("TH = {}\n", p.threshold));
    src.push_str(&format!(
        "cache = Table(type=\"exact\", key_bits={}, val_bits={}, depth={})\n",
        p.key_bits,
        32 * p.value_dims,
        p.cache_depth
    ));
    src.push_str(&format!("hits = Array(row=1, size={}, w=32)\n", p.cache_depth));
    src.push_str(&format!(
        "cms = Sketch(type=\"count-min\", rows={}, cols={}, w=32)\n",
        p.cms_rows, p.cms_cols
    ));
    src.push_str(&format!(
        "bf = Sketch(type=\"bloom-filter\", rows=1, cols={}, w=1)\n",
        p.bloom_bits
    ));
    src.push_str(&format!("hidx = Hash(type=\"crc_16\", key=hdr.key, ceil={})\n", p.cache_depth));
    src.push_str("if hdr.op == REQUEST:\n");
    src.push_str("    vals = get(cache, hdr.key)\n");
    src.push_str("    if vals != None:\n");
    src.push_str("        slot = get(hidx, hdr.key)\n");
    src.push_str("        count(hits, slot, 1)\n");
    src.push_str("        back(hdr={op: REPLY, vals: vals})\n");
    src.push_str("    else:\n");
    src.push_str("        count(cms, hdr.key, 1)\n");
    src.push_str("        if get(cms, hdr.key) > TH:\n");
    src.push_str("            write(bf, hdr.key, 1)\n");
    src.push_str("            copyto(\"CPU\", hdr.key)\n");
    src.push_str("        forward()\n");
    // Cache updates are installed through the control plane (as in NetCache):
    // the data plane reports the key/value to the CPU and forwards the packet,
    // keeping the cache table a stateless exact-match object that ASIC targets
    // (class BEM) can host.
    src.push_str("elif hdr.op == UPDATE:\n");
    src.push_str("    copyto(\"CPU\", hdr.key, hdr.vals)\n");
    src.push_str("    forward()\n");
    src.push_str("else:\n");
    src.push_str("    forward()\n");
    let mut params = BTreeMap::new();
    params.insert("cache_depth".into(), i64::from(p.cache_depth));
    params.insert("key_bits".into(), i64::from(p.key_bits));
    params.insert("value_dims".into(), i64::from(p.value_dims));
    params.insert("cms_rows".into(), i64::from(p.cms_rows));
    params.insert("cms_cols".into(), i64::from(p.cms_cols));
    params.insert("bloom_bits".into(), i64::from(p.bloom_bits));
    params.insert("threshold".into(), i64::from(p.threshold));
    Template { kind: TemplateKind::Kvs, name: name.to_string(), params, source: src }
}

/// Parameters of the MLAgg template (paper §7.3: 5K aggregators, 24×32-bit
/// integer parameter vector).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlAggParams {
    /// Number of aggregator slots.
    pub num_aggregators: u32,
    /// Number of workers per job.
    pub num_workers: u32,
    /// Parameter vector dimensions carried per packet.
    pub dims: u32,
    /// Whether the parameters are floating point (requires conversion or a
    /// float-capable device).
    pub is_float: bool,
}

impl Default for MlAggParams {
    fn default() -> Self {
        MlAggParams { num_aggregators: 5000, num_workers: 4, dims: 24, is_float: false }
    }
}

/// Generate the MLAgg template (Fig. 16) for the given parameters.
pub fn mlagg_template(name: &str, p: MlAggParams) -> Template {
    let mut src = String::new();
    let dims = p.dims;
    src.push_str("from Funclib import *\n");
    src.push_str("ACK = 1\nUPDATE = 0\nREQ = 2\n");
    src.push_str(&format!("NUM_AGG = {}\n", p.num_aggregators));
    src.push_str(&format!("NUM_WORKER = {}\n", p.num_workers));
    src.push_str(&format!("DIM = {dims}\n"));
    src.push_str(&format!("agg_seq_t = Array(row=1, size={}, w=32)\n", p.num_aggregators));
    src.push_str(&format!(
        "bitmap_t = Array(row=1, size={}, w={})\n",
        p.num_aggregators, p.num_workers
    ));
    src.push_str(&format!("agg_data_t = Array(row={dims}, size={}, w=32)\n", p.num_aggregators));
    src.push_str(&format!("valid_t = Array(row=1, size={}, w=1)\n", p.num_aggregators));
    src.push_str(&format!(
        "hash_f = Hash(type=\"crc_16\", key=hdr.seq, ceil={})\n",
        p.num_aggregators
    ));
    // The aggregator slots of `agg_data_t` are addressed as (dimension row,
    // hashed index); each row is an independent register array, which is what
    // lets the placement engine split the parameter vector across devices when
    // one switch's memory or SALU budget is insufficient (paper §2.1: "to
    // aggregate the ML parameter with 64 integers in a packet, at least two
    // Tofino switches are needed").
    src.push_str("index = get(hash_f, hdr.seq)\n");
    src.push_str("seq = get(agg_seq_t, 0, index)\n");
    src.push_str("isvalid = get(valid_t, 0, index)\n");
    src.push_str("bitmap = get(bitmap_t, 0, index)\n");
    src.push_str("FULL = (1 << NUM_WORKER) - 1\n");
    src.push_str("if hdr.op == ACK:\n");
    src.push_str("    if isvalid == 1 and seq == hdr.seq:\n");
    src.push_str("        write(valid_t, 0, index, 0)\n");
    src.push_str("    forward()\n");
    src.push_str("else:\n");
    src.push_str("    if isvalid == 0 and hdr.overflow == 0:\n");
    src.push_str("        write(agg_seq_t, 0, index, hdr.seq)\n");
    src.push_str("        write(bitmap_t, 0, index, hdr.bitmap)\n");
    src.push_str("        for d in range(DIM):\n");
    src.push_str("            write(agg_data_t, d, index, hdr.data[d])\n");
    src.push_str("        write(valid_t, 0, index, 1)\n");
    src.push_str("        drop()\n");
    src.push_str("    elif seq == hdr.seq and bitmap & hdr.bitmap == 0:\n");
    if p.is_float {
        src.push_str("        for d in range(DIM):\n");
        src.push_str("            vals = get(agg_data_t, d, index)\n");
        src.push_str("            news = fadd(vals, hdr.data[d])\n");
        src.push_str("            if news < 0:\n");
        src.push_str("                mirror(hdr={overflow: 1})\n");
        src.push_str("            write(agg_data_t, d, index, news)\n");
        src.push_str("            hdr.data[d] = news\n");
    } else {
        src.push_str("        for d in range(DIM):\n");
        src.push_str("            vals = get(agg_data_t, d, index)\n");
        src.push_str("            news = vals + hdr.data[d]\n");
        src.push_str("            write(agg_data_t, d, index, news)\n");
        src.push_str("            hdr.data[d] = news\n");
    }
    src.push_str("        new_bit = bitmap | hdr.bitmap\n");
    src.push_str("        if new_bit == FULL:\n");
    src.push_str("            write(valid_t, 0, index, 0)\n");
    src.push_str("            back(hdr={op: REQ, bitmap: new_bit})\n");
    src.push_str("        else:\n");
    src.push_str("            write(bitmap_t, 0, index, new_bit)\n");
    src.push_str("            drop()\n");
    src.push_str("    else:\n");
    src.push_str("        forward()\n");
    let mut params = BTreeMap::new();
    params.insert("num_aggregators".into(), i64::from(p.num_aggregators));
    params.insert("num_workers".into(), i64::from(p.num_workers));
    params.insert("dims".into(), i64::from(p.dims));
    params.insert("is_float".into(), i64::from(p.is_float));
    Template { kind: TemplateKind::MlAgg, name: name.to_string(), params, source: src }
}

/// Parameters of the DQAcc (SQL DISTINCT acceleration) template
/// (paper §7.3: 5K×8 rolling cache of 32-bit values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DqAccParams {
    /// Rolling cache depth (number of hash buckets).
    pub depth: u32,
    /// Associativity (ways per bucket).
    pub ways: u32,
}

impl Default for DqAccParams {
    fn default() -> Self {
        DqAccParams { depth: 5000, ways: 8 }
    }
}

/// Generate the DQAcc template for the given parameters.
///
/// The template keeps a hash-indexed, `ways`-associative rolling cache of
/// recently seen values; a query whose value is already cached is filtered
/// (dropped) because the DISTINCT result already contains it, otherwise the
/// value is inserted (approximating LRU with a rolling replacement pointer) and
/// the packet is forwarded to the database server.
pub fn dqacc_template(name: &str, p: DqAccParams) -> Template {
    let mut src = String::new();
    src.push_str("from Funclib import *\n");
    src.push_str(&format!("DEPTH = {}\n", p.depth));
    src.push_str(&format!("WAYS = {}\n", p.ways));
    src.push_str(&format!("cache = Array(row={}, size={}, w=32)\n", p.ways, p.depth));
    src.push_str(&format!("roller = Array(row=1, size={}, w=8)\n", p.depth));
    src.push_str(&format!("hidx = Hash(type=\"crc_16\", key=hdr.value, ceil={})\n", p.depth));
    src.push_str("slot = get(hidx, hdr.value)\n");
    src.push_str("found = 0\n");
    for w in 0..p.ways {
        src.push_str(&format!("v{w} = get(cache, {w}, slot)\n"));
        src.push_str(&format!("if v{w} == hdr.value:\n"));
        src.push_str("    found = 1\n");
    }
    src.push_str("if found == 1:\n");
    src.push_str("    drop()\n");
    // WAYS is a power of two, so the rolling replacement pointer wraps with a
    // bit mask (class BIN) rather than a modulo, which Tofino/TD4 cannot run.
    src.push_str("else:\n");
    src.push_str("    way = count(roller, slot, 1)\n");
    src.push_str("    way = way & (WAYS - 1)\n");
    for w in 0..p.ways {
        src.push_str(&format!("    if way == {w}:\n"));
        src.push_str(&format!("        write(cache, {w}, slot, hdr.value)\n"));
    }
    src.push_str("    forward()\n");
    let mut params = BTreeMap::new();
    params.insert("depth".into(), i64::from(p.depth));
    params.insert("ways".into(), i64::from(p.ways));
    Template { kind: TemplateKind::DqAcc, name: name.to_string(), params, source: src }
}

/// Generate the count-min-sketch module program of Fig. 1.
pub fn count_min_sketch(name: &str, rows: u32, cols: u32) -> Template {
    let mut src = String::new();
    src.push_str(&format!("mem = Sketch(type=\"count-min\", rows={rows}, cols={cols}, w=32)\n"));
    src.push_str("vals = list()\n");
    src.push_str(&format!("for i in range({rows}):\n"));
    src.push_str("    vals.append(count(mem, hdr.key, 1))\n");
    src.push_str("relt = min(vals)\n");
    src.push_str("forward()\n");
    let mut params = BTreeMap::new();
    params.insert("rows".into(), i64::from(rows));
    params.insert("cols".into(), i64::from(cols));
    Template { kind: TemplateKind::CountMinSketch, name: name.to_string(), params, source: src }
}

/// Generate the sparse-gradient-aggregation user program of Fig. 7, which
/// detects all-zero blocks of the parameter vector, drops them, and hands the
/// dense remainder to an MLAgg template instance.
///
/// `block_num * block_size` must equal the MLAgg `dims` parameter.
pub fn mlagg_sparse_user(
    name: &str,
    mlagg: MlAggParams,
    block_num: u32,
    block_size: u32,
) -> Template {
    assert_eq!(block_num * block_size, mlagg.dims, "sparse blocks must tile the parameter vector");
    let mut src = String::new();
    src.push_str(&format!(
        "agg = MLAgg(row={}, dim={}, workers={}, is_convert={})\n",
        mlagg.num_aggregators,
        mlagg.dims,
        mlagg.num_workers,
        i32::from(mlagg.is_float)
    ));
    src.push_str(&format!("BLOCK_NUM = {block_num}\n"));
    src.push_str(&format!("BLOCK_SIZE = {block_size}\n"));
    src.push_str("for i in range(BLOCK_NUM):\n");
    src.push_str("    sparse = 1\n");
    src.push_str("    for j in range(BLOCK_SIZE):\n");
    src.push_str("        index = BLOCK_SIZE * i + j\n");
    src.push_str("        if hdr.data[index] != 0:\n");
    src.push_str("            sparse = 0\n");
    src.push_str("    if sparse == 1:\n");
    src.push_str("        for j in range(BLOCK_SIZE):\n");
    src.push_str("            index = BLOCK_SIZE * i + j\n");
    src.push_str("            del(hdr.data[index])\n");
    src.push_str("agg(hdr)\n");
    let mut params = BTreeMap::new();
    params.insert("block_num".into(), i64::from(block_num));
    params.insert("block_size".into(), i64::from(block_size));
    params.insert("dims".into(), i64::from(mlagg.dims));
    params.insert("num_aggregators".into(), i64::from(mlagg.num_aggregators));
    params.insert("num_workers".into(), i64::from(mlagg.num_workers));
    Template { kind: TemplateKind::MlAggSparse, name: name.to_string(), params, source: src }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn all_templates_parse() {
        let kvs = kvs_template("kvs_0", KvsParams::default());
        parse(&kvs.source).expect("KVS parses");
        let mlagg = mlagg_template("mlagg_0", MlAggParams::default());
        parse(&mlagg.source).expect("MLAgg parses");
        let mlagg_f =
            mlagg_template("mlagg_f", MlAggParams { is_float: true, ..Default::default() });
        parse(&mlagg_f.source).expect("float MLAgg parses");
        let dqacc = dqacc_template("dqacc_0", DqAccParams::default());
        parse(&dqacc.source).expect("DQAcc parses");
        let cms = count_min_sketch("cms_0", 3, 65536);
        parse(&cms.source).expect("CMS parses");
        let sparse = mlagg_sparse_user("sparse_0", MlAggParams::default(), 4, 6);
        parse(&sparse.source).expect("sparse MLAgg parses");
    }

    #[test]
    fn template_loc_is_in_the_tens_not_hundreds() {
        // Table 1 reports 16/56/13 LoC for KVS/MLAgg/DQAcc in ClickINC versus
        // hundreds for P4; our generated sources should stay the same order of
        // magnitude (template parameters add a few lines of constants).
        let kvs = kvs_template("kvs", KvsParams::default());
        assert!(kvs.lines_of_code() < 40, "KVS LoC = {}", kvs.lines_of_code());
        let mlagg = mlagg_template("mlagg", MlAggParams::default());
        assert!(mlagg.lines_of_code() < 70, "MLAgg LoC = {}", mlagg.lines_of_code());
        let dqacc = dqacc_template("dqacc", DqAccParams { depth: 5000, ways: 4 });
        assert!(dqacc.lines_of_code() < 40, "DQAcc LoC = {}", dqacc.lines_of_code());
        let cms = count_min_sketch("cms", 3, 65536);
        assert!(cms.lines_of_code() <= 8, "CMS LoC = {}", cms.lines_of_code());
    }

    #[test]
    fn params_are_recorded() {
        let t = kvs_template("kvs", KvsParams { cache_depth: 100_000, ..Default::default() });
        assert_eq!(t.params["cache_depth"], 100_000);
        assert!(t.source.contains("depth=100000"));
        let s = mlagg_sparse_user("s", MlAggParams { dims: 16, ..Default::default() }, 4, 4);
        assert_eq!(s.params["block_num"], 4);
    }

    #[test]
    #[should_panic(expected = "sparse blocks must tile")]
    fn sparse_blocks_must_tile_the_vector() {
        mlagg_sparse_user("bad", MlAggParams { dims: 10, ..Default::default() }, 3, 4);
    }

    #[test]
    fn template_kind_ids() {
        assert_eq!(TemplateKind::Kvs.app_id(), "KVS");
        assert_eq!(TemplateKind::MlAgg.to_string(), "MLAgg");
    }
}
