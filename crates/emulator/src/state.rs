//! Runtime storage for the stateful INC objects.
//!
//! Objects live in dense *slots*: the store keeps a name → slot index map for
//! control-plane access, and the per-packet paths (the register VM's compiled
//! state ops) address slots directly — a bounds-checked vector index instead
//! of a string-keyed map probe.  Slot indices are stable for the lifetime of
//! an object: removal tombstones the slot, and every iteration-order-sensitive
//! operation (merging, fingerprints) walks the name map in lexicographic
//! order, so the digest of a store is independent of its slot layout.
//!
//! `Array` and `Seq` objects are register arrays, and are stored as one: a
//! single `Vec<i64>` indexed `row × size + cell` (`Cells`), so a cell access
//! is an index, not a tree probe.  The vector is *materialised lazily*, with
//! one zeroed allocation on the first write (a 0 written over cells that all
//! read 0 is not one) — a deploy that never serves allocates nothing, and the
//! pages of a large array nobody touches stay unmapped.  An unmaterialised
//! array reads 0 everywhere, exactly like a materialised one that was never
//! written, and the two fingerprint alike: the digest hashes non-zero cells
//! only, because a register holding 0 is the same state whether it was
//! written 0 or never written.
//!
//! A `Sketch` (count-min or Bloom, `rows × cols` counters) shares that lazy
//! layout: one row-major vector for all its rows, so an install allocates
//! no counter block.  Its digest still hashes every counter, zeros
//! included, row by row (an unmaterialised sketch reads all 0).  A `Table`
//! is an exact-match map from the digest of its key fields to the entry,
//! hashed by that digest itself (`KeyDigest`): a lookup is one probe, and
//! the store digest walks the entries in key order.

use clickinc_ir::{ObjectDecl, ObjectKind, SketchKind, Value};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Hash function used by sketches and hash objects: a small xorshift-based
/// mixer seeded per row so the rows are independent.
fn mix(seed: u64, value: u64) -> u64 {
    let mut x = value ^ (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

fn value_key(v: &Value) -> u64 {
    match v {
        Value::Int(i) => *i as u64,
        Value::Float(f) => f.to_bits(),
        Value::Bool(b) => u64::from(*b),
        Value::Bytes(b) => b.iter().fold(1469598103934665603u64, |h, byte| {
            (h ^ u64::from(*byte)).wrapping_mul(1099511628211)
        }),
        Value::None => u64::MAX,
    }
}

fn table_key(key: &[Value]) -> u64 {
    key.iter().fold(0u64, |acc, v| mix(acc + 1, value_key(v)))
}

/// The hasher of a table's entries.  An entry's key is already a `mix`
/// digest of its match fields ([`table_key`]), so it is its own hash: no
/// second hashing, and no random state to make two runs differ.
#[derive(Default)]
struct KeyDigest(u64);

impl Hasher for KeyDigest {
    fn write(&mut self, bytes: &[u8]) {
        // only `u64` keys reach this hasher; fold anything else in anyway
        self.0 = bytes.iter().fold(self.0, |h, b| mix(h, u64::from(*b)));
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A table's entries: key digest → the entry's values.
type Entries = HashMap<u64, Vec<Value>, BuildHasherDefault<KeyDigest>>;

/// The column a sketch row counts `key` in.  A sketch declared with 0
/// columns has one, as an array dimension declared 0 does.
fn sketch_column(row: u32, key: u64, cols: u32) -> u32 {
    (mix(u64::from(row) + 1, key) % u64::from(cols.max(1))) as u32
}

/// The name-derived seed of a hash object, computable at compile time so the
/// VM carries it as an immediate instead of re-deriving it per packet.
pub fn hash_seed(name: &str) -> u64 {
    name.bytes().fold(7u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)))
}

/// Hash `keys` under a precomputed seed and optional modulus — the shared
/// digest behind [`ObjectStore::hash`] and the VM's compiled hash ops.
pub fn hash_with_seed(seed: u64, modulus: Option<u32>, keys: &[Value]) -> i64 {
    let mut acc = seed;
    for k in keys {
        acc = mix(acc, value_key(k));
    }
    match modulus {
        Some(m) if m > 0 => (acc % u64::from(m)) as i64,
        _ => (acc & 0xffff) as i64,
    }
}

/// The cells of an `Array` (`rows × size`), a `Seq` (one row) or a `Sketch`
/// (`rows × cols` counters), row-major in one vector that is empty until the
/// first write.
#[derive(Debug, Clone)]
struct Cells {
    /// Declared rows and cells per row (a `Seq` declares one row; a
    /// `Sketch`'s cells are its columns).
    rows: u32,
    size: u32,
    /// Either empty (every cell reads 0) or `rows.max(1) × size.max(1)` long.
    data: Vec<i64>,
}

impl Cells {
    fn new(rows: u32, size: u32) -> Cells {
        Cells { rows, size, data: Vec::new() }
    }

    /// Row and cell wrap at the declared bounds, mirroring the hardware's
    /// address masking; a dimension declared 0 counts as 1.  An in-range
    /// coordinate — every access of a verified program — costs a compare;
    /// only one past its bound pays for the division.
    fn index(&self, row: u32, cell: u32) -> usize {
        let wrap = |at: u32, bound: u32| if at < bound { at } else { at % bound };
        let size = self.size.max(1);
        wrap(row, self.rows.max(1)) as usize * size as usize + wrap(cell, size) as usize
    }

    fn read(&self, row: u32, cell: u32) -> i64 {
        self.data.get(self.index(row, cell)).copied().unwrap_or(0)
    }

    /// The cell to write through, materialising the vector on first use.
    fn cell_mut(&mut self, row: u32, cell: u32) -> &mut i64 {
        if self.data.is_empty() {
            self.data = vec![0; self.rows.max(1) as usize * self.size.max(1) as usize];
        }
        let index = self.index(row, cell);
        &mut self.data[index]
    }

    fn write(&mut self, row: u32, cell: u32, value: i64) {
        // writing 0 over cells that all read 0 changes nothing
        if value != 0 || !self.data.is_empty() {
            *self.cell_mut(row, cell) = value;
        }
    }

    /// `read` then `write` of one cell, addressed once: `f` maps the cell's
    /// value to the one written back.
    fn update(&mut self, row: u32, cell: u32, f: impl FnOnce(i64) -> i64) {
        let at = self.index(row, cell);
        let value = f(self.data.get(at).copied().unwrap_or(0));
        if !self.data.is_empty() {
            self.data[at] = value;
        } else if value != 0 {
            *self.cell_mut(row, cell) = value;
        }
    }

    /// `mine[i] += factor × other[i]` for every cell — the flow-partition
    /// merge (`factor` 1) and the replica-baseline deduction (`-copies`).
    fn add_scaled(&mut self, other: &Cells, factor: i64) {
        self.combine(other, |mine, theirs| mine + factor * theirs);
    }

    /// `mine[i] = f(mine[i], other[i])` for every cell.  Shapes that differ
    /// (which replicas of one declaration never do) and an unmaterialised
    /// `other` leave `self` untouched.
    fn combine(&mut self, other: &Cells, f: impl Fn(i64, i64) -> i64) {
        if other.data.is_empty() || (self.rows, self.size) != (other.rows, other.size) {
            return;
        }
        if self.data.is_empty() {
            self.data = other.data.iter().map(|theirs| f(0, *theirs)).collect();
        } else {
            for (mine, theirs) in self.data.iter_mut().zip(&other.data) {
                *mine = f(*mine, *theirs);
            }
        }
    }

    /// The non-zero cells as `(row, cell, value)`, in `(row, cell)` order.
    fn non_zero(&self) -> impl Iterator<Item = (u64, u64, i64)> + '_ {
        let size = self.size.max(1) as usize;
        self.data
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0)
            .map(move |(i, v)| ((i / size) as u64, (i % size) as u64, *v))
    }
}

/// Runtime instance of one object.
#[derive(Debug, Clone)]
enum ObjectState {
    Array(Cells),
    Seq(Cells),
    Sketch { kind: SketchKind, cells: Cells },
    Table { entries: Entries },
    Hash { modulus: Option<u32> },
    Crypto,
}

/// The object store of one device.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    /// Object name → slot index (control-plane and iteration order).
    names: BTreeMap<String, usize>,
    /// Dense object storage; a removed object leaves a `None` tombstone so
    /// the surviving objects' slot indices stay valid.
    slots: Vec<Option<ObjectState>>,
}

impl ObjectStore {
    /// Create an empty store.
    pub fn new() -> ObjectStore {
        ObjectStore::default()
    }

    fn state(&self, name: &str) -> Option<&ObjectState> {
        self.names.get(name).and_then(|&slot| self.slots[slot].as_ref())
    }

    fn state_mut(&mut self, name: &str) -> Option<&mut ObjectState> {
        match self.names.get(name) {
            Some(&slot) => self.slots[slot].as_mut(),
            None => None,
        }
    }

    /// Declare (instantiate) an object.  Re-declaring an existing object keeps
    /// its current contents (idempotent deployment).
    pub fn declare(&mut self, decl: &ObjectDecl) {
        if self.names.contains_key(&decl.name) {
            return;
        }
        let state = match &decl.kind {
            ObjectKind::Array { rows, size, .. } => ObjectState::Array(Cells::new(*rows, *size)),
            ObjectKind::Seq { size, .. } => ObjectState::Seq(Cells::new(1, *size)),
            ObjectKind::Sketch { kind, rows, cols, .. } => {
                ObjectState::Sketch { kind: *kind, cells: Cells::new(*rows, *cols) }
            }
            ObjectKind::Table { .. } => ObjectState::Table { entries: Entries::default() },
            ObjectKind::Hash { modulus, .. } => ObjectState::Hash { modulus: *modulus },
            ObjectKind::Crypto { .. } => ObjectState::Crypto,
        };
        self.names.insert(decl.name.clone(), self.slots.len());
        self.slots.push(Some(state));
    }

    /// Whether the object exists.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains_key(name)
    }

    /// The slot index of an object, fixed until the object is removed.  The
    /// VM resolves every state operand to a slot at compile time.
    pub fn slot_of(&self, name: &str) -> Option<usize> {
        self.names.get(name).copied()
    }

    /// The declared modulus of a hash object (`None` for undeclared objects
    /// or an unbounded hash), resolved at compile time by the VM.
    pub fn hash_modulus(&self, name: &str) -> Option<u32> {
        match self.state(name) {
            Some(ObjectState::Hash { modulus }) => *modulus,
            _ => None,
        }
    }

    /// Names of all declared table objects (control-plane enumeration, e.g.
    /// to pre-populate caches whose names were rewritten by isolation).
    pub fn table_names(&self) -> Vec<String> {
        self.names
            .iter()
            .filter(|(_, &slot)| matches!(self.slots[slot], Some(ObjectState::Table { .. })))
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Read an array/sequence cell (missing cells read as 0).  Row and index
    /// wrap at the declared bounds, mirroring the hardware's address masking.
    pub fn array_read(&self, name: &str, row: u32, index: u32) -> i64 {
        self.slot_of(name).map(|slot| self.array_read_slot(slot, row, index)).unwrap_or(0)
    }

    /// [`ObjectStore::array_read`] by slot index.
    pub fn array_read_slot(&self, slot: usize, row: u32, index: u32) -> i64 {
        match self.slots.get(slot).and_then(Option::as_ref) {
            Some(ObjectState::Array(cells) | ObjectState::Seq(cells)) => cells.read(row, index),
            _ => 0,
        }
    }

    /// Write an array/sequence cell.
    pub fn array_write(&mut self, name: &str, row: u32, index: u32, value: i64) {
        if let Some(slot) = self.slot_of(name) {
            self.array_write_slot(slot, row, index, value);
        }
    }

    /// [`ObjectStore::array_write`] by slot index.
    pub fn array_write_slot(&mut self, slot: usize, row: u32, index: u32, value: i64) {
        if let Some(ObjectState::Array(cells) | ObjectState::Seq(cells)) =
            self.slots.get_mut(slot).and_then(Option::as_mut)
        {
            cells.write(row, index, value);
        }
    }

    /// Read an array/sequence cell and write back `f` of its value, the
    /// cell addressed once — what [`ObjectStore::array_read_slot`] then
    /// [`ObjectStore::array_write_slot`] of one cell do.  A missing object
    /// hands `f` a 0 and ignores what it returns.
    pub fn array_update_slot(
        &mut self,
        slot: usize,
        row: u32,
        index: u32,
        f: impl FnOnce(i64) -> i64,
    ) {
        match self.slots.get_mut(slot).and_then(Option::as_mut) {
            Some(ObjectState::Array(cells) | ObjectState::Seq(cells)) => {
                cells.update(row, index, f)
            }
            _ => {
                f(0);
            }
        }
    }

    /// Increment an array/sequence cell and return the post-increment value.
    pub fn array_add(&mut self, name: &str, row: u32, index: u32, delta: i64) -> i64 {
        match self.slot_of(name) {
            Some(slot) => self.array_add_slot(slot, row, index, delta),
            None => delta,
        }
    }

    /// [`ObjectStore::array_add`] by slot index.
    pub fn array_add_slot(&mut self, slot: usize, row: u32, index: u32, delta: i64) -> i64 {
        match self.slots.get_mut(slot).and_then(Option::as_mut) {
            Some(ObjectState::Array(cells) | ObjectState::Seq(cells)) => {
                let cell = cells.cell_mut(row, index);
                *cell += delta;
                *cell
            }
            // a missing object reads 0 and ignores the write
            _ => delta,
        }
    }

    /// Hash a key with a declared hash object.
    pub fn hash(&self, name: &str, keys: &[Value]) -> i64 {
        hash_with_seed(hash_seed(name), self.hash_modulus(name), keys)
    }

    /// Count-min / Bloom update keyed by an arbitrary value; returns the new
    /// minimum estimate (CMS) or 1 (Bloom).
    pub fn sketch_count(&mut self, name: &str, key: &Value, delta: i64) -> i64 {
        match self.slot_of(name) {
            Some(slot) => self.sketch_count_slot(slot, key, delta),
            None => 0,
        }
    }

    /// [`ObjectStore::sketch_count`] by slot index.  A sketch with no row
    /// counts nothing and returns the empty minimum, `i64::MAX`.
    pub fn sketch_count_slot(&mut self, slot: usize, key: &Value, delta: i64) -> i64 {
        let k = value_key(key);
        let Some(ObjectState::Sketch { kind, cells }) =
            self.slots.get_mut(slot).and_then(Option::as_mut)
        else {
            return 0;
        };
        let kind = *kind;
        let mut min = i64::MAX;
        for row in 0..cells.rows {
            let col = sketch_column(row, k, cells.size);
            cells.update(row, col, |count| {
                let count = match kind {
                    SketchKind::CountMin => count + delta,
                    SketchKind::Bloom => 1,
                };
                min = min.min(count);
                count
            });
        }
        min
    }

    /// Count-min estimate / Bloom membership for a key.
    pub fn sketch_estimate(&self, name: &str, key: &Value) -> i64 {
        self.slot_of(name).map(|slot| self.sketch_estimate_slot(slot, key)).unwrap_or(0)
    }

    /// [`ObjectStore::sketch_estimate`] by slot index.
    pub fn sketch_estimate_slot(&self, slot: usize, key: &Value) -> i64 {
        let k = value_key(key);
        let Some(ObjectState::Sketch { cells, .. }) = self.slots.get(slot).and_then(Option::as_ref)
        else {
            return 0;
        };
        let min = (0..cells.rows)
            .map(|row| cells.read(row, sketch_column(row, k, cells.size)))
            .min()
            .unwrap_or(i64::MAX);
        if min == i64::MAX {
            0
        } else {
            min
        }
    }

    /// Look a key up in a table; `Value::None` on miss.
    pub fn table_get(&self, name: &str, key: &[Value]) -> Value {
        self.slot_of(name).map(|slot| self.table_get_slot(slot, key)).unwrap_or(Value::None)
    }

    /// [`ObjectStore::table_get`] by slot index.
    pub fn table_get_slot(&self, slot: usize, key: &[Value]) -> Value {
        match self.slots.get(slot).and_then(Option::as_ref) {
            Some(ObjectState::Table { entries }) => entries
                .get(&table_key(key))
                .map(|v| v.first().cloned().unwrap_or(Value::None))
                .unwrap_or(Value::None),
            _ => Value::None,
        }
    }

    /// Insert / overwrite a table entry (used both by data-plane writes on
    /// devices that allow them and by the emulated control plane).
    pub fn table_write(&mut self, name: &str, key: &[Value], value: Vec<Value>) {
        if let Some(slot) = self.slot_of(name) {
            self.table_write_slot(slot, key, value);
        }
    }

    /// [`ObjectStore::table_write`] by slot index.
    pub fn table_write_slot(&mut self, slot: usize, key: &[Value], value: Vec<Value>) {
        if let Some(ObjectState::Table { entries }) =
            self.slots.get_mut(slot).and_then(Option::as_mut)
        {
            entries.insert(table_key(key), value);
        }
    }

    /// Remove one table entry by slot index (the VM's compiled table delete).
    pub fn table_remove_slot(&mut self, slot: usize, key: &[Value]) {
        if let Some(ObjectState::Table { entries }) =
            self.slots.get_mut(slot).and_then(Option::as_mut)
        {
            entries.remove(&table_key(key));
        }
    }

    /// Delete a table entry or reset an array cell.
    pub fn delete(&mut self, name: &str, key: &[Value]) {
        match self.state_mut(name) {
            Some(ObjectState::Table { entries }) => {
                entries.remove(&table_key(key));
            }
            Some(ObjectState::Array(_) | ObjectState::Seq(_)) => {
                let row = key.first().and_then(Value::as_int).unwrap_or(0) as u32;
                let idx = key.get(1).and_then(Value::as_int).unwrap_or(0) as u32;
                if key.len() >= 2 {
                    self.array_write(name, row, idx, 0);
                } else {
                    self.array_write(name, 0, row, 0);
                }
            }
            _ => {}
        }
    }

    /// Remove an object from this store (tenant teardown), moving its
    /// declaration and contents into `into` — the extraction half of a live
    /// reshard; a plain removal drops `into`.  Returns whether the object
    /// existed.  The slot is tombstoned, never reused, so surviving objects
    /// keep their compiled slot indices.
    pub fn remove_object(&mut self, name: &str, into: &mut ObjectStore) -> bool {
        let Some((name, slot)) = self.names.remove_entry(name) else { return false };
        if let Some(state) = self.slots[slot].take() {
            into.names.insert(name, into.slots.len());
            into.slots.push(Some(state));
        }
        true
    }

    /// Merge another *shard's* store into this one, distinguishing
    /// tenant-partitioned from flow-partitioned objects.
    ///
    /// Objects for which `flow_partitioned` returns `false` are copied over
    /// when only `other` holds them and keep this store's contents otherwise:
    /// tenant isolation renames every object with the owner's prefix, so
    /// stores partitioned by tenant have disjoint object names and
    /// first-copy-wins reconstructs exactly the state a single shared store
    /// would hold.  Objects reported as flow-partitioned exist on *every* shard
    /// (the runtime replicates a flow-sharded tenant's program) and hold a
    /// flow partition of the same logical state, so they are recombined
    /// structurally:
    ///
    /// * `Array`/`Seq` cells and Count-Min rows **sum** — each packet
    ///   incremented exactly one partition, so the sums equal the counters a
    ///   single shared store would hold;
    /// * Bloom rows **OR** (saturate at 1);
    /// * `Table` entries **union**, keeping this store's value on a key
    ///   collision.
    ///
    /// These rules are exact precisely when every flow-partitioned mutation
    /// is commutative (counter adds, idempotent Bloom sets) or replicated
    /// identically by the control plane — the contract the runtime's
    /// state-profile analysis enforces before flow-sharding a tenant.
    /// Register/table *overwrites* have no order-free merge and must not be
    /// flow-partitioned.
    pub fn merge_shard_from(
        &mut self,
        other: &ObjectStore,
        flow_partitioned: impl Fn(&str) -> bool,
    ) {
        for (name, &slot) in &other.names {
            let Some(state) = &other.slots[slot] else { continue };
            match self.names.get(name) {
                None => {
                    self.names.insert(name.clone(), self.slots.len());
                    self.slots.push(Some(state.clone()));
                }
                Some(&mine) if flow_partitioned(name) => {
                    if let Some(mine) = self.slots[mine].as_mut() {
                        merge_flow_partition(mine, state);
                    }
                }
                Some(_) => {}
            }
        }
    }

    /// Deduct `copies` replicas of a baseline store from this one, for the
    /// *additive* object kinds only (`Array`/`Seq` cells and Count-Min
    /// counters).  Bloom rows, tables and stateless objects are untouched —
    /// they are idempotent under replication.
    ///
    /// This is the reconciliation half of a live reshard to `ByFlow`: the
    /// runtime seeds the tenant's full extracted state onto every shard (so
    /// flow-keyed *reads* still see pre-reshard history), which means the
    /// final additive cross-shard merge counts that baseline once per shard.
    /// Subtracting `shards - 1` copies restores the exact state an unsharded
    /// run would hold: each cell's owner shard accumulated `baseline + its
    /// deltas`, the other replicas held `baseline` untouched, and
    /// `sum - (copies)·baseline = baseline + Σdeltas`.
    pub fn subtract_replica_baseline(&mut self, baseline: &ObjectStore, copies: u64) {
        if copies == 0 {
            return;
        }
        let copies = copies as i64;
        for (name, &slot) in &baseline.names {
            let Some(base) = &baseline.slots[slot] else { continue };
            let Some(mine) = self.state_mut(name) else { continue };
            match (mine, base) {
                (ObjectState::Array(a), ObjectState::Array(b))
                | (ObjectState::Seq(a), ObjectState::Seq(b))
                | (
                    ObjectState::Sketch { kind: SketchKind::CountMin, cells: a },
                    ObjectState::Sketch { kind: SketchKind::CountMin, cells: b },
                ) => a.add_scaled(b, -copies),
                _ => {}
            }
        }
    }

    /// A deterministic digest of the full store contents (object names,
    /// shapes, and every live cell/entry/counter).  Two stores with equal
    /// contents produce equal fingerprints in any process — the walk follows
    /// the name map's lexicographic order, so the digest is independent of
    /// slot layout.  `Array`/`Seq` cells are registers: a cell holding 0 is
    /// the same state whether it was written 0 or never written, so only
    /// non-zero cells are hashed, in `(row, cell)` order.  A sketch hashes
    /// every counter, zeros included, row by row; a table its entries in
    /// key-digest order.  Used by the runtime's shard-count invariance tests
    /// and the interpreter/VM differential oracle.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (name, &slot) in &self.names {
            let Some(state) = &self.slots[slot] else { continue };
            h.write_str(name);
            match state {
                ObjectState::Array(cells) => {
                    h.write_u64(1);
                    h.write_u64(u64::from(cells.rows));
                    h.write_u64(u64::from(cells.size));
                    for (r, c, v) in cells.non_zero() {
                        h.write_u64(r);
                        h.write_u64(c);
                        h.write_u64(v as u64);
                    }
                }
                ObjectState::Seq(cells) => {
                    h.write_u64(2);
                    h.write_u64(u64::from(cells.size));
                    for (_, c, v) in cells.non_zero() {
                        h.write_u64(c);
                        h.write_u64(v as u64);
                    }
                }
                ObjectState::Sketch { kind, cells } => {
                    h.write_u64(3);
                    h.write_u64(match kind {
                        SketchKind::CountMin => 0,
                        SketchKind::Bloom => 1,
                    });
                    h.write_u64(u64::from(cells.rows));
                    h.write_u64(u64::from(cells.size));
                    for row in 0..cells.rows {
                        for col in 0..cells.size.max(1) {
                            h.write_u64(cells.read(row, col) as u64);
                        }
                    }
                }
                ObjectState::Table { entries } => {
                    h.write_u64(4);
                    let mut sorted: Vec<_> = entries.iter().collect();
                    sorted.sort_unstable_by_key(|(k, _)| **k);
                    for (k, values) in sorted {
                        h.write_u64(*k);
                        for v in values {
                            h.write_u64(value_key(v));
                        }
                    }
                }
                ObjectState::Hash { modulus } => {
                    h.write_u64(5);
                    h.write_u64(modulus.map(u64::from).unwrap_or(u64::MAX));
                }
                ObjectState::Crypto => h.write_u64(6),
            }
        }
        h.finish()
    }

    /// Clear an object entirely.
    pub fn clear(&mut self, name: &str) {
        if let Some(slot) = self.slot_of(name) {
            self.clear_slot(slot);
        }
    }

    /// [`ObjectStore::clear`] by slot index.
    pub fn clear_slot(&mut self, slot: usize) {
        if let Some(state) = self.slots.get_mut(slot).and_then(Option::as_mut) {
            match state {
                ObjectState::Array(cells)
                | ObjectState::Seq(cells)
                | ObjectState::Sketch { cells, .. } => cells.data.fill(0),
                ObjectState::Table { entries } => entries.clear(),
                _ => {}
            }
        }
    }
}

/// Recombine one flow partition of an object into the accumulated state;
/// see [`ObjectStore::merge_shard_from`] for the per-kind rules.  Shape
/// mismatches (which cannot arise from replicas of one declaration) keep the
/// accumulated state untouched.
fn merge_flow_partition(mine: &mut ObjectState, other: &ObjectState) {
    match (mine, other) {
        (ObjectState::Array(a), ObjectState::Array(b))
        | (ObjectState::Seq(a), ObjectState::Seq(b)) => a.add_scaled(b, 1),
        (ObjectState::Sketch { kind, cells: a }, ObjectState::Sketch { cells: b, .. }) => {
            match kind {
                SketchKind::CountMin => a.add_scaled(b, 1),
                SketchKind::Bloom => a.combine(b, i64::max),
            }
        }
        (ObjectState::Table { entries: a }, ObjectState::Table { entries: b }) => {
            for (key, value) in b {
                a.entry(*key).or_insert_with(|| value.clone());
            }
        }
        _ => {}
    }
}

/// Re-exported from `clickinc-ir`, where the hasher now lives so lower
/// layers (e.g. placement-plan fingerprints) can share the exact digest the
/// store fingerprints and the runtime's tenant→shard hash use.
pub use clickinc_ir::Fnv;

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(name: &str, kind: ObjectKind) -> ObjectStore {
        let mut s = ObjectStore::new();
        s.declare(&ObjectDecl::new(name, kind));
        s
    }

    #[test]
    fn array_read_write_add_and_wraparound() {
        let mut s = store_with("a", ObjectKind::Array { rows: 2, size: 8, width: 32 });
        assert_eq!(s.array_read("a", 0, 3), 0);
        s.array_write("a", 0, 3, 42);
        assert_eq!(s.array_read("a", 0, 3), 42);
        assert_eq!(s.array_read("a", 1, 3), 0, "rows are independent");
        assert_eq!(s.array_add("a", 0, 3, 8), 50);
        // indices wrap modulo the declared size
        assert_eq!(s.array_read("a", 0, 11), 50);
        s.clear("a");
        assert_eq!(s.array_read("a", 0, 3), 0);
    }

    proptest::proptest! {
        /// Wrap-by-compare addresses the cell the two divisions did, for
        /// coordinates in range, past the bound and at `u32::MAX`, over
        /// dimensions that include 0 (which counts as 1) and 1.
        #[test]
        fn cell_addressing_wraps_like_the_modulo_it_replaced(
            rows in 0u32..6,
            size in 0u32..6,
            near in 0u32..12 * 12,
            far in 0u32..3 * 3,
        ) {
            // around the bounds, counted down from `u32::MAX`, or anywhere
            let coordinate = |near: u32, far: u32| match far {
                0 => near,
                1 => u32::MAX - near,
                _ => near.wrapping_mul(0x9e37_79b9),
            };
            let (row, cell) = (coordinate(near / 12, far / 3), coordinate(near % 12, far % 3));
            let expected = (row % rows.max(1)) as usize * size.max(1) as usize
                + (cell % size.max(1)) as usize;
            proptest::prop_assert_eq!(Cells::new(rows, size).index(row, cell), expected);
        }
    }

    /// Whether the object's cell vector exists (it holds its full size from
    /// the first write on, and no heap block before).
    fn materialised(s: &ObjectStore, name: &str) -> bool {
        match s.state(name) {
            Some(
                ObjectState::Array(cells)
                | ObjectState::Seq(cells)
                | ObjectState::Sketch { cells, .. },
            ) => cells.data.capacity() > 0,
            _ => panic!("{name} is not an array, a sequence or a sketch"),
        }
    }

    #[test]
    fn a_cell_written_zero_fingerprints_like_one_never_written() {
        let array = ObjectKind::Array { rows: 2, size: 8, width: 32 };
        let untouched = store_with("a", array.clone());
        // zero over nothing, zero over a value, a delete, a counter back at 0
        let mut zeroed = store_with("a", array.clone());
        zeroed.array_write("a", 1, 3, 0);
        assert!(!materialised(&zeroed, "a"), "a zero over zeros stores nothing");
        zeroed.array_write("a", 0, 5, 9);
        zeroed.array_write("a", 0, 5, 0);
        zeroed.array_write("a", 1, 2, 4);
        zeroed.delete("a", &[Value::Int(1), Value::Int(2)]);
        zeroed.array_add("a", 1, 7, 6);
        zeroed.array_add("a", 1, 7, -6);
        assert!(materialised(&zeroed, "a"));
        assert_eq!(zeroed.fingerprint(), untouched.fingerprint());
        // and a non-zero cell still tells them apart, by position
        let mut one = store_with("a", array.clone());
        one.array_write("a", 1, 3, 1);
        let mut other = store_with("a", array);
        other.array_write("a", 0, 3, 1);
        assert_ne!(one.fingerprint(), untouched.fingerprint());
        assert_ne!(one.fingerprint(), other.fingerprint());

        let mut seq = store_with("s", ObjectKind::Seq { size: 4, width: 32 });
        let fresh = seq.fingerprint();
        seq.array_write("s", 0, 2, 5);
        assert_ne!(seq.fingerprint(), fresh);
        seq.array_write("s", 0, 2, 0);
        assert_eq!(seq.fingerprint(), fresh);
    }

    #[test]
    fn an_unmaterialised_object_stays_so_until_it_is_written() {
        let array = ObjectKind::Array { rows: 4, size: 1 << 10, width: 32 };
        let mut s = store_with("a", array.clone());
        s.declare(&ObjectDecl::new("q", ObjectKind::Seq { size: 1 << 10, width: 32 }));
        let untouched = s.clone();
        let fresh = s.fingerprint();
        for name in ["a", "q"] {
            assert_eq!(s.array_read(name, 3, 77), 0);
            s.clear(name);
        }
        // merging and deducting unmaterialised replicas of the same objects
        s.merge_shard_from(&untouched, |_| true);
        s.subtract_replica_baseline(&untouched, 3);
        // a first copy of an unmaterialised object is unmaterialised too
        let mut merged = ObjectStore::new();
        merged.merge_shard_from(&s, |_| false);
        for store in [&s, &merged] {
            assert!(!materialised(store, "a") && !materialised(store, "q"));
            assert_eq!(store.fingerprint(), fresh);
        }

        // the first write brings the whole object, and only it
        s.array_add("a", 1, 5, 2);
        assert!(materialised(&s, "a") && !materialised(&s, "q"));
        assert_eq!(s.array_read("a", 1, 5), 2);
        // an unmaterialised partition adds nothing; a materialised one lands
        // in an unmaterialised accumulator whole
        s.merge_shard_from(&untouched, |_| true);
        assert_eq!(s.array_read("a", 1, 5), 2);
        let mut accumulated = untouched.clone();
        accumulated.merge_shard_from(&s, |_| true);
        accumulated.subtract_replica_baseline(&untouched, 1);
        assert_eq!(accumulated.fingerprint(), s.fingerprint());
        // deducting from an accumulator that never saw the cells goes negative
        let mut owed = untouched.clone();
        owed.subtract_replica_baseline(&s, 2);
        assert_eq!(owed.array_read("a", 1, 5), -4);
        // clearing keeps the allocation and reads 0 everywhere again
        s.clear("a");
        assert_eq!(s.array_read("a", 1, 5), 0);
        assert_eq!(s.fingerprint(), fresh);
    }

    #[test]
    fn rows_and_cells_wrap_in_bounds_whatever_the_declaration() {
        let mut s = store_with("a", ObjectKind::Array { rows: 3, size: 5, width: 32 });
        s.array_write("a", 2, 4, 7); // the last cell
        assert_eq!(s.array_read("a", 5, 9), 7, "row 5 is row 2, cell 9 is cell 4");
        assert_eq!(s.array_read("a", u32::MAX, u32::MAX), s.array_read("a", 0, 0));
        s.array_write("a", u32::MAX, u32::MAX, 1);
        assert_eq!(s.array_read("a", u32::MAX % 3, u32::MAX % 5), 1);
        // every (row, cell) is a cell of its own
        for row in 0..3 {
            for cell in 0..5 {
                s.array_write("a", row, cell, i64::from(row * 5 + cell) + 100);
            }
        }
        for row in 0..3 {
            for cell in 0..5 {
                assert_eq!(s.array_read("a", row, cell), i64::from(row * 5 + cell) + 100);
            }
        }

        // a dimension declared 0 holds one row / one cell, and indexes in bounds
        for (name, kind) in [
            ("no_rows", ObjectKind::Array { rows: 0, size: 4, width: 32 }),
            ("no_size", ObjectKind::Array { rows: 4, size: 0, width: 32 }),
            ("nothing", ObjectKind::Array { rows: 0, size: 0, width: 32 }),
            ("empty_seq", ObjectKind::Seq { size: 0, width: 32 }),
        ] {
            let mut s = store_with(name, kind);
            assert_eq!(s.array_read(name, 7, 9), 0);
            assert_eq!(s.array_add(name, 7, 9, 3), 3);
            assert_eq!(s.array_add(name, 7, 9, 1), 4);
            assert_eq!(s.array_read(name, 7, 9), 4);
            s.array_add(name, u32::MAX, u32::MAX, 1);
            s.array_write(name, 0, 1, 6);
            s.delete(name, &[Value::Int(-1), Value::Int(3)]);
            s.fingerprint();
        }
    }

    /// The interpreter addresses objects by name, the VM by slot: one cell.
    #[test]
    fn by_name_and_by_slot_accessors_address_the_same_cells() {
        let mut s = store_with("a", ObjectKind::Array { rows: 2, size: 4, width: 32 });
        s.declare(&ObjectDecl::new("q", ObjectKind::Seq { size: 4, width: 32 }));
        for name in ["a", "q"] {
            let slot = s.slot_of(name).unwrap();
            s.array_write(name, 1, 6, 5);
            assert_eq!(s.array_read_slot(slot, 1, 2), 5);
            assert_eq!(s.array_add_slot(slot, 1, 2, 3), 8);
            assert_eq!(s.array_add(name, 1, 2, 1), 9);
            s.array_write_slot(slot, 0, 3, -2);
            assert_eq!(s.array_read(name, 0, 3), -2);
            s.clear_slot(slot);
            assert_eq!(s.array_read(name, 1, 2), 0);
        }
        // a sequence has one row: the row operand is ignored
        s.array_write("q", 0, 1, 4);
        assert_eq!(s.array_read("q", 9, 1), 4);
        // missing objects read 0, ignore writes, and count from 0
        assert_eq!(s.array_read("gone", 0, 0), 0);
        assert_eq!(s.array_add("gone", 0, 0, 5), 5);
        assert_eq!(s.array_add_slot(usize::MAX, 0, 0, 5), 5);
        s.array_write_slot(usize::MAX, 0, 0, 1);
    }

    #[test]
    fn table_hit_miss_write_delete() {
        let mut s = store_with(
            "t",
            ObjectKind::Table {
                match_kind: clickinc_ir::MatchKind::Exact,
                key_width: 32,
                value_width: 32,
                depth: 16,
                stateful: false,
            },
        );
        let key = [Value::Int(7)];
        assert_eq!(s.table_get("t", &key), Value::None);
        s.table_write("t", &key, vec![Value::Int(99)]);
        assert_eq!(s.table_get("t", &key), Value::Int(99));
        assert_eq!(s.table_get("t", &[Value::Int(8)]), Value::None);
        s.delete("t", &key);
        assert_eq!(s.table_get("t", &key), Value::None);
    }

    /// The digest `fingerprint` gives a store holding one table `t` with
    /// these entries, hashed in key-digest order.
    fn table_digest(entries: &BTreeMap<u64, Vec<Value>>) -> u64 {
        let mut h = Fnv::new();
        h.write_str("t");
        h.write_u64(4);
        for (k, values) in entries {
            h.write_u64(*k);
            for v in values {
                h.write_u64(value_key(v));
            }
        }
        h.finish()
    }

    /// Key `i` of a small pool: `Int` (`-1` among them, which collides with
    /// `None` by design), `Bytes`, `Float`, `None` and two-value keys.
    fn pool_key(i: u64) -> Vec<Value> {
        match i % 6 {
            0 => vec![Value::Int(i as i64 / 6 - 1)],
            1 => vec![Value::Bytes(vec![i as u8, 1])],
            2 => vec![Value::Float(i as f64 / 4.0)],
            3 => vec![Value::None],
            4 => vec![Value::Int(i as i64), Value::Bytes(vec![i as u8])],
            _ => vec![Value::Int(i as i64), Value::Int(-(i as i64))],
        }
    }

    proptest::proptest! {
        /// The hashed table answers every lookup and digests exactly like
        /// the `BTreeMap` keyed by the same key digest, through writes,
        /// removals by slot and by name, clears and shard merges.
        #[test]
        fn the_hashed_table_behaves_like_a_sorted_map(
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..160),
        ) {
            let table = ObjectKind::Table {
                match_kind: clickinc_ir::MatchKind::Exact,
                key_width: 64,
                value_width: 32,
                depth: 64,
                stateful: false,
            };
            let mut stores = [store_with("t", table.clone()), store_with("t", table)];
            let mut models: [BTreeMap<u64, Vec<Value>>; 2] = Default::default();
            for op in ops {
                let side = (op >> 4) as usize & 1;
                let key = pool_key((op >> 5) % 24);
                let v = (op >> 10) as i64 % 1000;
                let value = match v % 4 {
                    0 => vec![Value::Int(v)],
                    1 => vec![Value::Int(v), Value::Bool(v % 2 == 1)],
                    2 => vec![Value::None],
                    _ => vec![],
                };
                let slot = stores[side].slot_of("t").unwrap();
                match op % 16 {
                    0..=6 => {
                        stores[side].table_write("t", &key, value.clone());
                        models[side].insert(table_key(&key), value);
                    }
                    7..=9 => {
                        stores[side].table_remove_slot(slot, &key);
                        models[side].remove(&table_key(&key));
                    }
                    10 | 11 => {
                        stores[side].delete("t", &key);
                        models[side].remove(&table_key(&key));
                    }
                    12 => {
                        stores[side].clear_slot(slot);
                        models[side].clear();
                    }
                    _ => {
                        let [into, from] = if side == 0 { [0, 1] } else { [1, 0] };
                        let from_store = stores[from].clone();
                        stores[into].merge_shard_from(&from_store, |_| true);
                        for (k, v) in models[from].clone() {
                            models[into].entry(k).or_insert(v);
                        }
                        // a first copy carries the table whole
                        let mut copy = ObjectStore::new();
                        copy.merge_shard_from(&stores[into], |_| false);
                        proptest::prop_assert_eq!(copy.fingerprint(), table_digest(&models[into]));
                    }
                }
                for (store, model) in stores.iter().zip(&models) {
                    for i in 0..24 {
                        let key = pool_key(i);
                        let expected = model
                            .get(&table_key(&key))
                            .map(|v| v.first().cloned().unwrap_or(Value::None))
                            .unwrap_or(Value::None);
                        proptest::prop_assert_eq!(store.table_get("t", &key), expected.clone());
                        proptest::prop_assert_eq!(store.table_get_slot(slot, &key), expected);
                    }
                    proptest::prop_assert_eq!(store.fingerprint(), table_digest(model));
                }
            }
        }
    }

    #[test]
    fn hash_is_deterministic_and_respects_modulus() {
        let s = store_with(
            "h",
            ObjectKind::Hash { algo: clickinc_ir::HashAlgo::Crc16, modulus: Some(100) },
        );
        let a = s.hash("h", &[Value::Int(5)]);
        let b = s.hash("h", &[Value::Int(5)]);
        assert_eq!(a, b);
        assert!((0..100).contains(&a));
        assert_ne!(s.hash("h", &[Value::Int(5)]), s.hash("h", &[Value::Int(6)]));
        // the split seed/modulus form the VM compiles against is identical
        assert_eq!(
            hash_with_seed(hash_seed("h"), s.hash_modulus("h"), &[Value::Int(5)]),
            s.hash("h", &[Value::Int(5)])
        );
    }

    #[test]
    fn cms_counts_and_bloom_membership() {
        let mut s = store_with(
            "cms",
            ObjectKind::Sketch { kind: SketchKind::CountMin, rows: 3, cols: 128, width: 32 },
        );
        for _ in 0..5 {
            s.sketch_count("cms", &Value::Int(7), 1);
        }
        assert!(s.sketch_estimate("cms", &Value::Int(7)) >= 5);
        assert_eq!(s.sketch_estimate("cms", &Value::Int(12345)), 0);

        let mut bf = store_with(
            "bf",
            ObjectKind::Sketch { kind: SketchKind::Bloom, rows: 2, cols: 256, width: 1 },
        );
        bf.sketch_count("bf", &Value::Bytes(vec![1, 2, 3]), 1);
        assert!(bf.sketch_estimate("bf", &Value::Bytes(vec![1, 2, 3])) > 0);

        // a sketch never written reads 0 for every key, and digests like one
        // whose counts all went back to 0 and like one cleared
        let cms = ObjectKind::Sketch { kind: SketchKind::CountMin, rows: 3, cols: 128, width: 32 };
        let idle = store_with("cms", cms.clone());
        for key in [Value::Int(7), Value::Bytes(vec![1]), Value::None] {
            assert_eq!(idle.sketch_estimate("cms", &key), 0);
        }
        assert!(!materialised(&idle, "cms"));
        let mut undone = store_with("cms", cms.clone());
        assert_eq!(undone.sketch_count("cms", &Value::Int(7), 0), 0, "a 0 count adds nothing");
        assert!(!materialised(&undone, "cms"), "a 0 count over zeros stores nothing");
        assert_eq!(undone.sketch_count("cms", &Value::Int(7), 3), 3);
        assert_eq!(undone.sketch_count("cms", &Value::Int(7), -3), 0);
        assert_eq!(undone.fingerprint(), idle.fingerprint());
        s.clear("cms");
        assert_eq!(s.sketch_estimate("cms", &Value::Int(7)), 0);
        assert_eq!(s.fingerprint(), idle.fingerprint());
        // but a counter the sketch holds is in its digest, zeros around it
        // included: the same count in another column digests differently
        let mut one = store_with("cms", cms.clone());
        one.sketch_count("cms", &Value::Int(7), 1);
        let mut other = store_with("cms", cms);
        other.sketch_count("cms", &Value::Int(8), 1);
        assert_ne!(one.fingerprint(), idle.fingerprint());
        assert_ne!(one.fingerprint(), other.fingerprint());
        let idle_bf = store_with(
            "bf",
            ObjectKind::Sketch { kind: SketchKind::Bloom, rows: 2, cols: 256, width: 1 },
        );
        assert_eq!(idle_bf.sketch_estimate("bf", &Value::Bytes(vec![1, 2, 3])), 0);
        assert_ne!(bf.fingerprint(), idle_bf.fingerprint());
    }

    #[test]
    fn merge_and_fingerprint_reconstruct_a_shared_store() {
        let array = ObjectKind::Array { rows: 1, size: 16, width: 32 };
        // two tenant-partitioned stores with disjoint object names
        let mut a = store_with("t1_a", array.clone());
        a.array_write("t1_a", 0, 3, 7);
        let mut b = store_with("t2_a", array.clone());
        b.array_write("t2_a", 0, 5, 9);
        // the shared store both tenants would have written into
        let mut shared = ObjectStore::new();
        shared.declare(&ObjectDecl::new("t1_a", array.clone()));
        shared.declare(&ObjectDecl::new("t2_a", array));
        shared.array_write("t1_a", 0, 3, 7);
        shared.array_write("t2_a", 0, 5, 9);

        let mut merged = ObjectStore::new();
        merged.merge_shard_from(&a, |_| false);
        merged.merge_shard_from(&b, |_| false);
        assert_eq!(merged.fingerprint(), shared.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // fingerprints react to content changes
        let before = merged.fingerprint();
        merged.array_write("t1_a", 0, 3, 8);
        assert_ne!(merged.fingerprint(), before);
    }

    #[test]
    fn shard_merge_recombines_flow_partitions_and_keeps_tenant_partitions() {
        let array = ObjectKind::Array { rows: 1, size: 16, width: 32 };
        let cms = ObjectKind::Sketch { kind: SketchKind::CountMin, rows: 2, cols: 8, width: 32 };
        let bloom = ObjectKind::Sketch { kind: SketchKind::Bloom, rows: 1, cols: 8, width: 1 };
        let table = ObjectKind::Table {
            match_kind: clickinc_ir::MatchKind::Exact,
            key_width: 32,
            value_width: 32,
            depth: 8,
            stateful: false,
        };
        // two shard partitions of the same flow-sharded tenant's objects,
        // plus a tenant-partitioned object present on one shard only
        let mut shard0 = ObjectStore::new();
        let mut shard1 = ObjectStore::new();
        for s in [&mut shard0, &mut shard1] {
            s.declare(&ObjectDecl::new("flow_hits", array.clone()));
            s.declare(&ObjectDecl::new("flow_cms", cms.clone()));
            s.declare(&ObjectDecl::new("flow_bf", bloom.clone()));
            s.declare(&ObjectDecl::new("flow_cache", table.clone()));
            // counted on one shard only, each side once
            s.declare(&ObjectDecl::new("flow_cms_late", cms.clone()));
            s.declare(&ObjectDecl::new("flow_bf_late", bloom.clone()));
            // the control-plane replicated the same cache entry everywhere
            s.table_write("flow_cache", &[Value::Int(1)], vec![Value::Int(10)]);
        }
        shard1.sketch_count("flow_cms_late", &Value::Int(3), 5);
        shard0.sketch_count("flow_bf_late", &Value::Int(4), 1);
        shard0.declare(&ObjectDecl::new("solo_a", array.clone()));
        shard0.array_write("solo_a", 0, 0, 9);
        // disjoint flow partitions, plus one colliding counter cell
        shard0.array_add("flow_hits", 0, 1, 2);
        shard1.array_add("flow_hits", 0, 1, 3);
        shard1.array_add("flow_hits", 0, 5, 7);
        shard0.sketch_count("flow_cms", &Value::Int(1), 4);
        shard1.sketch_count("flow_cms", &Value::Int(1), 6);
        shard0.sketch_count("flow_bf", &Value::Int(2), 1);
        shard1.sketch_count("flow_bf", &Value::Int(2), 1);

        // the single shared store every packet would have hit unsharded
        let mut shared = ObjectStore::new();
        shared.declare(&ObjectDecl::new("flow_hits", array.clone()));
        shared.declare(&ObjectDecl::new("flow_cms", cms.clone()));
        shared.declare(&ObjectDecl::new("flow_bf", bloom.clone()));
        shared.declare(&ObjectDecl::new("flow_cache", table));
        shared.declare(&ObjectDecl::new("flow_cms_late", cms));
        shared.declare(&ObjectDecl::new("flow_bf_late", bloom));
        shared.table_write("flow_cache", &[Value::Int(1)], vec![Value::Int(10)]);
        shared.sketch_count("flow_cms_late", &Value::Int(3), 5);
        shared.sketch_count("flow_bf_late", &Value::Int(4), 1);
        shared.declare(&ObjectDecl::new("solo_a", array));
        shared.array_write("solo_a", 0, 0, 9);
        shared.array_add("flow_hits", 0, 1, 5);
        shared.array_add("flow_hits", 0, 5, 7);
        shared.sketch_count("flow_cms", &Value::Int(1), 10);
        shared.sketch_count("flow_bf", &Value::Int(2), 1);

        let mut merged = ObjectStore::new();
        let is_flow = |name: &str| name.starts_with("flow_");
        merged.merge_shard_from(&shard0, is_flow);
        merged.merge_shard_from(&shard1, is_flow);
        assert_eq!(merged.fingerprint(), shared.fingerprint());
        assert_eq!(merged.sketch_estimate("flow_cms_late", &Value::Int(3)), 5);
        assert_eq!(merged.sketch_estimate("flow_bf_late", &Value::Int(4)), 1);
        // merged the other way round, the unwritten side is the accumulator
        let mut reversed = ObjectStore::new();
        reversed.merge_shard_from(&shard1, is_flow);
        assert!(!materialised(&reversed, "flow_bf_late"));
        reversed.merge_shard_from(&shard0, is_flow);
        assert!(materialised(&reversed, "flow_bf_late"));
        assert_eq!(reversed.fingerprint(), shared.fingerprint());
    }

    #[test]
    fn replicated_baseline_merge_reconciles_to_the_unsharded_store() {
        // A tenant accumulates state unsharded, is live-resharded across two
        // shards (each seeded with the full baseline), keeps accumulating,
        // and the final additive merge minus one baseline copy must equal
        // the store an unsharded run would hold.
        let array = ObjectKind::Array { rows: 1, size: 16, width: 32 };
        let cms = ObjectKind::Sketch { kind: SketchKind::CountMin, rows: 2, cols: 8, width: 32 };
        let bloom = ObjectKind::Sketch { kind: SketchKind::Bloom, rows: 1, cols: 8, width: 1 };
        let mut baseline = ObjectStore::new();
        baseline.declare(&ObjectDecl::new("t_hits", array.clone()));
        baseline.declare(&ObjectDecl::new("t_cms", cms.clone()));
        baseline.declare(&ObjectDecl::new("t_bf", bloom.clone()));
        // never written before the reshard, then counted on one shard
        baseline.declare(&ObjectDecl::new("t_cms_late", cms.clone()));
        baseline.declare(&ObjectDecl::new("t_bf_late", bloom.clone()));
        baseline.array_add("t_hits", 0, 1, 5);
        baseline.sketch_count("t_cms", &Value::Int(1), 3);
        baseline.sketch_count("t_bf", &Value::Int(1), 1);

        // each shard replica starts from the full baseline, then accumulates
        // its own flow partition
        let mut shard0 = baseline.clone();
        let mut shard1 = baseline.clone();
        shard0.array_add("t_hits", 0, 1, 2); // same cell as the baseline
        shard1.array_add("t_hits", 0, 7, 4); // fresh cell
        shard0.sketch_count("t_cms", &Value::Int(1), 1);
        shard1.sketch_count("t_cms", &Value::Int(2), 6);
        shard1.sketch_count("t_bf", &Value::Int(2), 1);
        shard1.sketch_count("t_cms_late", &Value::Int(4), 2);
        shard0.sketch_count("t_bf_late", &Value::Int(5), 1);

        // the unsharded reference: baseline plus both shards' deltas once
        let mut shared = baseline.clone();
        shared.array_add("t_hits", 0, 1, 2);
        shared.array_add("t_hits", 0, 7, 4);
        shared.sketch_count("t_cms", &Value::Int(1), 1);
        shared.sketch_count("t_cms", &Value::Int(2), 6);
        shared.sketch_count("t_bf", &Value::Int(2), 1);
        shared.sketch_count("t_cms_late", &Value::Int(4), 2);
        shared.sketch_count("t_bf_late", &Value::Int(5), 1);

        let mut merged = ObjectStore::new();
        merged.merge_shard_from(&shard0, |_| true);
        merged.merge_shard_from(&shard1, |_| true);
        merged.subtract_replica_baseline(&baseline, 1); // 2 shards → 1 extra copy
        assert_eq!(merged.fingerprint(), shared.fingerprint());
        assert_eq!(merged.array_read("t_hits", 0, 1), 7);
        assert_eq!(merged.array_read("t_hits", 0, 7), 4);
        // Bloom rows OR, so replication needs no deduction
        assert!(merged.sketch_estimate("t_bf", &Value::Int(1)) > 0);
        assert!(merged.sketch_estimate("t_bf", &Value::Int(2)) > 0);
        assert_eq!(merged.sketch_estimate("t_cms_late", &Value::Int(4)), 2);
        // deducting a written baseline from a sketch no shard wrote
        let mut owed = ObjectStore::new();
        owed.declare(&ObjectDecl::new("t_cms", cms));
        owed.subtract_replica_baseline(&baseline, 2);
        assert_eq!(owed.sketch_estimate("t_cms", &Value::Int(1)), -6);
    }

    /// A store holding every stateful kind: a 400-entry exact table over
    /// one- and two-value keys of every value type, a written CMS, a Bloom
    /// filter, a CMS never written, and an array.
    fn pinned_store(salt: i64) -> ObjectStore {
        let mut s = ObjectStore::new();
        let table = ObjectKind::Table {
            match_kind: clickinc_ir::MatchKind::Exact,
            key_width: 64,
            value_width: 32,
            depth: 512,
            stateful: false,
        };
        s.declare(&ObjectDecl::new("t_cache", table));
        let cms = ObjectKind::Sketch { kind: SketchKind::CountMin, rows: 3, cols: 64, width: 32 };
        s.declare(&ObjectDecl::new("t_cms", cms));
        let bloom = ObjectKind::Sketch { kind: SketchKind::Bloom, rows: 2, cols: 128, width: 1 };
        s.declare(&ObjectDecl::new("t_bf", bloom));
        let idle = ObjectKind::Sketch { kind: SketchKind::CountMin, rows: 4, cols: 32, width: 32 };
        s.declare(&ObjectDecl::new("t_idle", idle));
        s.declare(&ObjectDecl::new("t_hits", ObjectKind::Array { rows: 2, size: 16, width: 32 }));
        for i in 0..400i64 {
            let key = match i % 5 {
                0 => vec![Value::Int(i * 7919 - 1000 + salt)],
                1 => vec![Value::Bytes(format!("key{}", i + salt).into_bytes())],
                2 => vec![Value::Float(i as f64 * 0.5 + salt as f64)],
                3 => vec![Value::Int(i + salt), Value::Bytes(vec![i as u8, 7])],
                _ => vec![Value::Int(i - salt), Value::Int(-i)],
            };
            let value = match i % 3 {
                0 => vec![Value::Int(i * 3 + salt)],
                1 => vec![Value::Int(i), Value::Bool(i % 2 == 0)],
                _ => vec![Value::None],
            };
            s.table_write("t_cache", &key, value);
        }
        s.table_write("t_cache", &[Value::None], vec![Value::Int(1)]);
        for i in 0..200i64 {
            s.sketch_count("t_cms", &Value::Int((i * 31 + salt) % 97), 1 + i % 4);
        }
        for i in 0..20i64 {
            s.sketch_count("t_bf", &Value::Int(i * 13 + salt), 1);
        }
        for cell in 0..16 {
            s.array_add("t_hits", cell % 2, cell, i64::from(cell) * 5 + salt);
        }
        s
    }

    /// Digests pinned from the store layout before tables were hashed and
    /// sketches moved onto `Cells` (a `BTreeMap` table, one `Vec` per
    /// sketch row): the layout is not part of the digest.
    #[test]
    fn fingerprints_match_the_digests_pinned_before_the_hashed_layout() {
        let one = pinned_store(0);
        let two = pinned_store(3);
        let mut merged = ObjectStore::new();
        merged.merge_shard_from(&one, |_| true);
        merged.merge_shard_from(&two, |_| true);
        let mut reconciled = merged.clone();
        reconciled.subtract_replica_baseline(&one, 2);
        let mut cleared = one.clone();
        cleared.clear("t_cms");
        cleared.clear("t_cache");
        let digests = [
            one.fingerprint(),
            two.fingerprint(),
            merged.fingerprint(),
            reconciled.fingerprint(),
            cleared.fingerprint(),
        ];
        assert_eq!(
            digests,
            [
                0x6460_8978_7ffc_a7ce,
                0x987e_7b97_5fe6_fe02,
                0x53cd_f873_353c_c033,
                0xf8cb_b70d_d667_e2e4,
                0xb8cc_1fb8_39f9_1451,
            ]
        );
    }

    /// A KVS tenant's sketches hold no counter block until a packet counts
    /// in them: the install allocates none.
    #[test]
    fn installing_the_kvs_template_materialises_no_sketch_before_its_first_packet() {
        use crate::packet::kvs_request;
        use crate::DevicePlane;
        use clickinc_lang::templates::{kvs_template, KvsParams};
        let t = kvs_template("kvs", KvsParams::default());
        let mut plane = DevicePlane::new("SW0", clickinc_device::DeviceModel::tofino());
        plane.install(clickinc_frontend::compile_source("kvs", &t.source).unwrap());
        for name in ["cms", "bf", "hits"] {
            assert!(!materialised(plane.store(), name), "{name} allocated at install");
        }
        // a miss counts in the CMS only; it stays under the Bloom threshold
        plane.process(&mut kvs_request("c", "s", 0, 7));
        assert!(materialised(plane.store(), "cms"));
        assert!(!materialised(plane.store(), "bf") && !materialised(plane.store(), "hits"));
    }

    #[test]
    fn remove_object_drops_state() {
        let array = ObjectKind::Array { rows: 1, size: 8, width: 32 };
        let mut s = ObjectStore::new();
        s.declare(&ObjectDecl::new("t1_a", array.clone()));
        s.declare(&ObjectDecl::new("t2_a", array.clone()));
        s.array_write("t1_a", 0, 2, 9);
        s.array_write("t2_a", 0, 2, 4);
        let mut moved = ObjectStore::new();
        assert!(s.remove_object("t1_a", &mut moved));
        assert!(!s.remove_object("t1_a", &mut moved));
        assert!(!s.contains("t1_a"));
        assert_eq!(s.array_read("t1_a", 0, 2), 0);
        assert_eq!(s.array_read("t2_a", 0, 2), 4, "the other object stays");
        // the declaration and contents moved: equal to a store that only
        // ever held t1's object
        assert!(moved.contains("t1_a") && !moved.contains("t2_a"));
        assert_eq!(moved.array_read("t1_a", 0, 2), 9);
        let mut reference = ObjectStore::new();
        reference.declare(&ObjectDecl::new("t1_a", array));
        reference.array_write("t1_a", 0, 2, 9);
        assert_eq!(moved.fingerprint(), reference.fingerprint());
    }

    #[test]
    fn redeclaration_preserves_contents() {
        let decl = ObjectDecl::new("a", ObjectKind::Array { rows: 1, size: 4, width: 32 });
        let mut s = ObjectStore::new();
        s.declare(&decl);
        s.array_write("a", 0, 1, 5);
        s.declare(&decl);
        assert_eq!(s.array_read("a", 0, 1), 5);
        assert!(s.contains("a"));
        assert!(!s.contains("b"));
    }

    #[test]
    fn slot_indices_survive_removal_of_other_objects() {
        let array = ObjectKind::Array { rows: 1, size: 8, width: 32 };
        let mut s = ObjectStore::new();
        s.declare(&ObjectDecl::new("a", array.clone()));
        s.declare(&ObjectDecl::new("b", array.clone()));
        let slot_b = s.slot_of("b").unwrap();
        s.array_write_slot(slot_b, 0, 2, 11);
        s.remove_object("a", &mut ObjectStore::new());
        assert_eq!(s.slot_of("b"), Some(slot_b), "tombstoning `a` must not move `b`");
        assert_eq!(s.array_read_slot(slot_b, 0, 2), 11);
        assert_eq!(s.slot_of("a"), None);
        // fingerprint equals a store that never saw `a` at all
        let mut fresh = ObjectStore::new();
        fresh.declare(&ObjectDecl::new("b", array));
        fresh.array_write("b", 0, 2, 11);
        assert_eq!(s.fingerprint(), fresh.fingerprint());
    }
}
