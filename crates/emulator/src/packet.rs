//! Packets and the ClickINC INC header.
//!
//! The INC layer fixes one header format per user program (paper §4.1), and
//! a stream's packets differ only in their values, so everything else is
//! described once and shared: a [`StreamRecord`] holds one stream's
//! endpoints, INC user id and sorted field names behind an `Arc`, and each
//! [`IncHeader`] carries that `Arc`, a slot vector of values laid out by it,
//! its step number, its live-field count and which way along the stream it
//! travels.  A [`PacketShape`] stamps every packet of a stream from one
//! record, so a generated packet is one heap block (its slots), and a clone
//! or a drop touches one reference count and allocates or frees that block.
//! By name, a header still behaves like the map it replaced: absent and
//! [`Value::None`] fields read alike, and writing a field the record does
//! not carry gives that one header a private, grown copy of the record.  The
//! register VM resolves names to slots once per record (see `vm::RegFile`);
//! the interpreter goes by name.

use clickinc_ir::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What every packet of one stream shares: the endpoints, the INC user id
/// and the application field names, sorted and unique.  A field's position
/// in the names is its slot in every [`IncHeader`] sharing the record.
#[derive(Debug, Default)]
pub struct StreamRecord {
    /// In slot (= lexicographic) order.
    names: Vec<Box<str>>,
    /// Source host name of the stream's forward direction.
    src: Arc<str>,
    /// Destination host name of the stream's forward direction.
    dst: Arc<str>,
    /// Numeric id of the owning user program.
    user: i64,
}

impl StreamRecord {
    /// `Ok` with the slot of a field the record carries, `Err` with the slot
    /// the field would take.
    fn position(&self, field: &str) -> Result<usize, usize> {
        self.names.binary_search_by(|name| (**name).cmp(field))
    }

    /// The slot of a field, if the record carries it.
    pub fn slot_of(&self, field: &str) -> Option<usize> {
        self.position(field).ok()
    }
}

/// The generic internal INC header maintained by the INC layer on end hosts
/// (paper §4.1 "Transparent Network"): the user id used for traffic isolation,
/// the step number used to coordinate replicated blocks, and the application
/// fields — the slot vector is the only state a packet carries between
/// devices.
///
/// Headers compare by content: user id, step, field names and values, the
/// names alike whichever `Arc` holds them.
#[derive(Debug, Clone, Default)]
pub struct IncHeader {
    /// Current step number.  Programs read it (`meta.step`); no device in the
    /// emulator advances it, so it stays as the packet was built.
    pub step: i64,
    /// Endpoints, user id and field names, shared by every packet of the
    /// stream.
    record: Arc<StreamRecord>,
    /// One value per record name.  A field set to [`Value::None`] is treated
    /// as removed from the wire format (the sparse-block deletion of Fig. 7)
    /// and does not count towards the packet size.
    slots: Vec<Value>,
    /// How many of `slots` are live (not [`Value::None`]), kept in step by
    /// every write so that the wire size is a field read, not a scan.
    live: u32,
    /// The packet heads from the record's `dst` to its `src` (flipped by
    /// [`Packet::bounce`]).  The packet's, not the header's, but kept here,
    /// in the padding behind `live`, so that a [`Packet`] is 48 bytes.
    reversed: bool,
}

impl PartialEq for IncHeader {
    fn eq(&self, other: &IncHeader) -> bool {
        self.step == other.step
            && self.user() == other.user()
            && self.slots == other.slots
            && (Arc::ptr_eq(&self.record, &other.record) || self.record.names == other.record.names)
    }
}

impl IncHeader {
    /// Numeric id of the owning user program.
    pub fn user(&self) -> i64 {
        self.record.user
    }

    /// Read a field (removed / absent fields read as [`Value::None`]).
    pub fn get(&self, field: &str) -> Value {
        self.get_ref(field).clone()
    }

    /// Borrow a field, as [`get`](IncHeader::get) reads it, without copying
    /// its value (a `Bytes` field's copy is an allocation).
    pub fn get_ref(&self, field: &str) -> &Value {
        self.record.slot_of(field).map_or(&Value::None, |slot| &self.slots[slot])
    }

    /// Set a field.  Writing a field the record does not carry grows a copy
    /// of the record private to this header; removing such a field is a
    /// no-op, since it already reads as [`Value::None`].
    pub fn set(&mut self, field: &str, value: Value) {
        match self.record.position(field) {
            Ok(slot) => self.set_slot(slot, value),
            Err(_) if value.is_none() => {}
            Err(at) => {
                let StreamRecord { names, src, dst, user } = &*self.record;
                let mut names = names.clone();
                names.insert(at, field.into());
                let (src, dst, user) = (Arc::clone(src), Arc::clone(dst), *user);
                self.record = Arc::new(StreamRecord { names, src, dst, user });
                self.slots.insert(at, value);
                self.live += 1;
            }
        }
    }

    /// Number of live (non-removed) application fields.
    pub fn live_fields(&self) -> usize {
        self.live as usize
    }

    /// Every field the record carries with its value, in name order (removed
    /// fields included, as [`Value::None`]).
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.record.names.iter().map(|name| &**name).zip(&self.slots)
    }

    /// The record shared with the rest of this header's stream.  A served
    /// packet's release shows as a drop in the record's reference count.
    pub fn record(&self) -> &Arc<StreamRecord> {
        &self.record
    }

    /// The value in `slot` of the record.
    pub(crate) fn slot(&self, slot: usize) -> &Value {
        &self.slots[slot]
    }

    /// Overwrite the value in `slot` of the record.
    pub(crate) fn set_slot(&mut self, slot: usize, value: Value) {
        let was_live = !self.slots[slot].is_none();
        self.live = self.live + u32::from(!value.is_none()) - u32::from(was_live);
        self.slots[slot] = value;
    }
}

/// A packet travelling through the emulated network: its INC header, whose
/// stream record also names the endpoints.
///
/// Packets compare by content, endpoints in travel order included: a reply
/// bounced on a `c → s` stream equals an `s → c` packet with the same
/// header.
#[derive(Debug, Clone)]
pub struct Packet {
    /// The INC header.
    pub inc: IncHeader,
}

impl PartialEq for Packet {
    fn eq(&self, other: &Packet) -> bool {
        self.src() == other.src() && self.dst() == other.dst() && self.inc == other.inc
    }
}

impl Packet {
    /// Standard encapsulation overhead: 14 (Ethernet) + 20 (IPv4) + 8 (UDP) +
    /// 8 (INC header: user id, step number).
    pub const BASE_BYTES: usize = 14 + 20 + 8 + 8;

    /// Bytes per live application field.
    pub const BYTES_PER_FIELD: usize = 4;

    /// Create a packet for a user program with the given application fields
    /// (and a record of its own; streams stamp theirs from a [`PacketShape`]).
    pub fn new(src: &str, dst: &str, user: i64, fields: BTreeMap<String, Value>) -> Packet {
        // a `BTreeMap` iterates in key order, which is slot order
        let (names, slots) = fields.into_iter().map(|(name, v)| (name.into_boxed_str(), v)).unzip();
        Packet::laid_out(src, dst, user, names, slots)
    }

    /// A packet over a fresh record of `names` (sorted, unique).
    fn laid_out(
        src: &str,
        dst: &str,
        user: i64,
        names: Vec<Box<str>>,
        slots: Vec<Value>,
    ) -> Packet {
        let record = StreamRecord { names, src: src.into(), dst: dst.into(), user };
        let live = slots.iter().filter(|v| !v.is_none()).count();
        Packet {
            inc: IncHeader {
                step: 0,
                record: Arc::new(record),
                live: u32::try_from(live).expect("fewer than 2^32 fields"),
                slots,
                reversed: false,
            },
        }
    }

    /// Source host name, in the direction the packet travels.
    pub fn src(&self) -> &str {
        let record = &self.inc.record;
        if self.inc.reversed {
            &record.dst
        } else {
            &record.src
        }
    }

    /// Destination host name, in the direction the packet travels.
    pub fn dst(&self) -> &str {
        let record = &self.inc.record;
        if self.inc.reversed {
            &record.src
        } else {
            &record.dst
        }
    }

    /// Current wire size in bytes: encapsulation + live fields.
    pub fn wire_bytes(&self) -> usize {
        Packet::BASE_BYTES + self.inc.live_fields() * Packet::BYTES_PER_FIELD
    }

    /// Swap source and destination (the `back()` primitive).
    pub fn bounce(&mut self) {
        self.inc.reversed = !self.inc.reversed;
    }
}

/// The part of a packet every packet of one stream shares — its
/// [`StreamRecord`] and default field values — built once so that stamping
/// a packet allocates nothing but its slot vector.
#[derive(Debug, Clone)]
pub struct PacketShape {
    template: Packet,
}

impl PacketShape {
    /// A shape whose packets carry `fields`, each defaulting to the given
    /// value.
    ///
    /// # Panics
    /// If a field is named twice.
    pub fn new<'a>(
        src: &str,
        dst: &str,
        user: i64,
        fields: impl IntoIterator<Item = (&'a str, Value)>,
    ) -> PacketShape {
        let mut fields: Vec<(Box<str>, Value)> =
            fields.into_iter().map(|(name, v)| (name.into(), v)).collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        assert!(fields.windows(2).all(|w| w[0].0 != w[1].0), "a field is named twice");
        let (names, slots) = fields.into_iter().unzip();
        PacketShape { template: Packet::laid_out(src, dst, user, names, slots) }
    }

    /// A packet with every field at its default.
    pub fn stamp(&self) -> Packet {
        self.template.clone()
    }

    /// The slot of a field the shape was built with.
    fn slot_of(&self, field: &str) -> usize {
        self.template.inc.record.slot_of(field).expect("the shape carries the field")
    }

    /// A packet with the given `(slot, value)` pairs written over the
    /// defaults; slots come from [`PacketShape::slot_of`].
    fn stamp_with(&self, values: impl IntoIterator<Item = (usize, Value)>) -> Packet {
        let mut packet = self.stamp();
        for (slot, value) in values {
            packet.inc.set_slot(slot, value);
        }
        packet
    }
}

/// The MLAgg gradient packet family: a sequence number, worker bitmap,
/// overflow flag and `dims` data fields.
#[derive(Debug, Clone)]
pub struct GradientShape {
    shape: PacketShape,
    seq: usize,
    bitmap: usize,
    /// Slot of `data_d`, indexed by `d` (name order is not dimension order:
    /// `data_10` sorts before `data_2`).
    data: Vec<usize>,
}

impl GradientShape {
    /// The shape of `dims`-dimensional gradient packets of one worker group.
    pub fn new(src: &str, dst: &str, user: i64, dims: usize) -> GradientShape {
        let data_names: Vec<String> = (0..dims).map(|d| format!("data_{d}")).collect();
        let names = ["op", "seq", "bitmap", "overflow"]
            .into_iter()
            .chain(data_names.iter().map(String::as_str));
        let shape = PacketShape::new(src, dst, user, names.map(|name| (name, Value::Int(0))));
        GradientShape {
            seq: shape.slot_of("seq"),
            bitmap: shape.slot_of("bitmap"),
            data: data_names.iter().map(|name| shape.slot_of(name)).collect(),
            shape,
        }
    }

    /// Worker `worker`'s contribution to round `seq`; dimensions beyond
    /// `values` are zero.
    pub fn packet(&self, seq: i64, worker: usize, values: &[i64]) -> Packet {
        let header = [(self.seq, Value::Int(seq)), (self.bitmap, Value::Int(1 << worker))];
        let data = self.data.iter().zip(values).map(|(slot, v)| (*slot, Value::Int(*v)));
        self.shape.stamp_with(header.into_iter().chain(data))
    }
}

/// Build a gradient packet for the MLAgg workload: a sequence number, worker
/// bitmap and `dims` data fields, of which a `sparsity` fraction of
/// `block_size`-sized blocks are all zero.
pub fn gradient_packet(
    src: &str,
    dst: &str,
    user: i64,
    seq: i64,
    worker: usize,
    dims: usize,
    values: &[i64],
) -> Packet {
    GradientShape::new(src, dst, user, dims).packet(seq, worker, values)
}

/// The KVS request packet family: an opcode, the key and an empty value
/// field for the reply.
#[derive(Debug, Clone)]
pub struct KvsShape {
    shape: PacketShape,
    key: usize,
}

impl KvsShape {
    /// The shape of one client's GET requests.
    pub fn new(src: &str, dst: &str, user: i64) -> KvsShape {
        let fields = [("op", Value::Int(1)), ("key", Value::Int(0)), ("vals", Value::None)];
        let shape = PacketShape::new(src, dst, user, fields);
        KvsShape { key: shape.slot_of("key"), shape }
    }

    /// A GET for `key`.
    pub fn request(&self, key: i64) -> Packet {
        self.shape.stamp_with([(self.key, Value::Int(key))])
    }
}

/// Build a KVS request packet.
pub fn kvs_request(src: &str, dst: &str, user: i64, key: i64) -> Packet {
    KvsShape::new(src, dst, user).request(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wire_size_tracks_live_fields() {
        let mut p = gradient_packet("w0", "ps", 1, 7, 0, 4, &[1, 2, 3, 4]);
        let before = p.wire_bytes();
        // deleting two sparse fields shrinks the packet
        p.inc.set("data_2", Value::None);
        p.inc.set("data_3", Value::None);
        assert_eq!(p.wire_bytes(), before - 2 * Packet::BYTES_PER_FIELD);
        assert!(p.wire_bytes() >= Packet::BASE_BYTES);
        // stamping counts too: a request's `vals` defaults to removed, and a
        // stamp may fill it or remove a default
        let requests = KvsShape::new("c", "s", 1);
        assert_eq!(requests.request(9).inc.live_fields(), 2);
        let (op, vals) = (requests.shape.slot_of("op"), requests.shape.slot_of("vals"));
        let reply = requests.shape.stamp_with([(vals, Value::Int(7))]);
        assert_eq!(reply.inc.live_fields(), 3);
        let bare = requests.shape.stamp_with([(op, Value::None), (op, Value::None)]);
        assert_eq!(bare.wire_bytes(), Packet::BASE_BYTES + Packet::BYTES_PER_FIELD);
    }

    #[test]
    fn header_get_set_roundtrip() {
        let mut h = IncHeader::default();
        assert_eq!(h.get("missing"), Value::None);
        h.set("seq", Value::Int(9));
        assert_eq!(h.get("seq"), Value::Int(9));
        assert_eq!(h.live_fields(), 1);
        h.set("seq", Value::None);
        assert_eq!(h.live_fields(), 0);
    }

    #[test]
    fn bounce_swaps_endpoints() {
        let mut p = kvs_request("client", "server", 2, 42);
        p.bounce();
        assert_eq!((p.src(), p.dst()), ("server", "client"));
        assert_eq!(p.inc.get("key"), Value::Int(42));
        assert_eq!(p.inc.user(), 2);
        p.bounce();
        assert_eq!((p.src(), p.dst()), ("client", "server"));
    }

    /// Equality is by content across a bounce: the direction bit selects
    /// which record endpoint is the source, and a packet compares by the
    /// endpoints it travels between.
    #[test]
    fn a_bounced_packet_equals_a_packet_sent_the_other_way() {
        let request = kvs_request("c", "s", 1, 9);
        let mut reply = request.clone();
        reply.bounce();
        assert!(Arc::ptr_eq(reply.inc.record(), request.inc.record()));
        assert_eq!(reply, kvs_request("s", "c", 1, 9));
        assert_ne!(reply, request);
        assert_ne!(reply, kvs_request("s", "c", 2, 9), "the user id is part of the header");
        reply.bounce();
        assert_eq!(reply, request);
    }

    /// A packet is its stream record's `Arc`, its slot vector, the step, the
    /// live count and the direction bit: 48 bytes, 56 with the arrival time
    /// a burst pairs it with — what the shard copies per packet.
    #[test]
    fn a_packet_is_one_record_reference_and_its_values() {
        assert!(std::mem::size_of::<Packet>() <= 48, "{}", std::mem::size_of::<Packet>());
        assert!(std::mem::size_of::<(u64, Packet)>() <= 56);
    }

    #[test]
    fn gradient_packet_carries_bitmap_and_data() {
        let p = gradient_packet("w1", "ps", 3, 5, 1, 3, &[10, 0, 30]);
        assert_eq!(p.inc.get("bitmap"), Value::Int(2));
        assert_eq!(p.inc.get("data_0"), Value::Int(10));
        assert_eq!(p.inc.get("data_2"), Value::Int(30));
        assert_eq!(p.inc.get("seq"), Value::Int(5));
    }

    #[test]
    fn shaped_packets_equal_their_one_off_twins_and_share_one_layout() {
        // 12 dimensions: `data_10` sorts before `data_2`, so slot order and
        // dimension order differ
        let values: Vec<i64> = (1..=12).collect();
        let shape = GradientShape::new("w", "ps", 4, 12);
        let (a, b) = (shape.packet(3, 1, &values), shape.packet(4, 2, &values[..5]));
        assert!(Arc::ptr_eq(a.inc.record(), b.inc.record()));
        assert_eq!(a, gradient_packet("w", "ps", 4, 3, 1, 12, &values));
        assert_eq!(b, gradient_packet("w", "ps", 4, 4, 2, 12, &values[..5]));
        assert_eq!(a.inc.get("data_10"), Value::Int(11));
        assert_eq!(b.inc.get("data_10"), Value::Int(0));
        assert_eq!(KvsShape::new("c", "s", 1).request(9), kvs_request("c", "s", 1, 9));
    }

    /// The header's contract by name: what the string-keyed map it replaced
    /// did, except that removing an absent field leaves no trace.
    #[derive(Clone, PartialEq, Debug)]
    struct Model(BTreeMap<&'static str, Value>);

    impl Model {
        fn set(&mut self, field: &'static str, value: Value) {
            if value.is_none() && !self.0.contains_key(field) {
                return;
            }
            self.0.insert(field, value);
        }

        fn live(&self) -> usize {
            self.0.values().filter(|v| !v.is_none()).count()
        }

        fn check(&self, packet: &Packet) -> Result<(), String> {
            let model_fields: Vec<(&str, &Value)> = self.0.iter().map(|(k, v)| (*k, v)).collect();
            prop_assert_eq!(packet.inc.fields().collect::<Vec<_>>(), model_fields);
            prop_assert_eq!(packet.inc.live_fields(), self.live());
            // the carried count is the recount
            let recount = packet.inc.fields().filter(|(_, v)| !v.is_none()).count();
            prop_assert_eq!(packet.inc.live_fields(), recount);
            prop_assert_eq!(packet.wire_bytes(), Packet::BASE_BYTES + 4 * self.live());
            for name in NAMES {
                let expected = self.0.get(name).cloned().unwrap_or(Value::None);
                prop_assert_eq!(packet.inc.get(name), expected, "field {}", name);
            }
            Ok(())
        }
    }

    /// Field universe of the model test; the first three form the starting
    /// record, so writes hit both carried and absent fields.
    const NAMES: [&str; 7] = ["key", "op", "vals", "data_10", "data_2", "a", "zz"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random set/remove/clone sequences on two headers stamped from one
        /// shape agree with the map model: reads, live count, wire size,
        /// iteration order, and equality across distinct `Arc`s.
        #[test]
        fn header_behaves_like_the_map_it_replaced(
            ops in proptest::collection::vec(0usize..2 * 4 * 7 * 7, 0..40),
        ) {
            let start = || NAMES[..3].iter().map(|name| (*name, Value::Int(0)));
            let shape = PacketShape::new("c", "s", 1, start());
            let mut packets = [shape.stamp(), shape.stamp()];
            let mut models = [Model(start().collect()), Model(start().collect())];
            for op in ops {
                // one draw, four digits: which header, what to do, to which
                // field, with what value
                let (w, kind, name, v) = (op % 2, op / 2 % 4, NAMES[op / 8 % 7], op / 56);
                match kind {
                    0 | 1 => {
                        packets[w].inc.set(name, Value::Int(v as i64));
                        models[w].set(name, Value::Int(v as i64));
                    }
                    2 => {
                        packets[w].inc.set(name, Value::None);
                        models[w].set(name, Value::None);
                    }
                    _ => {
                        // the other header becomes a clone of this one
                        packets[1 - w] = packets[w].clone();
                        models[1 - w] = models[w].clone();
                    }
                }
                for (packet, model) in packets.iter().zip(&models) {
                    model.check(packet)?;
                }
                prop_assert_eq!(packets[0] == packets[1], models[0] == models[1]);
            }
            // a header rebuilt by name from the model holds its own record
            // `Arc` and still compares equal
            for (packet, model) in packets.iter().zip(&models) {
                let by_name = model.0.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
                let rebuilt = Packet::new("c", "s", 1, by_name);
                prop_assert!(!Arc::ptr_eq(rebuilt.inc.record(), packet.inc.record()));
                prop_assert_eq!(&rebuilt, packet);
            }
        }
    }
}
