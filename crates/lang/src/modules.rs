//! The built-in module library.
//!
//! ClickINC "encapsulates common INC functionality into modules such as various
//! sketches, hash functions, providing users with a library" (paper §1).  The
//! frontend resolves calls in a user program against this library: object
//! constructors (`Array`, `Table`, `Hash`, `Seq`, `Sketch`, `Crypto`), INC
//! primitives (`get`, `write`, `count`, `clear`, `del`, `drop`, `forward`,
//! `back`, `mirror`, `multicast`, `copyto`), the Python built-ins of Table 7,
//! and the provider templates (`MLAgg`, `KVS`, `DQAcc`).

use std::collections::BTreeMap;
use std::fmt;

/// Object constructors of the ClickINC language (Fig. 5 "Object").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectCtor {
    /// `Array(row=..., size=..., w=...)`
    Array,
    /// `Table(type=..., keys=..., vals=...)`
    Table,
    /// `Hash(type=..., key=...)`
    Hash,
    /// `Seq(size=..., w=...)`
    Seq,
    /// `Sketch(type="count-min" | "bloom-filter", keys=...)`
    Sketch,
    /// `Crypto(type="aes" | "ecs")`
    Crypto,
}

impl ObjectCtor {
    /// Resolve a constructor name.
    pub fn from_name(name: &str) -> Option<ObjectCtor> {
        Some(match name {
            "Array" => ObjectCtor::Array,
            "Table" => ObjectCtor::Table,
            "Hash" => ObjectCtor::Hash,
            "Seq" => ObjectCtor::Seq,
            "Sketch" => ObjectCtor::Sketch,
            "Crypto" => ObjectCtor::Crypto,
            _ => return None,
        })
    }
}

impl fmt::Display for ObjectCtor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectCtor::Array => "Array",
            ObjectCtor::Table => "Table",
            ObjectCtor::Hash => "Hash",
            ObjectCtor::Seq => "Seq",
            ObjectCtor::Sketch => "Sketch",
            ObjectCtor::Crypto => "Crypto",
        };
        write!(f, "{s}")
    }
}

/// INC primitives operating on objects and packets (Fig. 5 "Primitive").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveKind {
    /// `get(obj, key)` / `read(obj, key)`
    Get,
    /// `write(obj, key, value)`
    Write,
    /// `count(obj, key, delta)`
    Count,
    /// `clear(obj)`
    Clear,
    /// `del(obj, key)`
    Del,
    /// `drop()`
    Drop,
    /// `fwd()` / `forward(hdr)`
    Forward,
    /// `back(hdr={...})`
    Back,
    /// `mirror(hdr={...})`
    Mirror,
    /// `multicast(group)`
    Multicast,
    /// `copyto(target, value)` / `copy(target, value)`
    CopyTo,
}

impl PrimitiveKind {
    /// Resolve a primitive by the name used in source programs.
    pub fn from_name(name: &str) -> Option<PrimitiveKind> {
        Some(match name {
            "get" | "read" => PrimitiveKind::Get,
            "write" => PrimitiveKind::Write,
            "count" => PrimitiveKind::Count,
            "clear" => PrimitiveKind::Clear,
            "del" | "delete" => PrimitiveKind::Del,
            "drop" => PrimitiveKind::Drop,
            "fwd" | "forward" => PrimitiveKind::Forward,
            "back" => PrimitiveKind::Back,
            "mirror" => PrimitiveKind::Mirror,
            "multicast" => PrimitiveKind::Multicast,
            "copyto" | "copy" => PrimitiveKind::CopyTo,
            _ => return None,
        })
    }
}

/// Python built-ins and ClickINC extensions supported in expressions
/// (paper Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinFn {
    /// `min(...)`
    Min,
    /// `max(...)`
    Max,
    /// `sum(...)`
    Sum,
    /// `abs(x)`
    Abs,
    /// `pow(x, y)`
    Pow,
    /// `round(x)`
    Round,
    /// `range(n)` — only valid as a loop iterator.
    Range,
    /// `len(x)`
    Len,
    /// `list()` constructor.
    List,
    /// `dict()` constructor.
    Dict,
    /// `ceil(x)` (ClickINC extension).
    Ceil,
    /// `floor(x)` (ClickINC extension).
    Floor,
    /// `sqrt(x)` (ClickINC extension).
    Sqrt,
    /// `randint(bound)` (ClickINC extension).
    RandInt,
    /// `slice(x, hi, lo)` (ClickINC extension).
    Slice,
}

impl BuiltinFn {
    /// Resolve a built-in function by name.
    pub fn from_name(name: &str) -> Option<BuiltinFn> {
        Some(match name {
            "min" => BuiltinFn::Min,
            "max" => BuiltinFn::Max,
            "sum" => BuiltinFn::Sum,
            "abs" => BuiltinFn::Abs,
            "pow" => BuiltinFn::Pow,
            "round" => BuiltinFn::Round,
            "range" => BuiltinFn::Range,
            "len" => BuiltinFn::Len,
            "list" => BuiltinFn::List,
            "dict" => BuiltinFn::Dict,
            "ceil" => BuiltinFn::Ceil,
            "floor" => BuiltinFn::Floor,
            "sqrt" => BuiltinFn::Sqrt,
            "randint" => BuiltinFn::RandInt,
            "slice" => BuiltinFn::Slice,
            _ => return None,
        })
    }
}

/// What a name resolves to in the module library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// An object constructor.
    Object(ObjectCtor),
    /// An INC primitive.
    Primitive(PrimitiveKind),
    /// A built-in function.
    Builtin(BuiltinFn),
    /// A provider template (resolved further by the template library).
    Template,
}

/// The module library: resolves names appearing in user programs to object
/// constructors, primitives, built-ins and templates.  Providers can register
/// additional template names (user-defined modules).
#[derive(Debug, Clone)]
pub struct ModuleLibrary {
    templates: BTreeMap<String, String>,
}

impl Default for ModuleLibrary {
    fn default() -> Self {
        let mut lib = ModuleLibrary { templates: BTreeMap::new() };
        // The provider templates shipped with ClickINC (paper §4.1 "Template").
        lib.register_template("MLAgg", "mlagg");
        lib.register_template("KVS", "kvs");
        lib.register_template("DQAcc", "dqacc");
        lib
    }
}

impl ModuleLibrary {
    /// Create the default library (built-ins + the provider templates).
    pub fn new() -> ModuleLibrary {
        ModuleLibrary::default()
    }

    /// Register a template name mapping to a template id.
    pub fn register_template(&mut self, name: impl Into<String>, template_id: impl Into<String>) {
        self.templates.insert(name.into(), template_id.into());
    }

    /// The template id registered under `name`, if any.
    pub fn template_id(&self, name: &str) -> Option<&str> {
        self.templates.get(name).map(String::as_str)
    }

    /// Resolve a bare name used in call position.
    pub fn resolve(&self, name: &str) -> Option<Resolution> {
        if let Some(ctor) = ObjectCtor::from_name(name) {
            return Some(Resolution::Object(ctor));
        }
        if let Some(prim) = PrimitiveKind::from_name(name) {
            return Some(Resolution::Primitive(prim));
        }
        if let Some(b) = BuiltinFn::from_name(name) {
            return Some(Resolution::Builtin(b));
        }
        if self.templates.contains_key(name) {
            return Some(Resolution::Template);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_constructors_resolve() {
        assert_eq!(ObjectCtor::from_name("Array"), Some(ObjectCtor::Array));
        assert_eq!(ObjectCtor::from_name("Sketch"), Some(ObjectCtor::Sketch));
        assert_eq!(ObjectCtor::from_name("array"), None, "constructors are capitalized");
        assert_eq!(ObjectCtor::Table.to_string(), "Table");
    }

    #[test]
    fn primitives_resolve_with_aliases() {
        assert_eq!(PrimitiveKind::from_name("get"), Some(PrimitiveKind::Get));
        assert_eq!(PrimitiveKind::from_name("read"), Some(PrimitiveKind::Get));
        assert_eq!(PrimitiveKind::from_name("fwd"), Some(PrimitiveKind::Forward));
        assert_eq!(PrimitiveKind::from_name("forward"), Some(PrimitiveKind::Forward));
        assert_eq!(PrimitiveKind::from_name("del"), Some(PrimitiveKind::Del));
        assert_eq!(PrimitiveKind::from_name("copyto"), Some(PrimitiveKind::CopyTo));
        assert_eq!(PrimitiveKind::from_name("nonsense"), None);
    }

    #[test]
    fn builtins_resolve() {
        assert_eq!(BuiltinFn::from_name("min"), Some(BuiltinFn::Min));
        assert_eq!(BuiltinFn::from_name("range"), Some(BuiltinFn::Range));
        assert_eq!(BuiltinFn::from_name("sqrt"), Some(BuiltinFn::Sqrt));
        assert_eq!(BuiltinFn::from_name("map"), None);
    }

    #[test]
    fn library_resolution_precedence() {
        let lib = ModuleLibrary::new();
        assert_eq!(lib.resolve("Array"), Some(Resolution::Object(ObjectCtor::Array)));
        assert_eq!(lib.resolve("count"), Some(Resolution::Primitive(PrimitiveKind::Count)));
        assert_eq!(lib.resolve("max"), Some(Resolution::Builtin(BuiltinFn::Max)));
        assert_eq!(lib.resolve("MLAgg"), Some(Resolution::Template));
        assert_eq!(lib.resolve("KVS"), Some(Resolution::Template));
        assert_eq!(lib.resolve("DQAcc"), Some(Resolution::Template));
        assert_eq!(lib.resolve("unknown_thing"), None);
    }

    #[test]
    fn user_defined_templates_can_be_registered() {
        let mut lib = ModuleLibrary::new();
        assert_eq!(lib.resolve("OPSketch"), None);
        lib.register_template("OPSketch", "opsketch");
        assert_eq!(lib.resolve("OPSketch"), Some(Resolution::Template));
        assert_eq!(lib.template_id("OPSketch"), Some("opsketch"));
    }
}
