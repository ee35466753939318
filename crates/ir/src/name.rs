//! [`Name`], the one type of every name in the IR.
//!
//! Temporaries, header and metadata fields, objects, owners and programs are
//! all named by a `Name`: an immutable string behind a reference count.  A
//! program copy ([`IrProgram::clone`](crate::IrProgram),
//! [`IrProgram::slice`](crate::IrProgram::slice)) and the tenant isolation
//! share names instead of copying them, so cloning one only bumps the count.
//!
//! A `Name` compares, orders, hashes and prints exactly as the `str` it
//! holds, so every map keyed by names, every dump, `{:?}` fingerprint and
//! emitted line reads as it would with `String`.  There is no interner:
//! names are minted where they are made (the frontend, the builder,
//! isolation's prefixing) and freed with the last program holding them.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, shared IR name.  See the [module docs](self).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for Name {
    fn default() -> Name {
        Name::from("")
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Sound for `HashMap`/`BTreeMap` lookups by `&str`: the derived `Hash`,
/// `Eq` and `Ord` are those of the `str` inside.
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(name: &str) -> Name {
        Name(Arc::from(name))
    }
}

impl From<String> for Name {
    fn from(name: String) -> Name {
        Name(Arc::from(name))
    }
}

impl From<&String> for Name {
    fn from(name: &String) -> Name {
        Name::from(name.as_str())
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        *self == *other.0
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        **self == *other.0
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        **self == *other.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_shares_the_string() {
        let a = Name::from("kvs_0_cache");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a, b);
    }
}
