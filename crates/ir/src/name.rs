//! Identifiers of the loop language.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An identifier: a variable, array or loop-counter name.
///
/// A `Name` is an immutable shared string; cloning one bumps a reference
/// count. Equality, ordering and hashing are `str`'s, so a map keyed by
/// `Name` iterates exactly as its `String` twin does and answers lookups
/// by `&str`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The identifier's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if both are the same allocation (not merely the same text).
    pub fn ptr_eq(a: &Name, b: &Name) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Arc::from(s))
    }
}

impl From<&Name> for Name {
    fn from(n: &Name) -> Name {
        n.clone()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == &*other.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};

    /// Identifier-like strings over a small alphabet, so draws collide and
    /// share prefixes (`a` < `ab` < `b`).
    fn ident() -> impl Strategy<Value = String> {
        prop::collection::vec(0usize..5, 1..4).prop_map(|ks| {
            ks.into_iter()
                .map(|k| ["a", "b", "B", "_", "1"][k])
                .collect()
        })
    }

    proptest! {
        /// Sets and maps keyed by `Name` behave as their `String` twins do:
        /// same iteration order, same equality, same answers to `&str`
        /// lookups.
        #[test]
        fn name_keys_agree_with_string_keys(
            keys in prop::collection::vec(ident(), 0..12),
            probes in prop::collection::vec(ident(), 0..6),
        ) {
            let by_string: BTreeSet<String> = keys.iter().cloned().collect();
            let by_name: BTreeSet<Name> = keys.iter().map(|k| Name::from(k.as_str())).collect();
            let printed: Vec<&str> = by_name.iter().map(Name::as_str).collect();
            prop_assert_eq!(printed, by_string.iter().map(String::as_str).collect::<Vec<_>>());

            let string_map: HashMap<String, usize> =
                keys.iter().cloned().enumerate().map(|(i, k)| (k, i)).collect();
            let name_map: HashMap<Name, usize> =
                keys.iter().enumerate().map(|(i, k)| (Name::from(k.as_str()), i)).collect();
            prop_assert_eq!(name_map.len(), string_map.len());
            for p in keys.iter().chain(&probes) {
                prop_assert_eq!(name_map.get(p.as_str()), string_map.get(p.as_str()));
                prop_assert_eq!(by_name.contains(p.as_str()), by_string.contains(p.as_str()));
            }
            for (a, b) in keys.iter().zip(&probes) {
                let (na, nb) = (Name::from(a.as_str()), Name::from(b.as_str()));
                prop_assert_eq!(na == nb, a == b);
                prop_assert_eq!(na.cmp(&nb), a.cmp(b));
                prop_assert_eq!(na == b.as_str(), a == b);
            }
        }
    }

    #[test]
    fn clone_shares_and_formats_as_the_text() {
        let n = Name::from("ub");
        let m = n.clone();
        assert!(Name::ptr_eq(&n, &m));
        assert!(!Name::ptr_eq(&n, &Name::from("ub")));
        assert_eq!(format!("{n} {n:?}"), format!("{} {:?}", "ub", "ub"));
    }
}
