//! A `Name` is the `str` it holds: it orders, hashes, compares and prints
//! exactly as that string does, and maps keyed by names answer lookups by
//! `&str`.  So switching the IR's names from `String` to `Name` changes no
//! map order, no dump and no fingerprint.

use clickinc_ir::Name;
use proptest::prelude::*;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;

/// A string from `codes`: mostly a small alphabet, so that pairs share
/// prefixes and often collide, with the characters `Debug` escapes, a
/// multi-byte one and, now and then, any scalar value.
fn text(codes: &[u32]) -> String {
    const ALPHABET: [char; 8] = ['a', 'b', '_', '"', '\\', '\n', 'é', '\u{1F980}'];
    codes
        .iter()
        .filter_map(|&c| match c % 16 {
            0..=11 => Some(ALPHABET[(c % 8) as usize]),
            _ => char::from_u32((c >> 4) % 0x11_0000),
        })
        .collect()
}

fn codes() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_name_compares_orders_hashes_and_prints_as_its_str(a in codes(), b in codes()) {
        let (sa, sb) = (text(&a), text(&b));
        let (na, nb) = (Name::from(sa.as_str()), Name::from(sb.clone()));
        prop_assert_eq!(na.cmp(&nb), sa.cmp(&sb));
        prop_assert_eq!(na.partial_cmp(&nb), sa.partial_cmp(&sb));
        prop_assert_eq!(na == nb, sa == sb);
        prop_assert!(na == *sa.as_str() && na == sa.as_str() && na == sa);
        prop_assert!(*sa.as_str() == na && sa.as_str() == na && sa == na);
        prop_assert_eq!(nb == sa.as_str(), sb == sa);

        let state = RandomState::new();
        prop_assert_eq!(state.hash_one(&na), state.hash_one(sa.as_str()));
        prop_assert_eq!(state.hash_one(na.clone()), state.hash_one(&sa));

        prop_assert_eq!(na.to_string(), sa.clone());
        prop_assert_eq!(format!("{na:?}"), format!("{sa:?}"));
        prop_assert_eq!(format!("[{na:>9}|{na:<7}]"), format!("[{sa:>9}|{sa:<7}]"));
        prop_assert_eq!(Name::from(&sa), na.clone());
        prop_assert_eq!(&*na, sa.as_str());
    }

    #[test]
    fn maps_keyed_by_names_answer_str_lookups_in_str_order(
        keys in proptest::collection::vec(codes(), 0..12),
        probes in proptest::collection::vec(codes(), 0..6),
    ) {
        let keys: Vec<String> = keys.iter().map(|k| text(k)).collect();
        let hashed: HashMap<Name, usize> =
            keys.iter().enumerate().map(|(i, k)| (Name::from(k), i)).collect();
        let ordered: BTreeMap<Name, usize> =
            keys.iter().enumerate().map(|(i, k)| (Name::from(k), i)).collect();
        let strings: BTreeMap<String, usize> =
            keys.iter().enumerate().map(|(i, k)| (k.clone(), i)).collect();

        prop_assert!(ordered.keys().map(Name::as_str).eq(strings.keys().map(String::as_str)));
        let probes: Vec<String> = probes.iter().map(|p| text(p)).collect();
        for probe in keys.iter().chain(&probes) {
            let want = strings.get(probe.as_str());
            prop_assert_eq!(hashed.get(probe.as_str()), want);
            prop_assert_eq!(ordered.get(probe.as_str()), want);
        }
    }
}
