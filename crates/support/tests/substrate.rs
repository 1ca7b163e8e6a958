//! Integration coverage for the support substrate from the outside:
//! pinned RNG streams (the reproducibility anchor for every generated
//! world), JSON round-trips on result-shaped documents, and the Bytes
//! sharing semantics the packet layer depends on.

use lucent_support::{Bytes, Json, Rng64};

/// The exact first outputs of xoshiro256** under SplitMix64 expansion.
/// These values are the contract: if they ever change, every seeded
/// topology, corpus, and experiment in the workspace silently changes
/// with them, and cross-run/cross-machine reproducibility is gone.
#[test]
fn rng_streams_are_pinned_to_exact_values() {
    let mut r = Rng64::seed_from_u64(0);
    assert_eq!(
        [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()],
        [
            11091344671253066420,
            13793997310169335082,
            1900383378846508768,
            7684712102626143532,
        ]
    );
    // The India master seed, as used by `IndiaConfig`.
    let mut r = Rng64::seed_from_u64(0x0011_d1a0_2018);
    assert_eq!([r.next_u64(), r.next_u64()], [2680476713262644467, 6535780012306725873]);
}

#[test]
fn derived_generators_are_pinned_too() {
    let mut r = Rng64::seed_from_u64(7);
    assert_eq!(r.gen::<f64>(), 0.7005764821796896);
    assert_eq!(r.gen::<f64>(), 0.2787512294737843);
    let mut r = Rng64::seed_from_u64(7);
    assert_eq!(
        [r.gen_range(0..100u32), r.gen_range(0..100u32), r.gen_range(0..100u32)],
        [94, 74, 38]
    );
    let mut r = Rng64::seed_from_u64(7);
    assert_eq!([r.gen_bool(0.5), r.gen_bool(0.5), r.gen_bool(0.5)], [false, true, false]);
}

#[test]
fn equal_seeds_agree_and_different_seeds_diverge() {
    let mut a = Rng64::seed_from_u64(42);
    let mut b = Rng64::seed_from_u64(42);
    let mut c = Rng64::seed_from_u64(43);
    let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
    let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
    let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
    assert_eq!(xs, ys);
    assert_ne!(xs, zs);
}

/// Round-trip a document shaped like the experiment result files
/// (`fig4_race.json` and friends): nested objects, arrays of records,
/// negative and fractional numbers, escapes.
#[test]
fn json_round_trips_result_shaped_documents() {
    let text = r#"{
        "experiment": "fig4_race",
        "seed": 300000002018,
        "isps": [
            {"isp": "Airtel", "attempts": 4, "win_rate": 0.7, "delta_ms": -12.5},
            {"isp": "Idea", "attempts": 4, "win_rate": 1.0, "delta_ms": 0.0}
        ],
        "notes": "quotes \" and \\ and \n survive",
        "complete": true,
        "skipped": null
    }"#;
    let doc = Json::parse(text).expect("parse");
    let once = doc.to_string();
    let twice = Json::parse(&once).expect("reparse").to_string();
    assert_eq!(once, twice, "serialization is a fixed point");
    assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("fig4_race"));
    assert_eq!(doc.get("seed").and_then(Json::as_i64), Some(300000002018));
    let isps = doc.get("isps").and_then(Json::as_arr).expect("isps");
    assert_eq!(isps.len(), 2);
    assert_eq!(isps[0].get("delta_ms").and_then(Json::as_f64), Some(-12.5));
    // Pretty and compact forms parse to the same tree.
    let pretty = Json::parse(&doc.to_string_pretty()).expect("pretty reparse");
    assert_eq!(pretty.to_string(), once);
}

#[test]
fn json_serialization_is_byte_stable() {
    // Objects keep insertion order (struct declaration order), so the
    // same tree must serialize to identical bytes every time — the
    // property the Figure 4 byte-identical-results check relies on.
    let doc = Json::Obj(vec![
        ("b".into(), Json::Int(1)),
        ("a".into(), Json::Arr(vec![Json::Float(0.5), Json::Null])),
    ]);
    let first = doc.to_string();
    assert_eq!(first, doc.clone().to_string());
    assert_eq!(first, r#"{"b":1,"a":[0.5,null]}"#);
    assert_eq!(Json::parse(&first).expect("reparse").to_string(), first);
}

#[test]
fn json_rejects_malformed_input() {
    for bad in ["{", "[1,", "\"unterminated", "{\"a\" 1}", "tru", "1e", ""] {
        assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
    }
}

#[test]
fn bytes_clones_share_storage_and_slices_are_views() {
    let b = Bytes::copy_from_slice(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
    let c = b.clone();
    assert_eq!(b.as_slice(), c.as_slice());
    // Slicing yields a view of the same content without copying the
    // underlying storage (pointer identity of the backing slice).
    let head = b.slice(0..3);
    assert_eq!(head.as_slice(), b"GET");
    assert_eq!(head.as_slice().as_ptr(), b.as_slice().as_ptr());
    let tail = b.slice(16..);
    assert_eq!(&tail.as_slice()[..4], b"Host");
    // Empty edge cases.
    let empty = Bytes::new();
    assert!(empty.is_empty());
    assert_eq!(b.slice(5..5).len(), 0);
    assert_eq!(b.slice(..).len(), b.len());
}
