//! Cross-crate property tests: determinism of the whole world, matcher /
//! server parse agreements, wire fidelity of live traffic, and the
//! bounds of the seeded RNG's draws.
//!
//! The drawn-input properties run on the `lucent-check` harness with its
//! shared `packets` generators, so a failure reports a shrunk,
//! replayable choice tape; the two whole-world tests are deterministic
//! fixtures and need no harness.

use lucent_check::{check, packets, Config, Source};

use lucent_core::lab::{Lab, FETCH_TIMEOUT_MS};
use lucent_middlebox::HostMatcher;
use lucent_packet::http::{HttpRequest, RequestBuilder, RequestParseMode};
use lucent_packet::Packet;
use lucent_support::Rng64;
use lucent_topology::{India, IndiaConfig, IspId};

#[test]
fn world_build_and_first_fetch_are_deterministic() {
    let run = || {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        lab.india.net.trace().enable_all();
        let site = lab.india.corpus.pbw[0];
        let domain = lab.india.corpus.site(site).domain.clone();
        let Some(&ip) = lab.india.corpus.site(site).replicas.first() else {
            return (String::new(), 0);
        };
        let client = lab.client_of(IspId::Airtel);
        let _ = lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS);
        (lab.india.net.trace().transcript(), lab.india.net.events_processed())
    };
    let (t1, e1) = run();
    let (t2, e2) = run();
    assert_eq!(e1, e2, "event counts diverge");
    assert_eq!(t1, t2, "packet traces diverge");
}

/// Whatever a middlebox matcher extracts from a *canonical* browser
/// request, the RFC server parse agrees with — the arms race only
/// exists for non-canonical requests.
#[test]
fn matchers_and_server_agree_on_canonical_requests() {
    check(&Config::cases(64), |s: &mut Source| {
        let host = packets::host_name(s);
        let path = packets::url_path(s);
        let bytes = RequestBuilder::browser(&host, &path).build();
        let (req, _) = HttpRequest::parse(&bytes, RequestParseMode::Rfc).unwrap();
        let server_view = req.host().map(|h| h.to_ascii_lowercase());
        for matcher in [HostMatcher::ExactToken, HostMatcher::StrictPattern, HostMatcher::LastHost]
        {
            assert_eq!(matcher.extract(&bytes), server_view.clone(), "{matcher:?}");
        }
    });
}

/// Fudged whitespace variants are always served identically by the
/// RFC parser regardless of what the matchers think.
#[test]
fn rfc_server_parse_is_whitespace_invariant() {
    check(&Config::cases(64), |s: &mut Source| {
        let host = packets::host_name(s);
        let lead = *s.pick(&[" ", "  ", "\t", " \t"]);
        let trail = *s.pick(&["", " ", "\t", "  "]);
        let canonical = RequestBuilder::get("/").header("Host", &host).build();
        let fudged =
            RequestBuilder::get("/").raw_line(&format!("Host:{lead}{host}{trail}")).build();
        let (a, _) = HttpRequest::parse(&canonical, RequestParseMode::Rfc).unwrap();
        let (b, _) = HttpRequest::parse(&fudged, RequestParseMode::Rfc).unwrap();
        assert_eq!(a.host(), b.host());
    });
}

/// The seeded RNG's bounded draws stay inside their bounds for any
/// seed.
#[test]
fn gen_range_and_index_respect_bounds() {
    check(&Config::cases(200), |s: &mut Source| {
        let mut rng = Rng64::seed_from_u64(s.any_u64());
        let v = rng.gen_range(10..20u32);
        assert!((10..20).contains(&v));
        let w = rng.gen_range(5..=5u64);
        assert_eq!(w, 5);
        let i = rng.index(7);
        assert!(i < 7);
        let p = rng.gen::<f64>();
        assert!((0.0..1.0).contains(&p));
    });
}

#[test]
fn live_traffic_survives_wire_roundtrip() {
    // Capture a real censored exchange and serialize every packet to
    // octets and back: the structured fast path hides nothing.
    let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
    lab.india.net.trace().enable_all();
    let site = lab.india.truth.http_master[&IspId::Idea]
        .iter()
        .copied()
        .find(|&s| lab.india.corpus.site(s).is_alive())
        .unwrap();
    let domain = lab.india.corpus.site(site).domain.clone();
    let ip = lab.india.corpus.site(site).replicas[0];
    let client = lab.client_of(IspId::Idea);
    let _ = lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS);
    let entries = lab.india.net.trace().entries();
    assert!(entries.len() > 20, "expected a full exchange, got {}", entries.len());
    for e in entries {
        let wire = e.packet.emit();
        let parsed = Packet::parse(&wire).expect("roundtrip");
        assert_eq!(parsed, e.packet);
    }
}
