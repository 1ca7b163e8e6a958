//! The policy compiler: TOML policy files → [`Policy`] programs.
//!
//! Policy files are read by the workspace's one TOML reader,
//! [`lucent_support::toml`] — the same one the lint reads manifests and
//! its allowlist with. This module adds only the policy vocabulary on
//! top: the `[policy]`/`[match]`/`[state]`/`[[rule]]` tables, their
//! keys, and the type each key wants.
//!
//! The compiler is **total**: any input, including fuzzer garbage,
//! either compiles or returns a line-numbered [`PolicyError`] — it
//! never panics (enforced by the `policy_compile_total` oracle and the
//! workspace panic-site lint). Error messages are part of the contract:
//! the malformed-fixture corpus under `policies/fixtures/bad/` pins
//! them byte-for-byte.
//!
//! ```toml
//! [policy]
//! name = "airtel-wm"
//! family = "wiretap"
//!
//! [match]
//! ports = [80]
//!
//! [state]
//! flow_timeout_secs = 150
//!
//! [[rule]]
//! trigger = "host-header"
//! matcher = "exact-token"
//! hosts = "blocklist"
//! action = ["inject-notice", "inject-rst"]
//! notice = "airtel"
//! ip_id = 242
//! delay_us = { lo = 300, hi = 900 }
//! slow = { p = 0.3, lo = 150000, hi = 400000 }
//! ```

use std::collections::BTreeSet;
use std::fmt;

use lucent_netsim::SimDuration;
use lucent_support::toml::{self, Doc, Entry, Table, Value};

use crate::matcher::HostMatcher;
use crate::notice::NoticeStyle;
use crate::policy::{
    Action, DelaySpec, Family, FireSpec, HostSet, IpIdSpec, Policy, Rule,
};

/// A compile failure, pointing at the offending line (0 for whole-file
/// problems such as a missing section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError {
    /// 1-based source line, or 0 when no single line is at fault.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for PolicyError {}

fn err<T>(line: usize, msg: String) -> Result<T, PolicyError> {
    Err(PolicyError { line, msg })
}

/// How a value's type reads in error messages.
fn kind(v: &Value) -> &'static str {
    match v {
        Value::Str(_) => "a string",
        Value::Int(_) => "an integer",
        Value::Float(_) => "a float",
        Value::Bool(_) => "a boolean",
        Value::List(_) => "a list",
        Value::Table(_) => "an inline table",
    }
}

/// Read the file and check the policy vocabulary: only `[policy]`,
/// `[match]`, `[state]` and repeated `[[rule]]` tables, with
/// `snake_case` keys, and no key before the first header.
fn read_doc(text: &str) -> Result<Doc, PolicyError> {
    let doc = toml::parse(text).map_err(|e| PolicyError { line: e.line, msg: e.msg })?;
    for t in &doc.tables {
        if t.array && t.name != "rule" {
            return err(t.line, format!("unknown section [[{}]]", t.name));
        }
        if !t.array && !matches!(t.name.as_str(), "" | "policy" | "match" | "state") {
            return err(t.line, format!("unknown section [{}]", t.name));
        }
        for e in &t.entries {
            if e.key.is_empty() || !e.key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return err(e.line, "expected `key = value`".to_string());
            }
            if t.name.is_empty() {
                return err(e.line, format!("`{}` before any section header", e.key));
            }
        }
    }
    Ok(doc)
}

/// Reject keys outside the section's vocabulary.
fn check_keys(sect: &Table, allowed: &[&str], label: &str) -> Result<(), PolicyError> {
    for e in &sect.entries {
        if !allowed.contains(&e.key.as_str()) {
            return err(e.line, format!("unknown key `{}` in {label}", e.key));
        }
    }
    Ok(())
}

fn want_str<'a>(e: &'a Entry) -> Result<&'a str, PolicyError> {
    match &e.value {
        Value::Str(s) => Ok(s),
        other => err(e.line, format!("`{}` wants a string, not {}", e.key, kind(other))),
    }
}

fn table_u64(
    pairs: &[(String, Value)],
    key: &str,
    entry: &Entry,
    shape: &str,
) -> Result<u64, PolicyError> {
    for (k, v) in pairs {
        if k == key {
            if let Value::Int(n) = v {
                if *n >= 0 {
                    return Ok(*n as u64);
                }
            }
            break;
        }
    }
    err(entry.line, format!("`{}` wants `{shape}`", entry.key))
}

fn notice_of(sect: &Table, overt: bool) -> Result<Option<NoticeStyle>, PolicyError> {
    let preset = sect.get("notice");
    let custom: Vec<&Entry> = ["notice_iframe", "notice_server", "notice_text"]
        .iter()
        .filter_map(|k| sect.get(k))
        .collect();
    if let Some(e) = preset {
        if let Some(c) = custom.first() {
            return err(c.line, "`notice` conflicts with custom notice keys".to_string());
        }
        let style = match want_str(e)? {
            "airtel" => NoticeStyle::airtel_like(),
            "idea" => NoticeStyle::idea_like(),
            "jio" => NoticeStyle::jio_like(),
            other => return err(e.line, format!("unknown notice preset `{other}`")),
        };
        return Ok(Some(style));
    }
    if !custom.is_empty() {
        if custom.len() != 3 {
            let e = custom[0];
            return err(
                e.line,
                "custom notices need `notice_iframe`, `notice_server`, and `notice_text`"
                    .to_string(),
            );
        }
        return Ok(Some(NoticeStyle {
            iframe_url: want_str(custom[0])?.to_string(),
            server_header: want_str(custom[1])?.to_string(),
            statutory_text: want_str(custom[2])?.to_string(),
        }));
    }
    if overt {
        return err(sect.line, "rule needs a `notice` style for `inject-notice`".to_string());
    }
    Ok(None)
}

/// Compile one `[[rule]]` section (without `after` resolution, which
/// needs the whole rule list).
fn rule_of_sect(sect: &Table, family: Family) -> Result<(Rule, Option<(String, usize)>), PolicyError> {
    check_keys(
        sect,
        &[
            "name",
            "trigger",
            "matcher",
            "hosts",
            "after",
            "probability",
            "action",
            "notice",
            "notice_iframe",
            "notice_server",
            "notice_text",
            "ip_id",
            "delay_us",
            "slow",
        ],
        "[[rule]]",
    )?;

    let Some(trig) = sect.get("trigger") else {
        return err(sect.line, "rule needs `trigger = \"host-header\"`".to_string());
    };
    match want_str(trig)? {
        "host-header" => {}
        other => return err(trig.line, format!("unknown trigger `{other}`")),
    }

    let Some(m) = sect.get("matcher") else {
        return err(sect.line, "rule needs a `matcher`".to_string());
    };
    let matcher = match want_str(m)? {
        "exact-token" => HostMatcher::ExactToken,
        "strict-pattern" => HostMatcher::StrictPattern,
        "last-host" => HostMatcher::LastHost,
        other => return err(m.line, format!("unknown matcher `{other}`")),
    };

    let hosts = match sect.get("hosts") {
        None => HostSet::Blocklist,
        Some(e) => match &e.value {
            Value::Str(s) if s == "blocklist" => HostSet::Blocklist,
            Value::Str(s) if s == "any" => HostSet::Any,
            Value::List(items) => {
                let mut set = BTreeSet::new();
                for item in items {
                    let Value::Str(host) = item else {
                        return err(
                            e.line,
                            "`hosts` wants \"blocklist\", \"any\", or a list of strings"
                                .to_string(),
                        );
                    };
                    set.insert(host.to_ascii_lowercase());
                }
                HostSet::Listed(set)
            }
            _ => {
                return err(
                    e.line,
                    "`hosts` wants \"blocklist\", \"any\", or a list of strings".to_string(),
                )
            }
        },
    };

    let probability = match sect.get("probability") {
        None => None,
        Some(e) => {
            let p = match e.value {
                Value::Float(x) => x,
                Value::Int(1) => 1.0,
                _ => return err(e.line, "`probability` must be within (0, 1]".to_string()),
            };
            if !(p > 0.0 && p <= 1.0) {
                return err(e.line, "`probability` must be within (0, 1]".to_string());
            }
            Some(p)
        }
    };

    let Some(act) = sect.get("action") else {
        return err(sect.line, "rule needs a non-empty `action`".to_string());
    };
    let Value::List(verbs) = &act.value else {
        return err(act.line, "`action` wants a list of verbs".to_string());
    };
    if verbs.is_empty() {
        return err(act.line, "rule needs a non-empty `action`".to_string());
    }
    let (mut pass, mut inject_notice, mut inject_rst, mut reset_server, mut drop_flow) =
        (false, false, false, false, false);
    for v in verbs {
        let Value::Str(verb) = v else {
            return err(act.line, "`action` wants a list of verbs".to_string());
        };
        match verb.as_str() {
            "pass" => pass = true,
            "inject-notice" => inject_notice = true,
            "inject-rst" => inject_rst = true,
            "reset-server" => reset_server = true,
            "drop" => drop_flow = true,
            other => return err(act.line, format!("unknown verb `{other}` in `action`")),
        }
    }
    if pass && verbs.len() > 1 {
        return err(act.line, "`pass` admits no other verbs".to_string());
    }
    if family == Family::Wiretap {
        if reset_server {
            return err(act.line, "verb `reset-server` requires family \"interceptive\"".to_string());
        }
        if drop_flow {
            return err(act.line, "verb `drop` requires family \"interceptive\"".to_string());
        }
        if !pass && !inject_notice && !inject_rst {
            return err(act.line, "a wiretap rule must inject something".to_string());
        }
    }

    let delay_entry = sect.get("delay_us");
    let slow_entry = sect.get("slow");
    if family == Family::Interceptive {
        if let Some(e) = delay_entry.or(slow_entry) {
            return err(
                e.line,
                format!("`{}` is a wiretap knob; interceptive devices answer inline", e.key),
            );
        }
    }
    let base = match delay_entry {
        None if family == Family::Wiretap && !pass => Some((300, 900)),
        None => None,
        Some(e) => {
            let Value::Table(pairs) = &e.value else {
                return err(e.line, "`delay_us` wants `{ lo = <us>, hi = <us> }`".to_string());
            };
            for (k, _) in pairs {
                if k != "lo" && k != "hi" {
                    return err(e.line, "`delay_us` wants `{ lo = <us>, hi = <us> }`".to_string());
                }
            }
            let lo = table_u64(pairs, "lo", e, "{ lo = <us>, hi = <us> }")?;
            let hi = table_u64(pairs, "hi", e, "{ lo = <us>, hi = <us> }")?;
            if lo > hi {
                return err(e.line, "empty delay range".to_string());
            }
            Some((lo, hi))
        }
    };
    let slow = match slow_entry {
        None => None,
        Some(e) => {
            let Value::Table(pairs) = &e.value else {
                return err(
                    e.line,
                    "`slow` wants `{ p = <0-1>, lo = <us>, hi = <us> }`".to_string(),
                );
            };
            let mut p = None;
            for (k, v) in pairs {
                match (k.as_str(), v) {
                    ("p", Value::Float(x)) => p = Some(*x),
                    ("p", Value::Int(1)) => p = Some(1.0),
                    ("lo" | "hi", _) => {}
                    _ => {
                        return err(
                            e.line,
                            "`slow` wants `{ p = <0-1>, lo = <us>, hi = <us> }`".to_string(),
                        )
                    }
                }
            }
            let Some(p) = p else {
                return err(
                    e.line,
                    "`slow` wants `{ p = <0-1>, lo = <us>, hi = <us> }`".to_string(),
                );
            };
            if !(p > 0.0 && p <= 1.0) {
                return err(e.line, "`slow` probability must be within (0, 1]".to_string());
            }
            let lo = table_u64(pairs, "lo", e, "{ p = <0-1>, lo = <us>, hi = <us> }")?;
            let hi = table_u64(pairs, "hi", e, "{ p = <0-1>, lo = <us>, hi = <us> }")?;
            if lo > hi {
                return err(e.line, "empty delay range".to_string());
            }
            Some((p, (lo, hi)))
        }
    };

    let ip_id = match sect.get("ip_id") {
        None => match family {
            Family::Wiretap => IpIdSpec::SeqHash,
            Family::Interceptive => IpIdSpec::DeviceMark,
        },
        Some(e) => match &e.value {
            Value::Int(n) if (0..=0xffff).contains(n) => IpIdSpec::Fixed(*n as u16),
            Value::Str(s) if s == "hashed" => IpIdSpec::SeqHash,
            Value::Str(s) if s == "device" => IpIdSpec::DeviceMark,
            _ => {
                return err(
                    e.line,
                    "`ip_id` wants an integer 0-65535, \"hashed\", or \"device\"".to_string(),
                )
            }
        },
    };

    let action = if pass {
        for e in ["notice", "notice_iframe", "notice_server", "notice_text", "ip_id", "delay_us", "slow"]
            .iter()
            .filter_map(|k| sect.get(k))
        {
            return err(e.line, format!("`{}` is meaningless on a pass rule", e.key));
        }
        Action::Pass
    } else {
        let notice = notice_of(sect, inject_notice)?;
        if notice.is_some() && !inject_notice {
            return err(
                sect.line,
                "a notice style is set but `action` lacks `inject-notice`".to_string(),
            );
        }
        Action::Fire(FireSpec {
            notice,
            rst: inject_rst,
            reset_server,
            drop_flow,
            ip_id,
            delay: DelaySpec { base, slow },
        })
    };

    let name = match sect.get("name") {
        None => None,
        Some(e) => Some(want_str(e)?.to_string()),
    };
    let after_ref = match sect.get("after") {
        None => None,
        Some(e) => Some((want_str(e)?.to_string(), e.line)),
    };

    Ok((Rule { name, matcher, hosts, after: None, probability, action }, after_ref))
}

/// Compile a policy file. Total: returns a [`PolicyError`] for every
/// malformed input, and identical output for identical input.
pub fn compile(text: &str) -> Result<Policy, PolicyError> {
    compile_with_lines(text).map(|(policy, _)| policy)
}

/// Compile a policy file and also return, per rule, the 1-based source
/// line of its `[[rule]]` header. The compiled [`Policy`] deliberately
/// carries no source positions (the interpreter compares programs for
/// equality); the line table is the side channel the `policycheck`
/// analyzer in devtools uses to pin L11/L12 findings back to the file.
pub fn compile_with_lines(text: &str) -> Result<(Policy, Vec<usize>), PolicyError> {
    let doc = read_doc(text)?;

    let Some(policy_sect) = doc.table("policy") else {
        return err(0, "policy needs a [policy] section".to_string());
    };
    check_keys(policy_sect, &["name", "family"], "[policy]")?;
    let Some(name_e) = policy_sect.get("name") else {
        return err(policy_sect.line, "policy needs a `name`".to_string());
    };
    let name = want_str(name_e)?.to_string();
    let Some(fam_e) = policy_sect.get("family") else {
        return err(policy_sect.line, "policy needs a `family`".to_string());
    };
    let family = match want_str(fam_e)? {
        "wiretap" => Family::Wiretap,
        "interceptive" => Family::Interceptive,
        other => return err(fam_e.line, format!("unknown family `{other}`")),
    };

    let mut ports = {
        let mut p = BTreeSet::new();
        p.insert(80u16);
        Some(p)
    };
    if let Some(match_sect) = doc.table("match") {
        check_keys(match_sect, &["ports"], "[match]")?;
        if let Some(e) = match_sect.get("ports") {
            ports = match &e.value {
                Value::Str(s) if s == "any" => None,
                Value::List(items) if !items.is_empty() => {
                    let mut set = BTreeSet::new();
                    for item in items {
                        match item {
                            Value::Int(n) if (1..=0xffff).contains(n) => {
                                set.insert(*n as u16);
                            }
                            Value::Int(n) => {
                                return err(e.line, format!("port {n} is outside 1-65535"))
                            }
                            _ => {
                                return err(
                                    e.line,
                                    "`ports` wants a list of integers or \"any\"".to_string(),
                                )
                            }
                        }
                    }
                    Some(set)
                }
                _ => {
                    return err(e.line, "`ports` wants a list of integers or \"any\"".to_string())
                }
            };
        }
    }

    let mut flow_timeout = SimDuration::from_secs(150);
    if let Some(state_sect) = doc.table("state") {
        check_keys(state_sect, &["flow_timeout_secs"], "[state]")?;
        if let Some(e) = state_sect.get("flow_timeout_secs") {
            match e.value {
                Value::Int(n) if (1..=86_400).contains(&n) => {
                    flow_timeout = SimDuration::from_secs(n as u64);
                }
                _ => {
                    return err(
                        e.line,
                        "`flow_timeout_secs` wants an integer within 1-86400".to_string(),
                    )
                }
            }
        }
    }

    let rule_sects: Vec<&Table> = doc.tables.iter().filter(|t| t.array).collect();
    if rule_sects.is_empty() {
        return err(0, "a policy needs at least one [[rule]]".to_string());
    }
    if rule_sects.len() > 64 {
        return err(0, "a policy is limited to 64 rules".to_string());
    }

    let mut rules = Vec::new();
    let mut afters: Vec<Option<(String, usize)>> = Vec::new();
    for sect in &rule_sects {
        let (rule, after_ref) = rule_of_sect(sect, family)?;
        if let Some(rule_name) = &rule.name {
            if rules.iter().any(|r: &Rule| r.name.as_deref() == Some(rule_name)) {
                // Pin the error to the `name =` entry itself, not the
                // `[[rule]]` header — the name is the offender.
                let line = sect.get("name").map(|e| e.line).unwrap_or(sect.line);
                return err(line, format!("duplicate rule name `{rule_name}`"));
            }
        }
        rules.push(rule);
        afters.push(after_ref);
    }

    // Resolve `after` references (forward references allowed) and
    // reject cycles — a cyclic chain can never arm.
    for (i, after_ref) in afters.iter().enumerate() {
        let Some((target, line)) = after_ref else { continue };
        let Some(j) = rules.iter().position(|r| r.name.as_deref() == Some(target)) else {
            return err(*line, format!("`after` references unknown rule `{target}`"));
        };
        rules[i].after = Some(j);
    }
    for (i, _) in rules.iter().enumerate() {
        let mut cursor = i;
        let mut hops = 0;
        while let Some(next) = rules[cursor].after {
            cursor = next;
            hops += 1;
            if cursor == i || hops > rules.len() {
                let line = rule_sects[i].line;
                return err(line, "cyclic `after` references".to_string());
            }
        }
    }

    // Reachability: a later rule with the same matcher can never run
    // once an unconditional catch-all precedes it.
    for (i, rule) in rules.iter().enumerate() {
        for earlier in &rules[..i] {
            if earlier.matcher == rule.matcher
                && earlier.hosts == HostSet::Any
                && earlier.probability.is_none()
                && earlier.after.is_none()
            {
                let line = rule_sects[i].line;
                return err(
                    line,
                    "rule is unreachable: an earlier rule already matches every host".to_string(),
                );
            }
        }
    }

    let mut rule_lines = Vec::new();
    for sect in &rule_sects {
        rule_lines.push(sect.line);
    }
    Ok((Policy { name, family, ports, flow_timeout, rules }, rule_lines))
}

/// Names of the four committed ISP policy files.
pub fn builtin_names() -> [&'static str; 4] {
    ["airtel-wm", "jio-wm", "idea-im", "vodafone-im"]
}

/// Compile one of the committed ISP policy files by name.
pub fn builtin(name: &str) -> Result<Policy, PolicyError> {
    let text = match name {
        "airtel-wm" => include_str!("../policies/airtel-wm.toml"),
        "jio-wm" => include_str!("../policies/jio-wm.toml"),
        "idea-im" => include_str!("../policies/idea-im.toml"),
        "vodafone-im" => include_str!("../policies/vodafone-im.toml"),
        other => return err(0, format!("unknown builtin policy `{other}`")),
    };
    compile(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Instance;

    fn msg(text: &str) -> String {
        match compile(text) {
            Err(e) => e.to_string(),
            Ok(p) => panic!("compiled unexpectedly: {p:?}"),
        }
    }

    #[test]
    fn builtins_compile() {
        for name in builtin_names() {
            let policy = builtin(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(policy.name, name);
            assert!(!policy.rules.is_empty());
        }
    }

    #[test]
    fn airtel_builtin_matches_the_profile_shape() {
        let p = builtin("airtel-wm").unwrap();
        assert_eq!(p.family, Family::Wiretap);
        assert_eq!(p.flow_timeout, SimDuration::from_secs(150));
        let Action::Fire(act) = &p.rules[0].action else { panic!("airtel rule passes") };
        assert_eq!(act.ip_id, IpIdSpec::Fixed(242));
        assert_eq!(act.delay.base, Some((300, 900)));
        assert_eq!(act.delay.slow, Some((0.3, (150_000, 400_000))));
        assert!(act.rst && act.notice.is_some());
        assert!(!act.reset_server && !act.drop_flow);
    }

    #[test]
    fn vodafone_builtin_is_covert() {
        let p = builtin("vodafone-im").unwrap();
        assert_eq!(p.family, Family::Interceptive);
        let Action::Fire(act) = &p.rules[0].action else { panic!("vodafone rule passes") };
        assert!(act.notice.is_none() && act.rst && act.reset_server && act.drop_flow);
        assert_eq!(act.ip_id, IpIdSpec::DeviceMark);
    }

    #[test]
    fn compiling_twice_is_deterministic() {
        for name in builtin_names() {
            assert_eq!(builtin(name).unwrap(), builtin(name).unwrap());
        }
    }

    #[test]
    fn fixture_corpus_errors_are_pinned() {
        // Each malformed fixture under policies/fixtures/bad/ carries
        // its expected error on the first line: `# expect: <message>`.
        let corpus: [(&str, &str); 9] = [
            ("unknown-key", include_str!("../policies/fixtures/bad/unknown-key.toml")),
            ("duplicate-rule", include_str!("../policies/fixtures/bad/duplicate-rule.toml")),
            ("bad-rule-order", include_str!("../policies/fixtures/bad/bad-rule-order.toml")),
            ("cyclic-after", include_str!("../policies/fixtures/bad/cyclic-after.toml")),
            ("pass-plus", include_str!("../policies/fixtures/bad/pass-plus.toml")),
            ("wiretap-drop", include_str!("../policies/fixtures/bad/wiretap-drop.toml")),
            ("no-rule", include_str!("../policies/fixtures/bad/no-rule.toml")),
            ("bad-probability", include_str!("../policies/fixtures/bad/bad-probability.toml")),
            ("syntax", include_str!("../policies/fixtures/bad/syntax.toml")),
        ];
        for (name, text) in corpus {
            let first = text.lines().next().unwrap_or("");
            let expect = first
                .strip_prefix("# expect: ")
                .unwrap_or_else(|| panic!("{name}: fixture lacks `# expect:` header"));
            assert_eq!(msg(text), expect, "fixture {name}");
        }
    }

    #[test]
    fn wrong_airtel_fixture_compiles_but_differs() {
        // The CI negative control: one flipped action must compile fine
        // (the divergence is caught behaviorally, not syntactically).
        let wrong = compile(include_str!("../policies/fixtures/wrong-airtel.toml")).unwrap();
        let right = compile(include_str!("../policies/fixtures/right-airtel.toml")).unwrap();
        let real = builtin("airtel-wm").unwrap();
        assert_ne!(wrong.rules, real.rules, "the flipped action must change the program");
        assert_eq!(right.rules, real.rules, "the green twin compiles to the committed program");
    }

    #[test]
    fn unknown_builtin_is_an_error() {
        assert_eq!(builtin("tata-wm").unwrap_err().to_string(), "unknown builtin policy `tata-wm`");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p = compile(
            "# header\n[policy] # trailing\nname = \"x\" # comment\nfamily = \"wiretap\"\n\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"exact-token\"\naction = [\"inject-rst\"]\n",
        )
        .unwrap();
        assert_eq!(p.name, "x");
    }

    #[test]
    fn strings_keep_hash_signs() {
        let p = compile(
            "[policy]\nname = \"a#b\"\nfamily = \"wiretap\"\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"exact-token\"\naction = [\"inject-rst\"]\n",
        )
        .unwrap();
        assert_eq!(p.name, "a#b");
    }

    #[test]
    fn listed_hosts_are_lowercased() {
        let p = compile(
            "[policy]\nname = \"x\"\nfamily = \"wiretap\"\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"exact-token\"\nhosts = [\"MiXeD.Example\"]\naction = [\"inject-rst\"]\n",
        )
        .unwrap();
        let HostSet::Listed(set) = &p.rules[0].hosts else { panic!("expected a listed set") };
        assert!(set.contains("mixed.example"));
    }

    #[test]
    fn error_lines_point_at_the_offender() {
        let e = compile("[policy]\nname = \"x\"\nfamily = \"weird\"\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.to_string(), "line 3: unknown family `weird`");
    }

    #[test]
    fn interceptive_rejects_wiretap_timing_knobs() {
        let text = "[policy]\nname = \"x\"\nfamily = \"interceptive\"\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"last-host\"\naction = [\"inject-rst\", \"drop\"]\ndelay_us = { lo = 1, hi = 2 }\n";
        assert_eq!(
            msg(text),
            "line 8: `delay_us` is a wiretap knob; interceptive devices answer inline"
        );
    }

    #[test]
    fn after_chain_compiles_and_resolves() {
        let text = "[policy]\nname = \"x\"\nfamily = \"wiretap\"\n[[rule]]\nname = \"first\"\ntrigger = \"host-header\"\nmatcher = \"exact-token\"\naction = [\"inject-rst\"]\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"exact-token\"\nhosts = \"any\"\nafter = \"first\"\naction = [\"inject-rst\"]\n";
        let p = compile(text).unwrap();
        assert_eq!(p.rules[1].after, Some(0));
    }

    #[test]
    fn rule_lines_point_at_the_rule_headers() {
        let text = "[policy]\nname = \"x\"\nfamily = \"wiretap\"\n\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"exact-token\"\naction = [\"inject-rst\"]\n\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"last-host\"\naction = [\"inject-rst\"]\n";
        let (p, lines) = compile_with_lines(text).unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(lines, vec![5, 10]);
    }

    #[test]
    fn duplicate_rule_names_are_pinned_to_the_name_entry() {
        let e = compile(include_str!("../policies/fixtures/bad/duplicate-rule.toml")).unwrap_err();
        assert_eq!(e.line, 13, "pinned to the second `name =` line, not the [[rule]] header");
    }

    #[test]
    fn instances_pair_with_compiled_policies() {
        let p = builtin("airtel-wm").unwrap();
        let inst = Instance::of(["Blocked.Example".to_string()], None, 3);
        assert!(inst.blocklist.contains("blocked.example"));
        assert_eq!(p.rules.len(), 1);
    }
}
