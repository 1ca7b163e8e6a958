//! A small, line-oriented TOML reader — the one every TOML file in the
//! workspace goes through: the `Cargo.toml` manifests and
//! `lint-allow.toml` the lint checks, and the censor-policy programs
//! the middlebox compiles.
//!
//! Supported: `[section]` and `[[array]]` headers; bare, dotted and
//! quoted keys; strings without escapes, integers, finite floats
//! (written with a `.`), booleans, flat lists of those scalars and flat
//! inline tables; `#` comments.
//! A dotted key such as `edition.workspace` stays one key, `"a.b"`
//! style: the document is a flat list of tables, not a tree.
//!
//! Anything else is an [`Error`] carrying the 1-based line, and so are
//! a key repeated within one table and a repeated `[section]` header —
//! a reader that silently merged them would let a second entry
//! overrule the first.

use std::fmt;

/// A parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string (escapes are not supported).
    Str(String),
    /// An integer.
    Int(i64),
    /// A finite float.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A flat list of scalars.
    List(Vec<Value>),
    /// A flat inline table `{ key = value, … }`, in file order.
    Table(Vec<(String, Value)>),
}

impl Value {
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The items, if this is a list of strings.
    pub fn as_str_list(&self) -> Option<Vec<String>> {
        match self {
            Value::List(items) => items.iter().map(|v| v.as_str().map(str::to_string)).collect(),
            _ => None,
        }
    }

    /// Look up `key` in an inline table.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// One `key = value` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The key; dotted keys are kept whole (`edition.workspace`).
    pub key: String,
    /// The value.
    pub value: Value,
    /// 1-based source line.
    pub line: usize,
}

/// One table: the root, a `[section]` or one `[[array]]` element.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Header name (dotted names kept whole); `""` for the root.
    pub name: String,
    /// 1-based line of the header; 0 for the root.
    pub line: usize,
    /// Opened by a `[[name]]` header.
    pub array: bool,
    /// Entries in file order; keys are unique.
    pub entries: Vec<Entry>,
}

impl Table {
    /// The entry for `key`.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A parsed document: tables in file order, the root (keys before any
/// header) first.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    /// All tables; `tables[0]` is the root.
    pub tables: Vec<Table>,
}

impl Doc {
    /// The first table named `name` (the only one, unless an array).
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// The entries of table `name`; empty when it is absent.
    pub fn section(&self, name: &str) -> &[Entry] {
        self.table(name).map(|t| t.entries.as_slice()).unwrap_or(&[])
    }

    /// The value of `key` in table `name`.
    pub fn get(&self, name: &str, key: &str) -> Option<&Value> {
        self.table(name).and_then(|t| t.get(key)).map(|e| &e.value)
    }
}

/// A parse failure at a 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// 1-based source line.
    pub line: usize,
    /// What is wrong with it.
    pub msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for Error {}

fn err<T>(line: usize, msg: String) -> Result<T, Error> {
    Err(Error { line, msg })
}

/// Parse a document. Total: any input either parses or returns an
/// [`Error`]; it never panics.
pub fn parse(text: &str) -> Result<Doc, Error> {
    let root = Table { name: String::new(), line: 0, array: false, entries: Vec::new() };
    let mut tables = vec![root];
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let array = line.starts_with("[[");
            let inner = if array {
                line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]"))
            } else {
                line.strip_prefix('[').and_then(|r| r.strip_suffix(']'))
            };
            let Some(name) = inner.and_then(key).filter(|n| !n.is_empty()) else {
                return err(line_no, format!("malformed section header `{line}`"));
            };
            // A `[name]` may not reopen any table; a `[[name]]` may only
            // add to an array.
            if tables.iter().any(|t| t.name == name && !(array && t.array)) {
                let shown = if array { format!("[[{name}]]") } else { format!("[{name}]") };
                return err(line_no, format!("duplicate section {shown}"));
            }
            tables.push(Table { name, line: line_no, array, entries: Vec::new() });
            continue;
        }
        let Some((k, v)) = split_once_top(line, '=') else {
            return err(line_no, "expected `key = value`".to_string());
        };
        let Some(k) = key(k) else {
            return err(line_no, "expected `key = value`".to_string());
        };
        let value = value(v, line_no, true)?;
        let current = tables.len() - 1;
        let table = &mut tables[current];
        if table.get(&k).is_some() {
            return err(line_no, format!("duplicate key `{k}`"));
        }
        table.entries.push(Entry { key: k, value, line: line_no });
    }
    Ok(Doc { tables })
}

/// Cut a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Split at top level on `sep`, ignoring separators inside strings,
/// lists and inline tables.
fn split_top(s: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            c if c == sep && !in_str && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + c.len_utf8();
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Split at the first top-level `sep`.
fn split_once_top(s: &str, sep: char) -> Option<(&str, &str)> {
    let head = split_top(s, sep).into_iter().next().unwrap_or(s);
    s.get(head.len() + sep.len_utf8()..).map(|tail| (head, tail))
}

/// A bare (`[A-Za-z0-9_-]+`), quoted or dotted key, dotted segments
/// rejoined with `.`.
fn key(s: &str) -> Option<String> {
    let mut segs = Vec::new();
    for seg in split_top(s, '.') {
        let seg = seg.trim();
        let bare = !seg.is_empty()
            && seg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
        if bare {
            segs.push(seg);
        } else {
            let body = seg.strip_prefix('"')?.strip_suffix('"')?;
            if body.contains(['"', '\\']) {
                return None;
            }
            segs.push(body);
        }
    }
    Some(segs.join("."))
}

/// Parse one value; lists and inline tables only at the top (`outer`).
fn value(s: &str, line: usize, outer: bool) -> Result<Value, Error> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"').filter(|b| !b.contains('"')) else {
            return err(line, "unterminated string".to_string());
        };
        if body.contains('\\') {
            return err(line, "strings with escapes are not supported".to_string());
        }
        return Ok(Value::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let malformed = || err(line, format!("malformed value `{s}`"));
    if let Some(rest) = s.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']').filter(|_| outer) else {
            return malformed();
        };
        let mut items = Vec::new();
        if !body.trim().is_empty() {
            for part in split_top(body, ',') {
                items.push(value(part, line, false)?);
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(rest) = s.strip_prefix('{') {
        let Some(body) = rest.strip_suffix('}').filter(|_| outer) else {
            return malformed();
        };
        let mut pairs: Vec<(String, Value)> = Vec::new();
        if !body.trim().is_empty() {
            for part in split_top(body, ',') {
                let Some((k, v)) = split_once_top(part, '=') else { return malformed() };
                let Some(k) = key(k) else { return malformed() };
                if pairs.iter().any(|(seen, _)| *seen == k) {
                    return err(line, format!("duplicate key `{k}`"));
                }
                pairs.push((k, value(v, line, false)?));
            }
        }
        return Ok(Value::Table(pairs));
    }
    if let Ok(n) = s.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    if s.contains('.') {
        if let Ok(x) = s.parse::<f64>() {
            if x.is_finite() {
                return Ok(Value::Float(x));
            }
        }
    }
    malformed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fails(text: &str) -> String {
        parse(text).expect_err("must not parse").to_string()
    }

    #[test]
    fn parses_a_manifest_shape() {
        let doc = parse(
            r#"
[package]
name = "lucent-web" # trailing comment
edition.workspace = true

[dependencies]
lucent-packet = { workspace = true }
lucent-netsim = { path = "../netsim" }

[dependencies.lucent-dns]
workspace = true
"#,
        )
        .expect("parse");
        assert_eq!(doc.get("package", "name").and_then(Value::as_str), Some("lucent-web"));
        assert_eq!(doc.get("package", "edition.workspace"), Some(&Value::Bool(true)));
        let dep = doc.get("dependencies", "lucent-packet").expect("inline table");
        assert_eq!(dep.get("workspace"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("dependencies.lucent-dns", "workspace"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parses_allowlist_shapes() {
        let doc = parse(
            r#"
[panic_sites]
"crates/packet/src/dns.rs" = 12

[rng_construction]
files = ["crates/netsim/src/time.rs", "crates/web/src/corpus.rs"]
"#,
        )
        .expect("parse");
        assert_eq!(
            doc.get("panic_sites", "crates/packet/src/dns.rs").and_then(Value::as_int),
            Some(12)
        );
        let files = doc.get("rng_construction", "files").and_then(Value::as_str_list);
        assert_eq!(files.map(|f| f.len()), Some(2));
    }

    #[test]
    fn parses_policy_shapes() {
        let doc = parse(
            "[[rule]]\nname = \"a#b\" # comment\nslow = { p = 0.3, lo = 1, hi = 2 }\nports = []\n",
        )
        .expect("parse");
        let rule = &doc.tables[1];
        assert_eq!((rule.name.as_str(), rule.line, rule.array), ("rule", 1, true));
        assert_eq!(rule.get("name").map(|e| &e.value), Some(&Value::Str("a#b".into())));
        let slow = &rule.get("slow").expect("slow").value;
        assert_eq!(slow.get("p"), Some(&Value::Float(0.3)));
        assert_eq!(slow.get("hi"), Some(&Value::Int(2)));
        assert_eq!(rule.get("ports").map(|e| e.line), Some(4));
    }

    #[test]
    fn array_of_tables_gets_distinct_sections() {
        let doc = parse("[[test]]\nname = \"a\"\n[[test]]\nname = \"b\"\n").expect("parse");
        let names: Vec<_> = doc.tables.iter().map(|t| (t.name.as_str(), t.line)).collect();
        assert_eq!(names, [("", 0), ("test", 1), ("test", 3)]);
        assert_eq!(doc.tables[2].get("name").map(|e| &e.value), Some(&Value::Str("b".into())));
    }

    #[test]
    fn bad_lines_are_rejected_with_line_numbers() {
        assert_eq!(fails("[a]\nnot a kv\n"), "line 2: expected `key = value`");
        assert_eq!(fails("k = \"open\n"), "line 1: unterminated string");
        assert_eq!(fails("k = \"a\\n\"\n"), "line 1: strings with escapes are not supported");
        assert_eq!(fails("\n[a\n"), "line 2: malformed section header `[a`");
        assert_eq!(fails("k = [[1], [2]]\n"), "line 1: malformed value `[1]`");
        assert_eq!(fails("k = { t = { a = 1 } }\n"), "line 1: malformed value `{ a = 1 }`");
        assert_eq!(fails("k = 1e9\n"), "line 1: malformed value `1e9`");
        assert_eq!(fails("k = [1, 2,]\n"), "line 1: malformed value ``");
        assert_eq!(fails("a b = 1\n"), "line 1: expected `key = value`");
    }

    #[test]
    fn duplicates_are_rejected_at_the_second_occurrence() {
        assert_eq!(fails("[s]\n\"a.rs\" = 1\n\"a.rs\" = 9\n"), "line 3: duplicate key `a.rs`");
        assert_eq!(fails("[s]\nk = 1\n[t]\n[s]\n"), "line 4: duplicate section [s]");
        assert_eq!(fails("[s]\n[[s]]\n"), "line 2: duplicate section [[s]]");
        assert_eq!(fails("k = { a = 1, a = 2 }\n"), "line 1: duplicate key `a`");
        // The same key in two tables, or in two array elements, is fine.
        assert!(parse("[s]\nk = 1\n[t]\nk = 2\n[[r]]\nk = 3\n[[r]]\nk = 4\n").is_ok());
    }
}
