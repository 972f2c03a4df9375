//! The non-building JSON walk accepts exactly what `parse_json` accepts.
//!
//! `Store::lookup` quarantines an entry the walk rejects and `Job::fill`
//! fails a row it rejects, so a walk stricter or laxer than the parser by
//! one document would silently change which entries survive. Two inputs:
//! documents generated around every corner of the grammar (the accepted
//! oddities — `01`, `1e999`, `\u+041`, raw control characters — and the
//! rejected ones — `null`, `\b`, `\ud800`, `9223372036854775808`), and
//! every single-byte deletion, flip and truncation of real result rows.

use hxharness::value::{object_member, parse_json, well_formed, Value};
use proptest::prelude::*;

/// Scalars the grammar takes, including the ones JSON proper would not.
const TAKEN: &[&str] = &[
    "0",
    "-0",
    "01",
    "1.",
    "-.5",
    "1.5",
    "2.5e-9",
    "1e999",
    "9223372036854775807",
    "true",
    "false",
    "\"\"",
    "\"plain\"",
    "\"é∑🦀\"",
    "\"raw\ttab\"",
    r#""\"\\\/\n\t\r""#,
    r#""\u00e9""#,
    r#""\u+041""#,
];

/// Scalars it refuses, including some JSON proper would take.
const REFUSED: &[&str] = &[
    "9223372036854775808",
    "1-2",
    "-",
    "+1",
    "1e",
    "null",
    "tru",
    r#""\b""#,
    r#""\f""#,
    r#""\ud800""#,
    r#""\u12""#,
    r#""\u00é""#,
    "\"open",
    r#""\"#,
];

const KEYS: &[&str] = &[
    "\"digest\"",
    "\"digest\"",
    "\"digest\"",
    "\"a\"",
    "\"a\"",
    "\"é\"",
    r#""\u0064igest""#,
    r#""\u0064igest""#,
    r#""\x""#,
    "digest",
];

struct Draws<'a>(std::slice::Iter<'a, u64>);

impl Draws<'_> {
    fn next(&mut self) -> u64 {
        self.0.next().copied().unwrap_or(0)
    }

    fn pick<'s>(&mut self, from: &[&'s str]) -> &'s str {
        from[self.next() as usize % from.len()]
    }

    /// `usual`, or one time in sixteen each of the `odd` ones.
    fn mostly<'s>(&mut self, usual: &'s str, odd: &[&'s str]) -> &'s str {
        odd.get(self.next() as usize % 16).copied().unwrap_or(usual)
    }

    /// U+00A0 is whitespace to `char`, not to JSON.
    fn space(&mut self) -> &'static str {
        self.mostly("", &[" ", " ", "\n", "\t \r", "\u{a0}"])
    }
}

/// One document drawn from `d`.
fn document(d: &mut Draws, depth: usize) -> String {
    // Scalars, arrays and objects; rows are objects, so half the
    // documents are one at the top, and nothing nests past four.
    let shape = match depth {
        0 if d.next().is_multiple_of(2) => 3,
        0..=3 => d.next() % 4,
        _ => 0,
    };
    let body = match shape {
        0 | 1 if d.next().is_multiple_of(16) => d.pick(REFUSED).to_string(),
        0 | 1 => d.pick(TAKEN).to_string(),
        2 => {
            let mut s = "[".to_string();
            for i in 0..d.next() % 4 {
                if i > 0 {
                    s += d.mostly(",", &[" , ", "", ":"]);
                }
                s += &document(d, depth + 1);
            }
            s + d.mostly("]", &["", "}"])
        }
        _ => {
            let mut s = "{".to_string();
            for i in 0..d.next() % 4 {
                if i > 0 {
                    s += d.mostly(",", &[" , ", "", ":"]);
                }
                s = s + d.space() + d.pick(KEYS) + d.mostly(":", &[" : ", "", ","]);
                s += &document(d, depth + 1);
            }
            s + d.mostly("}", &["", "]"])
        }
    };
    format!("{}{body}{}", d.space(), d.space())
}

/// A generated document, then half the time one character deleted, replaced, or
/// everything after it cut, or something appended.
fn mutated_document(draws: &[u64]) -> String {
    let mut d = Draws(draws.iter());
    let (how, at, with) = (d.next() % 8, d.next() as usize, d.next() as usize);
    let doc = document(&mut d, 0);
    let mut chars: Vec<char> = doc.chars().collect();
    let at = at % chars.len().max(1);
    match how {
        0 if !chars.is_empty() => drop(chars.remove(at)),
        1 if !chars.is_empty() => chars[at] = ['"', '\\', '{', '[', ',', ' ', '0', 'é'][with % 8],
        2 => chars.truncate(at),
        3 => chars.extend([" x", "]", ",1", "\n"][with % 4].chars()),
        _ => {}
    }
    chars.into_iter().collect()
}

/// Both walks agree on `src`, and `object_member` sees the member the
/// built tree holds.
fn walks_agree(src: &str) -> Result<bool, String> {
    let built = parse_json(src);
    if well_formed(src) != built.is_ok() {
        return Err(format!(
            "well_formed = {}, parse_json = {built:?}",
            well_formed(src)
        ));
    }
    // `None`: not JSON, or not an object. `Some(m)`: the object's digest.
    let want: Option<Option<Value>> = built
        .as_ref()
        .ok()
        .and_then(Value::as_table)
        .map(|t| t.get("digest").cloned());
    let got = object_member(src, "digest").ok();
    if got != want {
        return Err(format!("object_member = {got:?}, the tree holds {want:?}"));
    }
    Ok(built.is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn the_walk_accepts_exactly_what_the_parser_accepts(
        draws in prop::collection::vec(any::<u64>(), 8..=96)
    ) {
        let src = mutated_document(&draws);
        if let Err(why) = walks_agree(&src) {
            prop_assert!(false, "{src:?}: {why}");
        }
    }
}

/// The property above is only as good as its inputs: both verdicts must
/// be common, and objects that carry a digest must be among the accepted.
#[test]
fn generated_documents_cover_both_verdicts() {
    let strategy = prop::collection::vec(any::<u64>(), 8..=96);
    let mut rng = proptest::TestRng::deterministic("coverage");
    let (mut accepted, mut with_digest) = (0, 0);
    let cases = 4_000;
    for _ in 0..cases {
        let src = mutated_document(&strategy.generate(&mut rng));
        accepted += usize::from(well_formed(&src));
        with_digest += usize::from(matches!(object_member(&src, "digest"), Ok(Some(_))));
    }
    assert!(
        accepted > cases / 5 && accepted < cases * 4 / 5,
        "{accepted} of {cases} accepted"
    );
    assert!(with_digest > cases / 100, "{with_digest} carry a digest");
}

/// Every way one byte of a real row can go missing or wrong. The rows are
/// ASCII, so every cut and every flipped low bit is still a `str`.
#[test]
fn damaged_result_rows_get_the_same_verdict_from_both() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/fig6_reduced.jsonl"
    );
    let rows = std::fs::read_to_string(path).unwrap();
    assert!(rows.is_ascii() && rows.lines().count() >= 9);
    let (mut accepted, mut rejected) = (0, 0);
    for row in rows.lines() {
        assert_eq!(walks_agree(row), Ok(true), "{row}");
        for i in 0..row.len() {
            let deleted = format!("{}{}", &row[..i], &row[i + 1..]);
            let mut flipped = row.as_bytes().to_vec();
            flipped[i] ^= 1;
            let flipped = String::from_utf8(flipped).unwrap();
            for damaged in [deleted.as_str(), flipped.as_str(), &row[..i]] {
                match walks_agree(damaged) {
                    Ok(true) => accepted += 1,
                    Ok(false) => rejected += 1,
                    Err(why) => panic!("{damaged:?}: {why}"),
                }
            }
        }
    }
    // A deleted digit is still a number; a deleted quote is not a string.
    assert!(
        accepted > 1_000 && rejected > 1_000,
        "{accepted} / {rejected}"
    );
}
