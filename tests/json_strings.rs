//! JSON string parsing in the vendored `serde_json`: multibyte UTF-8 next
//! to escapes round-trips exactly, and a long string parses in linear time
//! (every archived run, journal entry and settle-log line goes through
//! this parser).

use std::time::{Duration, Instant};

fn round_trip(s: &str) -> String {
    let json = serde_json::to_string(&s.to_string()).unwrap();
    serde_json::from_str::<String>(&json).unwrap()
}

#[test]
fn multibyte_text_next_to_escapes_round_trips() {
    for s in [
        "µs→ms",
        "\"ü\"\\\n\té",
        "日本語\\\"中文\"",
        "a\u{1F600}\"b\u{00e9}\\",
        "\u{0008}\u{000c}ß\r\n",
        "",
        "plain ascii",
    ] {
        assert_eq!(round_trip(s), s);
    }
    // Escapes the writer never emits still parse, between multibyte runs.
    let parsed: String = serde_json::from_str(r#""éé\/ü日""#).unwrap();
    assert_eq!(parsed, "éé/ü日");
}

#[test]
fn invalid_escapes_are_rejected() {
    assert!(serde_json::from_str::<String>(r#""é\q""#).is_err());
    assert!(serde_json::from_str::<String>(r#""unterminated é"#).is_err());
}

#[test]
fn a_one_megabyte_string_parses_in_linear_time() {
    // Mostly plain bytes with a multibyte character and an escape every
    // so often: parsing re-validating the rest of the document per
    // character would take minutes here.
    let chunk = "abcdefghij".repeat(10) + "é\"\\";
    let s = chunk.repeat(1_000_000 / chunk.len() + 1);
    assert!(s.len() >= 1_000_000);
    let started = Instant::now();
    assert_eq!(round_trip(&s), s);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "1 MB string took {:?}",
        started.elapsed()
    );
}
