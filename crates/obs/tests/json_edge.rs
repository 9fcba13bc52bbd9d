//! Edge-case coverage for `lori_obs::json::Value::parse` — the parser
//! `lori-report` trusts to validate event streams and manifests, so its
//! failure behavior is part of the analysis contract:
//! malformed input must produce an error naming a byte offset, never a
//! panic and never a silently wrong value.

use lori_obs::Value;

#[test]
fn escaped_strings_decode() {
    let v = Value::parse(r#""a\"b\\c\/d\ne\tf\rg\bh\fi""#).unwrap();
    assert_eq!(
        v.as_str(),
        Some("a\"b\\c/d\ne\tf\rg\u{8}h\u{c}i"),
        "every JSON escape decodes"
    );
    let v = Value::parse(r#""snow: ☃, A: A""#).unwrap();
    assert_eq!(v.as_str(), Some("snow: ☃, A: A"));
    // Unpaired surrogates decode to the replacement character rather than
    // producing invalid UTF-8 or panicking.
    let v = Value::parse(r#""\ud800""#).unwrap();
    assert_eq!(v.as_str(), Some("\u{fffd}"));
}

#[test]
fn escape_roundtrip_through_writer() {
    for s in [
        "",
        "\\",
        "\"",
        "\n\t\r",
        "\u{1}\u{1f}",
        "日本語 ☃",
        "a\\u0041b",
    ] {
        let json = Value::from(s).to_json();
        let back = Value::parse(&json).unwrap();
        assert_eq!(back.as_str(), Some(s), "roundtrip of {s:?} via {json}");
    }
}

#[test]
fn nested_arrays_parse() {
    let v = Value::parse("[[1,[2,[3,[]]]],[],[[4]]]").unwrap();
    let top = v.as_arr().unwrap();
    assert_eq!(top.len(), 3);
    let deep = top[0].as_arr().unwrap()[1].as_arr().unwrap()[1]
        .as_arr()
        .unwrap();
    assert_eq!(deep[0].as_f64(), Some(3.0));
    assert!(deep[1].as_arr().unwrap().is_empty());

    let v = Value::parse(r#"{"a": [{"b": [1, 2]}, {"c": {"d": [3]}}]}"#).unwrap();
    let a = v.get("a").and_then(Value::as_arr).unwrap();
    assert_eq!(a[0].get("b").and_then(Value::as_arr).unwrap().len(), 2);
}

#[test]
fn nan_and_infinity_are_rejected() {
    for bad in [
        "NaN",
        "nan",
        "Infinity",
        "-Infinity",
        "inf",
        "-inf",
        // str::parse::<f64> accepts these overflowing forms as ±inf; the
        // JSON layer must not let them through.
        "1e999",
        "-1e999",
        "1e308e5",
    ] {
        assert!(Value::parse(bad).is_err(), "{bad} must not parse");
        assert!(
            Value::parse(&format!("{{\"x\": {bad}}}")).is_err(),
            "{bad} must not parse as a member value"
        );
    }
    // The writer's side of the contract: non-finite serializes as null,
    // which the parser accepts (as Null, not as a number).
    assert_eq!(
        Value::parse(&Value::Num(f64::NAN).to_json()),
        Ok(Value::Null)
    );
}

#[test]
fn truncated_input_errors_carry_byte_offsets() {
    let cases: &[(&str, &str)] = &[
        ("", "unexpected end of input at byte 0"),
        ("[1, 2", "expected ',' or ']' at byte 5"),
        ("{\"a\": ", "unexpected end of input at byte 6"),
        ("\"abc", "unterminated string at byte 4"),
        ("\"ab\\u00", "truncated \\u escape at byte 4"),
    ];
    for (input, expected) in cases {
        let err = Value::parse(input).expect_err(input);
        assert_eq!(&err, expected, "error for {input:?}");
    }
    // Every other malformed shape still points somewhere in the input.
    for input in ["{\"a\" 1}", "[1 2]", "{\"a\": 1,, }", "tru", "\"a\\x\""] {
        let err = Value::parse(input).expect_err(input);
        assert!(
            err.contains("byte"),
            "error for {input:?} lacks offset: {err}"
        );
    }
}

/// A fuzz-ish corpus of malformed JSONL lines: every mutation of a valid
/// event line must either parse to a value or fail cleanly — no panics —
/// and known-broken lines must fail.
#[test]
fn malformed_jsonl_corpus_never_panics() {
    let seed = r#"{"ev":"enter","name":"sweep","t_ns":2277937,"tid":0,"depth":0}"#;

    // Hand-picked malformations of a real event line.
    let corpus = [
        r#"{"ev":"enter","name":"sweep","t_ns":2277937,"tid":0,"depth":0"#, // no brace
        r#""ev":"enter","name":"sweep""#,                                   // no braces
        r#"{"ev":"enter",}"#,                                               // trailing comma
        r#"{"ev":"enter" "name":"sweep"}"#,                                 // missing comma
        r#"{"ev":enter}"#,                                                  // bare word
        r#"{"ev":"enter","t_ns":22x7}"#,                                    // bad number
        r#"{"ev":"enter","t_ns":}"#,                                        // missing value
        r#"{{"ev":"enter"}}"#,                                              // doubled braces
        r#"{"ev":"enter"}{"ev":"exit"}"#,                                   // two docs
        "{\"ev\":\"en\nter\"}",                                             // raw newline
        r#"{"ev":"enter","name":"sw\qeep"}"#,                               // bad escape
        "",                                                                 // empty line
        "null garbage",                                                     // trailing junk
    ];
    for line in corpus {
        assert!(
            Value::parse(line).is_err(),
            "corpus line must fail: {line:?}"
        );
    }

    // Truncation sweep: every prefix of the seed line.
    for end in 0..seed.len() {
        if !seed.is_char_boundary(end) {
            continue;
        }
        let _ = Value::parse(&seed[..end]); // must not panic
    }
    // Single-byte corruption sweep at every position, several replacements.
    for i in 0..seed.len() {
        for repl in ['\\', '"', '{', '}', 'x', '9', '\u{0}'] {
            let mut mutated: Vec<char> = seed.chars().collect();
            mutated[i] = repl;
            let mutated: String = mutated.into_iter().collect();
            let _ = Value::parse(&mutated); // must not panic
        }
    }
    // The unmutated seed still parses (guards the corpus itself).
    let v = Value::parse(seed).unwrap();
    assert_eq!(v.get("ev").and_then(Value::as_str), Some("enter"));
}

#[test]
fn deep_nesting_is_bounded_by_input_not_stack_death() {
    // 1000 levels of arrays: recursion depth equals input length here, so
    // this guards against a quadratic or unbounded-stack regression at the
    // depth real artifacts could plausibly reach.
    let depth = 1000;
    let text = "[".repeat(depth) + &"]".repeat(depth);
    let v = Value::parse(&text).unwrap();
    assert!(v.as_arr().is_some());
    let truncated = "[".repeat(depth);
    assert!(Value::parse(&truncated).is_err());
}
