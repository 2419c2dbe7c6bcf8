//! The little JSON the benchmark writes, by hand: the workspace's
//! vendored `serde` is a set of marker traits and cannot serialize.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit `f64` carries (Rust's `Display` for
/// floats is the shortest text that parses back to the same value and
/// never uses an exponent). Callers pass finite values only.
pub fn number(v: f64) -> String {
    debug_assert!(v.is_finite(), "JSON has no NaN or infinity");
    format!("{v}")
}

/// Checks that `text` is one well-formed JSON value (RFC 8259 syntax).
#[cfg(test)]
pub fn validate(text: &str) -> Result<(), String> {
    let b = text.as_bytes();
    let mut i = 0;
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i == b.len() {
        Ok(())
    } else {
        Err(format!("trailing bytes at {i}"))
    }
}

#[cfg(test)]
fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\n' | b'\r' | b'\t') {
        *i += 1;
    }
}

#[cfg(test)]
fn expect(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*i..].starts_with(lit) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at {i}",
            String::from_utf8_lossy(lit)
        ))
    }
}

#[cfg(test)]
fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        None => Err("unexpected end".into()),
        Some(b'{') => members(b, i, b'}', |b, i| {
            skip_ws(b, i);
            string_lit(b, i)?;
            skip_ws(b, i);
            expect(b, i, b":")?;
            value(b, i)
        }),
        Some(b'[') => members(b, i, b']', value),
        Some(b'"') => string_lit(b, i),
        Some(b't') => expect(b, i, b"true"),
        Some(b'f') => expect(b, i, b"false"),
        Some(b'n') => expect(b, i, b"null"),
        Some(_) => number_lit(b, i),
    }
}

/// A bracketed, comma-separated list of `item`s ending in `close`.
#[cfg(test)]
fn members(
    b: &[u8],
    i: &mut usize,
    close: u8,
    item: impl Fn(&[u8], &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    *i += 1;
    skip_ws(b, i);
    if b.get(*i) == Some(&close) {
        *i += 1;
        return Ok(());
    }
    loop {
        item(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(c) if *c == close => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or closer at {i}")),
        }
    }
}

#[cfg(test)]
fn string_lit(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, b"\"")?;
    while let Some(&c) = b.get(*i) {
        *i += 1;
        match c {
            b'"' => return Ok(()),
            b'\\' => {
                let esc = *b.get(*i).ok_or("dangling escape")?;
                *i += 1;
                if esc == b'u' {
                    let hex = b.get(*i..*i + 4).ok_or("short \\u escape")?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at {i}"));
                    }
                    *i += 4;
                } else if !b"\"\\/bfnrt".contains(&esc) {
                    return Err(format!("bad escape at {i}"));
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte at {i}")),
            _ => {}
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
fn number_lit(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    let digits = |i: &mut usize| {
        let s = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > s
    };
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let int_start = *i;
    if !digits(i) || (b[int_start] == b'0' && *i - int_start > 1) {
        return Err(format!("bad number at {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(i) {
            return Err(format!("bad fraction at {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(i) {
            return Err(format!("bad exponent at {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_json_and_rejects_near_json() {
        for ok in [
            "{}",
            "[]",
            " {\"a\": [1, -2.5, 3e-7, true, false, null, \"x\\n\\u00e9\"], \"b\": {\"c\": 0}} ",
            "0.000001",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 01}",
            "nul",
            "\"a",
            "[1] 2",
            "NaN",
            "1.",
            "{'a': 1}",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn writers_produce_valid_literals() {
        let s = string("a\"b\\c\n\t\u{1}é");
        validate(&s).expect("escaped string parses");
        assert_eq!(s, "\"a\\\"b\\\\c\\n\\t\\u0001é\"");
        for v in [0.0, 1.2034, -3.5, 1e-9, 123456789.125, 1e21] {
            let n = number(v);
            validate(&n).unwrap_or_else(|e| panic!("{n}: {e}"));
            assert_eq!(n.parse::<f64>().expect("round trip"), v);
        }
    }
}
