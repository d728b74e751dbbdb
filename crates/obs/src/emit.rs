//! The value formatters every hand-rolled CSV/JSON emitter in the
//! workspace shares: the figure reports in `safelight::eval`, the serving
//! and incident reports in `safelight-serve` and the metrics snapshot
//! here. `f64` values print through `Display` (shortest exact
//! round-trip); a non-finite value becomes JSON `null` or an empty CSV
//! field.

/// Escapes `s` as a JSON string literal, quotes included: `"` and `\`
/// are backslash-escaped, newline, carriage return and tab use their
/// short escapes, and every other control character becomes `\u00XX`.
#[must_use]
pub fn json_str(s: &str) -> String {
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

/// A JSON number literal, `null` for non-finite values (which JSON
/// cannot represent).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A CSV number field, empty for non-finite values.
#[must_use]
pub fn csv_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::new()
    }
}
