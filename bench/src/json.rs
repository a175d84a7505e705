//! A minimal JSON value and writer (the build has no registry access,
//! so no serde). Objects keep insertion order; numbers print with every
//! digit `f64`'s shortest round-trip form carries.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    UInt(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// One line, no spaces after separators except `": "` and `", "`.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, arrays of scalars kept on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => out.push_str(&v.to_string()),
            // JSON has no NaN or infinity; a non-finite measurement is
            // recorded as missing rather than as a made-up number.
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) => out.push_str(&v.to_string()),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                let inline = indent.is_none() || items.iter().all(Json::is_scalar);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if inline { ", " } else { "," });
                    }
                    if !inline {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !inline && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_escapes() {
        let doc = Json::obj(vec![
            ("a", Json::UInt(3)),
            ("b", Json::nums(&[1.5, 0.1 + 0.2])),
            ("c", Json::str("q\"\\\n")),
            ("d", Json::Num(f64::NAN)),
            ("e", Json::Arr(vec![Json::obj(vec![("k", Json::Bool(true))])])),
        ]);
        assert_eq!(
            doc.compact(),
            r#"{"a": 3, "b": [1.5, 0.30000000000000004], "c": "q\"\\\n", "d": null, "e": [{"k": true}]}"#
        );
        let pretty = doc.pretty();
        assert!(pretty.contains("\n  \"b\": [1.5, 0.30000000000000004],\n"));
        assert!(pretty.contains("\n  \"e\": [\n    {\n      \"k\": true\n    }\n  ]\n}"));
    }
}
