//! Plain-text table formatting the `paper` sections print with.

/// Renders a plain-text table: a header row plus data rows, columns padded
/// to their widest cell.
#[must_use]
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, cell) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<width$} |", cell, width = widths[c]));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut rule = String::from("|");
    for w in &widths {
        rule.push_str(&format!("{:-<width$}|", "", width = w + 2));
    }
    rule.push('\n');
    out.push_str(&rule);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats a ratio like `17.66x`.
#[must_use]
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats seconds as adaptive ms/us.
#[must_use]
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{:.1} us", seconds * 1e6)
    }
}

/// Prints a section banner for harness output.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "2.5".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with("|--"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ratio(17.659), "17.66x");
        assert_eq!(fmt_time(0.00425), "4.250 ms");
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(5e-6), "5.0 us");
    }
}
