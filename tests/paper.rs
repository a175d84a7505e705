//! The paper-reproduction binary, run and held to its printed text.
//!
//! `tests/golden/paper/<name>.txt` is the stdout of the `<name>` binary at
//! the commit before the nine binaries became sections of `paper`; a table
//! that moves by one byte fails here. The one text that is not
//! reproducible is `table_motivation`'s second table, which times the
//! host's f32 kernel: it is cut out before comparing and held to its
//! shape instead. A golden that differs in another build profile or under
//! `RUSTFLAGS=` is a finding about the arithmetic, not a file to
//! regenerate.

use std::path::PathBuf;
use std::process::{Command, Output};

const HOST_BANNER: &str = "\n=== Same experiment measured on this host";
const SEPARATOR: &str = "\n################ ";

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().expect("run paper")
}

fn stdout_of(args: &[&str]) -> String {
    let out = paper(args);
    assert!(out.status.success(), "paper {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn repo(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

fn golden(name: &str) -> String {
    let path = repo("tests/golden/paper").join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The section names, read off the usage message `main.rs` prints from its
/// one list — this file keeps no list of its own.
fn names() -> Vec<String> {
    let out = paper(&["no-such-section"]);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    stderr.lines().filter_map(|l| l.strip_prefix("  ")).map(str::to_owned).collect()
}

/// `text` without the host-timed table: from its banner to the next
/// section separator, or to the end.
fn without_host_table(text: &str) -> String {
    let Some(start) = text.find(HOST_BANNER) else { return text.to_owned() };
    let end = text[start..].find(SEPARATOR).map_or(text.len(), |at| start + at);
    format!("{}{}", &text[..start], &text[end..])
}

fn cells(line: &str) -> Vec<&str> {
    line.trim_matches('|').split('|').map(str::trim).collect()
}

#[test]
fn every_section_prints_its_golden_byte_for_byte() {
    for name in names() {
        let printed = stdout_of(&[&name]);
        let golden = golden(&name);
        if name != "table_motivation" {
            assert_eq!(printed, golden, "{name}");
            continue;
        }
        assert_eq!(without_host_table(&printed), without_host_table(&golden), "{name}");
        let host = &printed[printed.find(HOST_BANNER).expect("host banner")..];
        let lines: Vec<&str> = host.lines().collect();
        assert_eq!(lines.len(), 9, "blank, banner, blank, header, rule, four rows:\n{host}");
        assert_eq!(cells(lines[3]), ["n", "measured", "vs n=256", "quadratic reference"]);
        assert!(lines[4].starts_with("|--"), "{}", lines[4]);
        let rows: Vec<Vec<&str>> = lines[5..].iter().map(|l| cells(l)).collect();
        let ns: Vec<&str> = rows.iter().map(|r| r[0]).collect();
        assert_eq!(ns, ["256", "512", "1024", "2048"]);
        assert_eq!(rows[0][2], "1.00x");
    }
}

#[test]
fn no_argument_prints_every_section_under_its_separator() {
    let mut expected = String::new();
    for name in names() {
        expected.push_str(&format!("{SEPARATOR}{name} ################\n{}", golden(&name)));
    }
    expected.push_str("\nall experiments completed\n");
    assert_eq!(without_host_table(&stdout_of(&[])), without_host_table(&expected));
}

#[test]
fn an_unknown_name_exits_2_and_names_all_nine() {
    for args in [&["no-such-section"][..], &["table1_synthesis", "table2_workloads"]] {
        let out = paper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
    assert_eq!(names().len(), 9);
}

#[test]
fn names_goldens_and_the_experiments_index_agree() {
    let names = names();

    let mut files: Vec<String> = std::fs::read_dir(repo("tests/golden/paper"))
        .expect("golden directory")
        .map(|entry| entry.expect("entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    files.sort();
    let mut expected: Vec<String> = names.iter().map(|n| format!("{n}.txt")).collect();
    expected.sort();
    assert_eq!(files, expected);

    let experiments = std::fs::read_to_string(repo("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let index: Vec<&str> = experiments.lines().filter(|l| l.starts_with("| `paper ")).collect();
    assert_eq!(index.len(), names.len(), "one index row per section");
    for (row, name) in index.iter().zip(&names) {
        assert!(row.starts_with(&format!("| `paper {name}` |")), "{name}: {row}");
        assert!(row.contains(&format!("`cargo run --release --bin paper {name}`")), "{row}");
        assert!(row.contains(&format!("(tests/golden/paper/{name}.txt)")), "{row}");
    }
}
