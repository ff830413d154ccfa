//! README's "Environment variable reference" table and the source must
//! name the same `QR3D_*` variables: a variable cannot be documented
//! without a reader, or read without a row.

use std::collections::BTreeSet;
use std::path::Path;

const README: &str = include_str!("../README.md");

/// `QR3D_` plus the leading `[A-Z0-9_]*` of `rest`.
fn env_name(rest: &str) -> String {
    let end = rest
        .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
        .unwrap_or(rest.len());
    format!("QR3D_{}", &rest[..end])
}

/// The first cell of every row of the README table.
fn documented() -> BTreeSet<String> {
    let (_, section) = README
        .split_once("## Environment variable reference")
        .expect("README has the environment section");
    let table = section
        .split_once("\n## ")
        .map_or(section, |(table, _)| table);
    table
        .lines()
        .filter_map(|line| line.strip_prefix("| `QR3D_"))
        .map(env_name)
        .collect()
}

/// Every `"QR3D_…"` string literal in the `.rs` files under `dir`.
fn literals_under(dir: &Path, names: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("a source directory is readable") {
        let path = entry.expect("a directory entry is readable").path();
        if path.is_dir() {
            literals_under(&path, names);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("a source file is UTF-8");
            names.extend(text.split("\"QR3D_").skip(1).map(env_name));
        }
    }
}

#[test]
fn readme_table_lists_exactly_the_variables_the_source_reads() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut read = BTreeSet::new();
    for krate in std::fs::read_dir(crates).expect("crates/ is readable") {
        let src = krate
            .expect("a crate directory is readable")
            .path()
            .join("src");
        if src.is_dir() {
            literals_under(&src, &mut read);
        }
    }
    assert_eq!(
        documented(),
        read,
        "left: README's table; right: \"QR3D_…\" literals under crates/*/src"
    );
    assert!(!read.is_empty(), "the scan found no variable at all");
}
