//! The lint table in the root `Cargo.toml` binds only the packages that
//! opt into it, and clippy stays silent about one that does not. These
//! checks keep every package under the table and every library crate
//! root forbidding `unsafe`.

#![allow(clippy::expect_used, reason = "test helpers; outside library scope")]

use std::fs;
use std::path::{Path, PathBuf};

/// The root package plus every `crates/*` package.
fn packages() -> impl Iterator<Item = PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = fs::read_dir(root.join("crates")).expect("crates/ exists");
    std::iter::once(root.to_path_buf()).chain(crates.map(|e| e.expect("dir entry").path()))
}

#[test]
fn every_package_opts_into_the_workspace_lints() {
    for dir in packages() {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("readable manifest");
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "{} does not opt into [workspace.lints]",
            dir.display()
        );
    }
}

#[test]
fn every_library_crate_forbids_unsafe() {
    let roots: Vec<PathBuf> = packages()
        .map(|dir| dir.join("src/lib.rs"))
        .filter(|lib| lib.is_file())
        .collect();
    assert_eq!(
        roots.len(),
        9,
        "expected the root and all eight crate roots"
    );
    for lib in roots {
        let source = fs::read_to_string(&lib).expect("readable lib.rs");
        assert!(
            source.contains("#![forbid(unsafe_code)]"),
            "{} is missing #![forbid(unsafe_code)]",
            lib.display()
        );
    }
}
