//! Records the compiler version and, when the sources sit in a git
//! checkout, the commit, so every result names the code that produced it.

use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Name the repository's own .git explicitly so git never walks up into
    // an enclosing repository when the sources are a plain export.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string());
    let git_dir = format!("{manifest}/../.git");
    let commit = capture(
        "git",
        &["--git-dir", &git_dir, "rev-parse", "--short=12", "HEAD"],
    )
    .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=STACKBENCH_RUSTC={version}");
    println!("cargo:rustc-env=STACKBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
