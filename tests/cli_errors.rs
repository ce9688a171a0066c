//! The `hiperbot` binary's answer to a space it cannot tune: exit status 1
//! and the space's typed error, not a panic.

use std::path::PathBuf;
use std::process::Command;

/// Writes `spec` to a file named `name` in the test's scratch directory.
fn spec_file(name: &str, spec: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, spec).expect("write the space spec");
    path
}

/// Runs a short command-mode tuning session on `spec`; returns the exit
/// status and standard error.
fn run(name: &str, spec: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hiperbot"))
        .arg("--space")
        .arg(spec_file(name, spec))
        .args(["--budget", "8", "--seed", "1", "--command", "echo 1"])
        .output()
        .expect("run hiperbot");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_continuous_range_whose_width_overflows_is_a_typed_error() {
    let wide = r#"{"type":"continuous","name":"x","lo":-1e308,"hi":1e308}"#;
    let ints = r#"{"type":"ints","name":"k","values":[1,2,3]}"#;
    for (name, params) in [
        ("overflowing-range.json", wide.to_string()),
        ("overflowing-mixed.json", format!("{ints},{wide}")),
    ] {
        let (code, stderr) = run(name, &format!(r#"{{"params":[{params}]}}"#));
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains("error: parameter 'x' has an invalid continuous range"),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn a_repeated_parameter_value_is_a_typed_error() {
    let spec = r#"{"params":[{"type":"ints","name":"a","values":[1,1,2]}]}"#;
    let (code, stderr) = run("repeated-value.json", spec);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("error: parameter 'a' lists the value '1' twice"),
        "{stderr}"
    );
}
