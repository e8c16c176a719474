//! Hostile nesting in a MinC source is a frontend error, not a stack
//! overflow: the library returns it, and `icc` reports it with the
//! `frontend` error code and exits 1 instead of aborting.

use intelligent_compilers::lang;

fn deep_source() -> String {
    let n = 200_000;
    format!(
        "int main() {{ return {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    )
}

#[test]
fn deep_parentheses_are_a_frontend_error() {
    let e = lang::compile("deep", &deep_source()).unwrap_err();
    assert!(e.message.contains("nesting deeper than"), "{e}");
    // Nesting within the cap still compiles, lowering included.
    let ok = format!(
        "int main() {{ return {}1{}; }}",
        "(".repeat(60),
        ")".repeat(60)
    );
    assert!(lang::compile("ok", &ok).is_ok());
}

#[test]
fn icc_reports_deep_nesting_with_the_frontend_code() {
    let dir = std::env::temp_dir().join(format!("ic-frontend-depth-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.mc");
    std::fs::write(&path, deep_source()).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_icc"))
        .arg(&path)
        .arg("-O2")
        .output()
        .expect("icc runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("frontend: "), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
