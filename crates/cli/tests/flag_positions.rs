//! A value-less switch placed before the positionals must not swallow
//! one: `explain --stable s t` and `explain s t --stable` are the same
//! invocation.

use std::path::Path;
use std::process::Command;

fn explain(dir: &Path, args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_affidavit"))
        .arg("explain")
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run affidavit");
    assert!(
        out.status.success(),
        "explain {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn switches_before_positionals_keep_them() {
    let dir = std::env::temp_dir().join(format!(
        "affidavit-cli-flag-positions-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("s.csv"), "k,v\na,1000\nb,2000\nc,3000\nd,4000\n").unwrap();
    std::fs::write(dir.join("t.csv"), "k,v\na,1\nb,2\nc,3\ne,9\n").unwrap();

    let after = explain(&dir, &["s.csv", "t.csv", "--stable"]);
    assert!(!after.is_empty());
    assert_eq!(explain(&dir, &["--stable", "s.csv", "t.csv"]), after);
    // Several switches in a row, then a value flag that still binds.
    let traced = explain(
        &dir,
        &["s.csv", "t.csv", "--trace", "--stable", "--seed", "5"],
    );
    assert_eq!(
        explain(
            &dir,
            &["--trace", "--stable", "s.csv", "t.csv", "--seed", "5"]
        ),
        traced
    );
    assert_eq!(
        explain(
            &dir,
            &["--seed", "5", "--trace", "--stable", "s.csv", "t.csv"]
        ),
        traced
    );
    std::fs::remove_dir_all(&dir).ok();
}
