//! A bench record names the tree its binary was built from.
//!
//! `run_meta` stamps `meta.commit` from the git tree the running
//! executable sits in, not from the current directory: a bench binary
//! run from somewhere else — here a fresh git repository with a commit
//! of its own — still names its build tree's `HEAD`, `+dirty` when that
//! tree has changes.

use std::path::Path;
use std::process::{Command, Stdio};

/// `git -C dir args…`'s trimmed output, if it succeeded.
fn git(dir: &Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

#[test]
fn a_bench_bin_run_elsewhere_stamps_its_build_trees_commit() {
    let tree = Path::new(env!("CARGO_MANIFEST_DIR"));
    let Some(head) = git(tree, &["rev-parse", "HEAD"]) else {
        eprintln!("built outside a git tree: no commit to stamp");
        return;
    };
    // Another directory, with a HEAD of its own.
    let elsewhere = std::env::temp_dir().join(format!("prorp-run-meta-{}", std::process::id()));
    std::fs::create_dir_all(&elsewhere).unwrap();
    git(&elsewhere, &["init", "-q"]).expect("git init");
    let commit = [
        "-c",
        "user.name=bench",
        "-c",
        "user.email=bench@localhost",
        "-c",
        "commit.gpgsign=false",
        "commit",
        "-q",
        "--allow-empty",
        "-m",
        "elsewhere",
    ];
    git(&elsewhere, &commit).expect("git commit");
    let other = git(&elsewhere, &["rev-parse", "HEAD"]).unwrap();
    assert_ne!(other, head);

    let record = elsewhere.join("record.json");
    let status = Command::new(env!("CARGO_BIN_EXE_obs_bench"))
        .args(["--smoke", "--json"])
        .arg(&record)
        .current_dir(&elsewhere)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    let text = std::fs::read_to_string(&record);
    let dirty = !git(tree, &["status", "--porcelain"]).unwrap().is_empty();
    std::fs::remove_dir_all(&elsewhere).unwrap();
    assert!(status.success());
    let want = if dirty { head + "+dirty" } else { head };
    let text = text.unwrap();
    assert!(
        text.contains(&format!("\"commit\": \"{want}\""))
            || text.contains(&format!("\"commit\":\"{want}\"")),
        "want commit {want} (not {other}) in {text}"
    );
}
