//! `--json` output helpers for the experiment binaries.
//!
//! The records are built with the workspace's one JSON codec,
//! [`prorp_obs::json`] (the same [`Json`] the server and `prorp-trace`
//! use); this module only adds the argument and file-writing
//! conveniences the binaries share.

pub use prorp_obs::Json;

/// The value following `flag` in `args`; `None` when the flag is absent.
///
/// # Errors
///
/// Names the flag when nothing follows it, or when what follows starts
/// with `--`: that is the next flag, not a value (`--json --smoke` must
/// not write a record to a file called `--smoke`).
fn value_after<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(at + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value)),
        _ => Err(format!("{flag} requires a value")),
    }
}

/// The value following `flag` in `args`, if the flag is present.  Exits
/// with status 2, naming the flag, when its value is missing.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    match value_after(args, flag) {
        Ok(value) => value.map(str::to_owned),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

/// The `--json <path>` of the process arguments, if present.
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    arg_value(&args, "--json").map(std::path::PathBuf::from)
}

/// Write a rendered JSON value to `path`, creating parent directories.
/// Exits with an error message on I/O failure (experiment binaries have
/// no error path worth recovering).
pub fn write_json(path: &std::path::Path, value: &Json) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
    }
    let mut text = value.render();
    text.push('\n');
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::value_after;

    #[test]
    fn a_flag_is_not_a_value() {
        let args = |line: &str| -> Vec<String> { line.split(' ').map(String::from).collect() };
        let line = args("scale_bench --dbs 10k --json out.json --smoke");
        assert_eq!(value_after(&line, "--json"), Ok(Some("out.json")));
        assert_eq!(value_after(&line, "--dbs"), Ok(Some("10k")));
        assert_eq!(value_after(&line, "--days"), Ok(None));
        // A negative number is a value; the next flag, or nothing, is not.
        assert_eq!(value_after(&args("x --days -3"), "--days"), Ok(Some("-3")));
        for bad in ["x --json --smoke", "x --smoke --json"] {
            let err = value_after(&args(bad), "--json").unwrap_err();
            assert!(err.contains("--json"), "{err}");
        }
    }
}
