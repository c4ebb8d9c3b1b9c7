//! `--json` output helpers for the experiment binaries.
//!
//! The records are built with the workspace's one JSON codec,
//! [`prorp_obs::json`] (the same [`Json`] the server and `prorp-trace`
//! use); this module only adds the argument and file-writing
//! conveniences the binaries share.

pub use prorp_obs::Json;

/// Pull a `--json <path>` argument out of the process arguments, if
/// present.  Exits with an error message when `--json` is given without
/// a path.
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == "--json")?;
    match args.get(at + 1) {
        Some(path) => Some(std::path::PathBuf::from(path)),
        None => {
            eprintln!("--json requires a path argument");
            std::process::exit(2);
        }
    }
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
