//! The API bodies' JSON: a re-export of the workspace's one codec,
//! [`prorp_obs::json`] (value, renderer, parser and the pull reader
//! typed decoders are built on all live there).

pub use prorp_obs::json::{parse, Json, Reader};
