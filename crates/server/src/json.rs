//! The API bodies' JSON: a re-export of the workspace's one codec,
//! [`prorp_obs::json`] (value, renderer and parser live there).

pub use prorp_obs::json::{parse, Json};
