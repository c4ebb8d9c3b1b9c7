//! What decoding a `POST /v1/events` body costs per event: the typed
//! decoder the route uses against the tree path it replaced (parse the
//! body into a `Json` tree, then read each event out of it).
//!
//! ```text
//! cargo run --release -p prorp-server --example decode_cost [EVENTS_PER_BODY]
//! ```
//!
//! The default body holds 12 events, the mean `serve_bulk` ingest body
//! of the performance ledger, in the ledger's own wire form.  Prints one
//! line per path, the best of five timed rounds.

use prorp_server::api::decode_events;
use prorp_server::json::{parse, Json};
use prorp_server::{LiveEvent, LiveEventKind};
use prorp_types::{DatabaseId, Timestamp};
use std::hint::black_box;
use std::time::Instant;

/// The tree path: what `POST /v1/events` did before the decoder.
fn tree(body: &str) -> Option<Vec<LiveEvent>> {
    let v = parse(body).ok()?;
    v.get("events")?
        .as_array()?
        .iter()
        .map(|e| {
            Some(LiveEvent {
                db: DatabaseId(e.get("db")?.as_u64()?),
                at: Timestamp(e.get("at")?.as_int()?),
                kind: LiveEventKind::parse(e.get("kind")?.as_str()?)?,
            })
        })
        .collect()
}

/// Nanoseconds per event of `decode` over `bodies`, best of five rounds.
fn ns_per_event(bodies: &[String], events: usize, decode: impl Fn(&str) -> usize) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut decoded = 0;
            for body in bodies {
                decoded += decode(black_box(body));
            }
            assert_eq!(decoded, events);
            t0.elapsed().as_nanos() as f64 / events as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let per_body: usize = std::env::args()
        .nth(1)
        .map_or(12, |n| n.parse().expect("EVENTS_PER_BODY is a count"));
    let bodies: Vec<String> = (0..20_000u64)
        .map(|b| {
            let items = (0..per_body as u64)
                .map(|i| {
                    let kind = if i % 2 == 0 { "login" } else { "logout" };
                    Json::object(vec![
                        ("db", Json::from((b * 7 + i * 13) % 10_000)),
                        ("at", Json::Int((2_419_200 + b * 300 + i * 25) as i64)),
                        ("kind", Json::Str(kind.into())),
                    ])
                })
                .collect();
            Json::object(vec![("events", Json::Array(items))]).render()
        })
        .collect();
    let events = bodies.len() * per_body;
    for body in &bodies {
        assert_eq!(decode_events(body).ok(), tree(body));
    }
    let typed = ns_per_event(&bodies, events, |b| decode_events(b).map_or(0, |v| v.len()));
    let treed = ns_per_event(&bodies, events, |b| tree(b).map_or(0, |v| v.len()));
    println!("{per_body}-event bodies, {events} events");
    println!("decoder    {typed:8.1} ns/event");
    println!("tree path  {treed:8.1} ns/event");
}
