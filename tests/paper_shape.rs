//! The paper's shape claims, asserted on the committed figure outputs.
//!
//! `scripts/figures.sh` regenerates `results/fig03_idle_fragmentation.txt`,
//! `fig06_regions.txt`, `fig08_window_size.txt`, `fig09_confidence.txt`,
//! `fig11_resume_frequency.txt` and `fig12_pause_frequency.txt` at 300
//! databases × 35 days, seed 42, and `scripts/check.sh` diffs them byte
//! for byte, so these files are what the tree produces.  The tests below
//! read them and check the claims the paper draws from Figures 3, 6, 8, 9,
//! 11 and 12 — the direction of each effect, comparing the ends of a
//! sweep only, not the paper's absolute numbers, which a synthetic fleet
//! does not reproduce (DESIGN.md §2 states the gaps).

use std::path::Path;

fn result(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The number right after `key` in `line`, with any `%` dropped.
fn number_after(line: &str, key: &str) -> f64 {
    let at = line
        .find(key)
        .unwrap_or_else(|| panic!("{key:?} not in {line:?}"));
    line[at + key.len()..]
        .split(|c: char| c.is_whitespace() || c == '%')
        .find(|t| !t.is_empty())
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("no number after {key:?} in {line:?}"))
}

/// The whitespace-separated cells of `line`, each parsed with its `%`
/// dropped.
fn cells(line: &str) -> Vec<f64> {
    line.split_whitespace()
        .map(|t| t.trim_end_matches('%').parse().expect("numeric cell"))
        .collect()
}

/// Each rounded share is off by at most 0.005 points; three of them
/// against a rounded total, by at most 0.02.
const ROUNDING: f64 = 0.02 + 1e-9;

/// Logical + correct + wrong idle time is the whole proactive idle time.
fn assert_decomposition(idle: f64, logical: f64, correct: f64, wrong: f64, row: &str) {
    let sum = logical + correct + wrong;
    assert!(
        (sum - idle).abs() <= ROUNDING,
        "{row}: {logical} + {correct} + {wrong} = {sum}, not {idle}"
    );
}

/// Figure 6: the proactive policy beats the reactive one on QoS in every
/// region.
#[test]
fn proactive_qos_beats_reactive_in_every_region() {
    let text = result("fig06_regions.txt");
    let rows: Vec<(&str, Vec<f64>)> = text
        .lines()
        .filter_map(|l| {
            let (region, rest) = l.split_once(' ')?;
            ["EU1", "EU2", "US1", "US2"]
                .contains(&region)
                .then(|| (region, cells(rest)))
        })
        .collect();
    assert_eq!(rows.len(), 4, "{text}");
    for (region, row) in rows {
        let [reactive_qos, _, proactive_qos, _] = row[..] else {
            panic!("{region}: {row:?}")
        };
        assert!(
            proactive_qos > reactive_qos,
            "{region}: proactive QoS {proactive_qos} ≤ reactive {reactive_qos}"
        );
    }
}

/// Figure 8: a longer history window buys QoS with idle time.  Only the
/// ends are compared: QoS dips from 7 h to 8 h in this fleet.
#[test]
fn qos_and_idle_rise_from_a_1h_to_a_7h_window() {
    let text = result("fig08_window_size.txt");
    let row = |w: &str| {
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("{w} h ")))
            .unwrap_or_else(|| panic!("no {w} h row in {text}"));
        cells(&line[w.len() + 2..])
    };
    let (one, seven) = (row("1"), row("7"));
    assert!(seven[0] > one[0], "QoS {} → {}", one[0], seven[0]);
    assert!(seven[1] > one[1], "idle {} → {}", one[1], seven[1]);
}

/// Figures 6 and 8: every proactive row's idle decomposition sums to its
/// total idle time.
#[test]
fn the_idle_decomposition_sums_to_the_total() {
    let fig06 = result("fig06_regions.txt");
    let proactive: Vec<&str> = fig06
        .lines()
        .filter(|l| l.trim_start().starts_with("proactive:"))
        .collect();
    assert_eq!(proactive.len(), 4, "{fig06}");
    for line in proactive {
        assert_decomposition(
            number_after(line, "idle"),
            number_after(line, "logical"),
            number_after(line, "correct"),
            number_after(line, "wrong"),
            line,
        );
    }
    let fig08 = result("fig08_window_size.txt");
    let rows: Vec<&str> = fig08
        .lines()
        .filter(|l| l.split_whitespace().nth(1) == Some("h"))
        .collect();
    assert_eq!(rows.len(), 8, "{fig08}");
    for line in rows {
        let row = cells(&line[line.find('h').expect("window unit") + 1..]);
        assert_decomposition(row[1], row[2], row[3], row[4], line);
    }
}

/// Figure 3: short idle intervals are common and carry little idle time.
/// The paper reads about 72 % and 5 %; this generator produces 61.5 % and
/// 1.6 % (the calibration gap DESIGN.md §2 states).  The bands hold what
/// it produces and fail if the workload drifts from it.
#[test]
fn short_idle_intervals_are_common_and_carry_little_idle_time() {
    let text = result("fig03_idle_fragmentation.txt");
    let line = |prefix: &str| {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix} line in {text}"))
    };
    let count_share = number_after(line("(a)"), ":");
    let time_share = number_after(line("(b)"), ":");
    assert!(
        (55.0..=68.0).contains(&count_share),
        "intervals under 1 h: {count_share}%"
    );
    assert!(
        (1.0..=3.0).contains(&time_share),
        "their share of idle time: {time_share}%"
    );
}

/// The lines of `text` after the one starting with `header`, up to the
/// next blank line.
fn block<'a>(text: &'a str, header: &str) -> Vec<&'a str> {
    let block: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with(header))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .collect();
    assert!(!block.is_empty(), "no {header:?} block in {text}");
    block
}

/// The `max=` of the `1 min` and the `15 min` box-plot rows of a
/// Figure 11/12 block.
fn max_at_1_and_15_min(block: &[&str]) -> (f64, f64) {
    let max_at = |minutes: &str| {
        let row = block
            .iter()
            .find(|l| l.starts_with(&format!("{minutes} min ")))
            .unwrap_or_else(|| panic!("no {minutes} min row in {block:?}"));
        number_after(row, "max=")
    };
    (max_at("1"), max_at("15"))
}

/// Figure 11: the busiest interval holds at least as many workflows at a
/// 15-minute period as at a 1-minute one, for the proactive batches and
/// the reactive resumes alike (the paper: 29 → 406).
#[test]
fn figure_11_busiest_interval_grows_from_1_to_15_min() {
    let text = result("fig11_resume_frequency.txt");
    for header in ["proactive policy", "reactive policy"] {
        let (one, fifteen) = max_at_1_and_15_min(&block(&text, header));
        assert!(fifteen >= one, "{header}: max {one} → {fifteen}");
    }
}

/// Figure 12: the same growth for physical pauses under both policies
/// (the paper: 31 → 458), and the proactive policy pauses more often
/// than the reactive one over the measured week.
#[test]
fn figure_12_pauses_grow_with_the_interval_and_proactive_pauses_more() {
    let text = result("fig12_pause_frequency.txt");
    let mut totals = Vec::new();
    for header in ["proactive (gray)", "reactive (white)"] {
        let rows = block(&text, header);
        let (one, fifteen) = max_at_1_and_15_min(&rows);
        assert!(fifteen >= one, "{header}: max {one} → {fifteen}");
        let total = rows
            .iter()
            .find(|l| l.contains("total pauses"))
            .unwrap_or_else(|| panic!("no total in {rows:?}"));
        totals.push(number_after(total, "window:"));
    }
    assert!(
        totals[0] > totals[1],
        "proactive {} ≤ reactive {} pauses",
        totals[0],
        totals[1]
    );
}

/// Figure 9: a stricter confidence threshold trades QoS for idle time —
/// QoS, idle time and proactive resumes are all lower at c = 0.8 than at
/// c = 0.1 — and at c = 0.8 QoS falls below the reactive policy's on the
/// same region (Figure 6, EU1).
#[test]
fn figure_9_a_stricter_confidence_lowers_qos_idle_and_resumes() {
    let text = result("fig09_confidence.txt");
    let row = |c: &str| {
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("{c} ")))
            .unwrap_or_else(|| panic!("no c = {c} row in {text}"));
        cells(&line[c.len()..])
    };
    let (loose, strict) = (row("0.1"), row("0.8"));
    for (i, what) in ["QoS", "idle", "proactive resumes"].iter().enumerate() {
        assert!(strict[i] < loose[i], "{what}: {} → {}", loose[i], strict[i]);
    }
    let fig06 = result("fig06_regions.txt");
    let eu1 = fig06
        .lines()
        .find(|l| l.starts_with("EU1 "))
        .unwrap_or_else(|| panic!("no EU1 row in {fig06}"));
    let reactive_qos = cells(&eu1[4..])[0];
    assert!(
        strict[0] < reactive_qos,
        "QoS at c = 0.8 {} ≥ reactive {reactive_qos}",
        strict[0]
    );
}
