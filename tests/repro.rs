//! Every reproducer file under `tests/repro/` replays as recorded. A file
//! is one line, `{"config":…,"outcome":"…"}`: a quarantined casualty of a
//! supervised sweep (`target/quarantine/*.json`) or a shrunk `simcheck`
//! failure, saved here. `supervisor::replay` parses it, validates and runs
//! the config, and compares the outcome.
//!
//! A `known_wedge_*` file records a bug's outcome as it stands today: when
//! the fix lands its replay stops matching, and the file is re-recorded
//! with the outcome the fix produces.

use incast_bursts::core_api::supervisor::replay;

#[test]
fn every_checked_in_reproducer_replays_as_recorded() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repro");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/repro")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 3, "{files:?}");
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable");
        let r = replay(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            r.reproduced(),
            "{}: recorded `{}`, replayed `{}`",
            path.display(),
            r.expected,
            r.replayed
        );
    }
}
