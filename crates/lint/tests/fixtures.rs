//! Fixture-driven end-to-end tests: each known-bad file must be flagged
//! at the exact (rule, line) pairs listed here, the known-good and
//! known-suppressed files must pass, and the CLI must mirror those
//! outcomes in its exit code.

use std::path::PathBuf;
use std::process::Command;

use fume_lint::{lint_source, FilePolicy};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint_fixture(name: &str) -> fume_lint::LintReport {
    let src = std::fs::read_to_string(fixture_path(name)).unwrap();
    lint_source(name, &src, &FilePolicy::all())
}

fn hits(name: &str) -> Vec<(&'static str, u32)> {
    lint_fixture(name).diagnostics.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn f001_panic_paths_flagged_at_exact_lines() {
    assert_eq!(
        hits("f001_bad.rs"),
        vec![("F001", 4), ("F001", 8), ("F001", 12), ("F001", 16)],
        "unwrap/expect/panic!/unreachable! each flagged once; test module exempt"
    );
}

#[test]
fn f002_lock_unwrap_flagged_at_exact_lines() {
    assert_eq!(hits("f002_bad.rs"), vec![("F002", 6), ("F002", 10)]);
}

#[test]
fn f003_nondeterminism_flagged_at_exact_lines() {
    assert_eq!(
        hits("f003_bad.rs"),
        vec![("F003", 3), ("F003", 6), ("F003", 11)],
        "std::time import, Instant::now, and seed_from_u64"
    );
}

#[test]
fn f004_narrowing_casts_flagged_at_exact_lines() {
    assert_eq!(
        hits("f004_bad.rs"),
        vec![("F004", 4), ("F004", 8)],
        "as u32 / as u16 flagged; widening as u64 is not"
    );
}

#[test]
fn f005_float_equality_flagged_at_exact_lines() {
    assert_eq!(
        hits("f005_bad.rs"),
        vec![("F005", 4), ("F005", 8)],
        "float ==/!= flagged; integer comparison is not"
    );
}

#[test]
fn f006_thread_creation_flagged_at_exact_lines() {
    assert_eq!(hits("f006_bad.rs"), vec![("F006", 4), ("F006", 8)]);
}

#[test]
fn f007_unannotated_handle_flagged_once() {
    assert_eq!(
        hits("f007_bad.rs"),
        vec![("F007", 3)],
        "missing #[must_use] flagged; annotated and bare-suffix types pass"
    );
}

#[test]
fn f008_off_convention_obs_names_flagged_at_exact_lines() {
    assert_eq!(
        hits("f008_bad.rs"),
        vec![("F008", 4), ("F008", 8), ("F008", 12)],
        "non-literal, CamelCase, and segmentless names flagged; conventional ones pass"
    );
}

#[test]
fn f000_reasonless_suppression_flagged_and_ineffective() {
    assert_eq!(
        hits("f000_bad.rs"),
        vec![("F000", 5), ("F001", 6)],
        "a reasonless allow is itself a finding and silences nothing"
    );
}

#[test]
fn f009_unlooped_condvar_waits_flagged_at_exact_lines() {
    assert_eq!(
        hits("f009_bad.rs"),
        vec![("F009", 4), ("F009", 10)],
        "bare wait and if-guarded wait_timeout flagged; looped wait and wait_while pass"
    );
}

#[test]
fn f010_undocumented_second_lock_flagged_at_exact_line() {
    assert_eq!(
        hits("f010_bad.rs"),
        vec![("F010", 5)],
        "the second distinct receiver is the ordering obligation; repeats and computed receivers pass"
    );
}

#[test]
fn f011_atomic_orderings_flagged_at_exact_lines() {
    assert_eq!(
        hits("f011_bad.rs"),
        vec![("F011", 4), ("F011", 8)],
        "memory orderings flagged; std::cmp::Ordering variants pass"
    );
}

#[test]
fn f012_raw_sync_construction_flagged_at_exact_lines() {
    assert_eq!(
        hits("f012_bad.rs"),
        vec![("F012", 4), ("F012", 8), ("F012", 12)],
        "Mutex/Condvar/RwLock constructors flagged; type mentions and Tracked wrappers pass"
    );
}

#[test]
fn f013_fixed_temp_paths_flagged_at_exact_lines() {
    assert_eq!(
        hits("f013_bad.rs"),
        vec![("F013", 4), ("F013", 15)],
        "literal joins flagged, test scope included; the pid-suffixed path passes"
    );
}

#[test]
fn lexer_edge_cases_do_not_shift_or_invent_findings() {
    assert_eq!(
        hits("lexer_edge_bad.rs"),
        vec![("F001", 12)],
        "the only finding is the real unwrap, at its exact line — nothing from the raw string or nested comment"
    );
}

#[test]
fn good_fixture_is_clean_despite_hostile_tokens() {
    let report = lint_fixture("good.rs");
    assert!(report.clean(), "{:?}", report.diagnostics);
    assert_eq!(report.suppressed, 0);
}

#[test]
fn suppressed_fixture_is_clean_with_counted_suppressions() {
    let report = lint_fixture("suppressed.rs");
    assert!(report.clean(), "{:?}", report.diagnostics);
    assert_eq!(
        report.suppressed, 12,
        "one documented suppression per rule F001..F007 and F009..F013"
    );
}

#[test]
fn diagnostics_carry_excerpt_and_position() {
    let report = lint_fixture("f001_bad.rs");
    let d = &report.diagnostics[0];
    assert_eq!(d.path, "f001_bad.rs");
    assert_eq!((d.line, d.col), (4, 7));
    assert_eq!(d.excerpt, "x.unwrap()");
    let rendered = d.to_string();
    assert!(rendered.contains("f001_bad.rs:4:7"), "{rendered}");
    assert!(rendered.contains("F001"), "{rendered}");
}

#[test]
fn cli_exits_nonzero_on_bad_fixture_and_names_the_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_fume-lint"))
        .arg(fixture_path("f002_bad.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("F002"), "{stdout}");
    assert!(stdout.contains(":6:"), "{stdout}");
}

#[test]
fn cli_usage_error_exits_two() {
    // No inputs at all is a usage error: exit 2, distinct from findings.
    let out = Command::new(env!("CARGO_BIN_EXE_fume-lint")).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn cli_exits_zero_on_good_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_fume-lint"))
        .arg(fixture_path("good.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn cli_json_report_lists_rule_and_line() {
    let json_path = std::env::temp_dir()
        .join(format!("fume-lint-fixture-report-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_fume-lint"))
        .arg("--json")
        .arg(&json_path)
        .arg(fixture_path("f004_bad.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"F004\""), "{json}");
    assert!(json.contains("\"line\": 4") || json.contains("\"line\":4"), "{json}");
    let _ = std::fs::remove_file(&json_path);
}
