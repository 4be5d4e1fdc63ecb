//! End-to-end tests of the `fume-cli` binary: real process, real CSV.

use std::process::Command;

/// A scratch directory of this test alone: tests run in parallel, so a
/// shared path would let one test truncate a file another is reading.
fn test_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fume_cli_test_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_loans_csv(test: &str) -> std::path::PathBuf {
    let path = test_dir(test).join("loans.csv");
    let mut out = String::from("age,job,sex,approved\n");
    for i in 0..1500usize {
        let age = 20 + (i * 7) % 50;
        let job = ["manual", "office", "none"][i % 3];
        let sex = if i % 2 == 0 { "f" } else { "m" };
        let approved = match (job, sex) {
            ("manual", "f") => false,
            ("manual", "m") => true,
            _ => (i / 2) % 2 == 0,
        };
        out.push_str(&format!("{age},{job},{sex},{}\n", u8::from(approved)));
    }
    std::fs::write(&path, out).unwrap();
    path
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fume-cli"))
}

fn common_args(cmd: &mut Command, csv: &std::path::Path) {
    cmd.args([
        "--data",
        csv.to_str().unwrap(),
        "--label",
        "approved",
        "--positive",
        "1",
        "--sensitive",
        "sex",
        "--privileged",
        "m",
        "--trees",
        "10",
        "--support",
        "0.05:0.4",
        "--seed",
        "3",
    ]);
}

#[test]
fn explain_prints_a_topk_table() {
    let csv = write_loans_csv("explain_prints_a_topk_table");
    let mut cmd = cli();
    cmd.arg("explain");
    common_args(&mut cmd, &csv);
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| # | Patterns | Support | Parity Reduction |"), "{stdout}");
    assert!(stdout.contains("manual") || stdout.contains("sex"), "{stdout}");
    let _ = std::fs::remove_dir_all(csv.parent().unwrap());
}

#[test]
fn slices_and_baseline_subcommands_work() {
    let csv = write_loans_csv("slices_and_baseline_subcommands_work");
    for sub in ["slices", "baseline"] {
        let mut cmd = cli();
        cmd.arg(sub);
        common_args(&mut cmd, &csv);
        let out = cmd.output().expect("binary runs");
        assert!(
            out.status.success(),
            "{sub}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(csv.parent().unwrap());
}

#[test]
fn explain_with_trace_writes_jsonl_and_profile() {
    let csv = write_loans_csv("explain_with_trace_writes_jsonl_and_profile");
    let trace = csv.with_file_name("trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let mut cmd = cli();
    cmd.arg("explain");
    common_args(&mut cmd, &csv);
    cmd.args(["--trace", trace.to_str().unwrap()]);
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wrote"), "{stderr}");
    // The per-phase profile table lands on stderr, keeping stdout clean.
    assert!(stderr.contains("fume.explain"), "{stderr}");
    assert!(stderr.contains("lattice.pruned.rule1"), "{stderr}");

    let jsonl = std::fs::read_to_string(&trace).expect("trace written");
    assert!(jsonl.lines().count() > 10);
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    assert!(jsonl.contains("\"name\":\"fume.phase.unlearn_eval\""));
    assert!(jsonl.contains("\"name\":\"forest.nodes_retrained\""));

    // FUME_TRACE is the env-var spelling of the same switch.
    let trace2 = csv.with_file_name("trace2.jsonl");
    let _ = std::fs::remove_file(&trace2);
    let mut cmd = cli();
    cmd.arg("explain");
    common_args(&mut cmd, &csv);
    cmd.env("FUME_TRACE", trace2.to_str().unwrap());
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(trace2.exists(), "FUME_TRACE must write a trace");
    let _ = std::fs::remove_dir_all(csv.parent().unwrap());
}

#[test]
fn bad_invocations_exit_nonzero_with_usage() {
    // No arguments.
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    // Unknown metric.
    let csv = write_loans_csv("bad_invocations_exit_nonzero_with_usage");
    let mut cmd = cli();
    cmd.arg("explain");
    common_args(&mut cmd, &csv);
    cmd.args(["--metric", "nope"]);
    let out = cmd.output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("equal_opportunity"));

    // Missing file.
    let out = cli()
        .args([
            "explain", "--data", "/nonexistent.csv", "--label", "l", "--positive", "1",
            "--sensitive", "s", "--privileged", "x",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Privileged value not present in the column.
    let mut cmd = cli();
    cmd.arg("explain");
    cmd.args([
        "--data",
        csv.to_str().unwrap(),
        "--label",
        "approved",
        "--positive",
        "1",
        "--sensitive",
        "sex",
        "--privileged",
        "martian",
    ]);
    let out = cmd.output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("martian"));
    let _ = std::fs::remove_dir_all(csv.parent().unwrap());
}

#[test]
fn serve_answers_ndjson_with_the_explain_report() {
    use std::io::Write;
    use std::process::Stdio;

    let csv = write_loans_csv("serve_answers_ndjson_with_the_explain_report");
    let mut cmd = cli();
    cmd.arg("explain");
    common_args(&mut cmd, &csv);
    cmd.arg("--json");
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let cli_report = String::from_utf8(out.stdout).unwrap();

    // The stats request is sent after the explain, and EOF drains the
    // engine, so both replies arrive before exit.
    let mut cmd = cli();
    cmd.arg("serve");
    common_args(&mut cmd, &csv);
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"op\":\"explain\",\"id\":\"a\"}\n{\"op\":\"stats\",\"id\":\"b\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "one reply per request, nothing else: {stdout}");
    let explain = lines.iter().find(|l| l.contains("\"id\":\"a\"")).expect("explain reply");
    assert!(
        explain.ends_with(&format!("\"report\":{}}}", cli_report.trim_end())),
        "served report differs from `explain --json`:\n{explain}\n{cli_report}"
    );
    assert!(lines.iter().any(|l| l.contains("\"id\":\"b\"")), "{stdout}");

    // Each command rejects the other's flags.
    for (sub, flag) in [
        ("serve", ["--json"].as_slice()),
        ("serve", &["--progress"]),
        ("explain", &["--workers", "2"]),
    ] {
        let mut cmd = cli();
        cmd.arg(sub);
        common_args(&mut cmd, &csv);
        cmd.args(flag);
        let out = cmd.stdin(Stdio::null()).output().unwrap();
        assert!(!out.status.success(), "{sub} {flag:?} must fail");
    }
    let _ = std::fs::remove_dir_all(csv.parent().unwrap());
}

#[test]
fn metric_flag_accepts_short_and_report_tags() {
    let csv = write_loans_csv("metric_flag_accepts_short_and_report_tags");
    let explain_json = |metric: &str| {
        let mut cmd = cli();
        cmd.arg("explain");
        common_args(&mut cmd, &csv);
        cmd.args(["--metric", metric, "--json"]);
        let out = cmd.output().expect("binary runs");
        assert!(out.status.success(), "{metric}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(explain_json("eo"), explain_json("equalized_odds"));
    let report = explain_json("equal_opportunity");
    assert!(report.contains("\"equal_opportunity\""), "{report}");
    let _ = std::fs::remove_dir_all(csv.parent().unwrap());
}
