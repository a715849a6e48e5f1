//! End-to-end CLI test: a real shell script pipeline debugged through the
//! spec file, provenance TSV round-trip included.

use std::fs;
use std::path::{Path, PathBuf};

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bugdoc-cli-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A pipeline that fails exactly when the feed is acme at weekly resolution.
fn write_fixture(dir: &Path) -> (String, String) {
    let script = dir.join("run.sh");
    fs::write(
        &script,
        "#!/bin/sh\nif [ \"$BUGDOC_FEED\" = acme ] && [ \"$BUGDOC_RESOLUTION\" = weekly ]; then exit 1; fi\nexit 0\n",
    )
    .unwrap();
    // Make it executable.
    use std::os::unix::fs::PermissionsExt;
    fs::set_permissions(&script, fs::Permissions::from_mode(0o755)).unwrap();

    let spec = dir.join("pipeline.spec");
    fs::write(
        &spec,
        format!(
            "param feed categorical internal acme datastream\n\
             param resolution categorical monthly weekly daily\n\
             param window ordinal 3 6 12\n\
             command {} \n\
             eval exit_code\n\
             workers 2\n",
            script.display()
        ),
    )
    .unwrap();
    (
        spec.display().to_string(),
        dir.join("out.tsv").display().to_string(),
    )
}

#[test]
fn diagnose_finds_the_planted_cause() {
    let dir = workdir("diagnose");
    let (spec, out_tsv) = write_fixture(&dir);
    let args: Vec<String> = [
        "diagnose",
        "--spec",
        &spec,
        "--save-provenance",
        &out_tsv,
        "--seed",
        "3",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let report = bugdoc_cli::run(bugdoc_cli::parse_args(&args).unwrap()).unwrap();
    assert!(
        report.contains("feed = acme") && report.contains("resolution = weekly"),
        "report:\n{report}"
    );
    // The saved provenance parses back and contains both outcomes.
    let text = fs::read_to_string(&out_tsv).unwrap();
    assert!(text.contains("succeed") && text.contains("fail"));

    // Explain mode runs on the saved provenance without executing anything.
    let args: Vec<String> = [
        "explain",
        "--spec",
        &spec,
        "--provenance",
        &out_tsv,
        "--method",
        "exptables",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let explain = bugdoc_cli::run(bugdoc_cli::parse_args(&args).unwrap()).unwrap();
    assert!(explain.contains("exptables explanation"), "{explain}");

    let _ = fs::remove_dir_all(&dir);
}

/// With `persist_dir` in the spec, reruns warm-start from the accumulated
/// WAL: every previously executed instance is recovered (never re-executed
/// — the warm-started count equals the sum of all earlier executions), and
/// the root cause stays identical from run to run.
#[test]
fn persist_dir_warm_starts_reruns() {
    let dir = workdir("persist");
    let (spec_path, _) = write_fixture(&dir);
    // Extend the spec with persistence keywords.
    let mut spec_text = fs::read_to_string(&spec_path).unwrap();
    spec_text.push_str(&format!(
        "persist_dir {}\nsync_every 8\n",
        dir.join("prov").display()
    ));
    fs::write(&spec_path, spec_text).unwrap();

    let args: Vec<String> = ["diagnose", "--spec", &spec_path, "--seed", "3"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let new_count = |report: &str| -> usize {
        report
            .lines()
            .find(|l| l.starts_with("instances executed:"))
            .and_then(|l| l.split_whitespace().nth(2))
            .and_then(|n| n.parse().ok())
            .unwrap()
    };
    let warm_count = |report: &str| -> usize {
        report
            .lines()
            .find_map(|l| l.strip_prefix("durable provenance: "))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    };

    let cold = bugdoc_cli::run(bugdoc_cli::parse_args(&args).unwrap()).unwrap();
    assert!(
        cold.contains("feed = acme") && cold.contains("resolution = weekly"),
        "cold report:\n{cold}"
    );
    assert!(new_count(&cold) > 0);
    assert_eq!(warm_count(&cold), 0, "nothing to recover on the first run");

    // Rerun until the history saturates: every run must (a) report the same
    // root cause, (b) warm-start *exactly* the runs all earlier invocations
    // executed — the ledger `warm_started_{k+1} = warm_started_k + new_k`
    // proves nothing is ever lost or re-executed.
    let mut expected_warm = new_count(&cold);
    for round in 0..3 {
        let warm = bugdoc_cli::run(bugdoc_cli::parse_args(&args).unwrap()).unwrap();
        assert!(
            warm.contains("feed = acme") && warm.contains("resolution = weekly"),
            "round {round} report:\n{warm}"
        );
        assert_eq!(
            warm_count(&warm),
            expected_warm,
            "round {round} lost history:\n{warm}"
        );
        expected_warm += new_count(&warm);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A one-shot `diagnose` with durable provenance syncs its last appends
/// before it exits, at the default cadence (every 512 appends) too:
/// `--metrics`, rendered after that sync, counts at least one fsync. The
/// binary runs in its own process, so no other test's store adds to its
/// telemetry.
#[test]
fn one_shot_diagnose_syncs_its_last_appends() {
    let dir = workdir("exit-sync");
    let (spec_path, _) = write_fixture(&dir);
    let mut spec_text = fs::read_to_string(&spec_path).unwrap();
    spec_text.push_str(&format!("persist_dir {}\n", dir.join("prov").display()));
    fs::write(&spec_path, spec_text).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bugdoc"))
        .args(["diagnose", "--spec", &spec_path, "--seed", "3", "--metrics"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sample = |name: &str| -> u64 {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0)
    };
    let appends = sample("bugdoc_store_wal_append_ns_count");
    assert!(appends > 0, "{stdout}");
    assert!(
        sample("bugdoc_store_wal_fsync_ns_count") >= 1,
        "no fsync after {appends} appends:\n{stdout}"
    );
    let writes = sample("bugdoc_store_wal_write_ns_count");
    assert!(
        (1..=appends).contains(&writes),
        "{writes} writes for {appends} appends:\n{stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `diagnose --metrics` on the verify skill's step-1 pipeline: the bridged
/// `bugdoc_executor_new_executions_total` sample equals the new executions
/// the report's summary line gives.
#[test]
fn metrics_count_the_runs_new_executions() {
    let dir = workdir("metrics");
    let script = dir.join("run.sh");
    fs::write(
        &script,
        "#!/bin/sh\nif [ \"$1\" = \"2\" ] && [ \"$2\" = \"gb\" ]; then exit 1; fi\nexit 0\n",
    )
    .unwrap();
    use std::os::unix::fs::PermissionsExt;
    fs::set_permissions(&script, fs::Permissions::from_mode(0o755)).unwrap();
    let spec = dir.join("pipeline.spec");
    fs::write(
        &spec,
        format!(
            "param version ordinal 1 2 3\n\
             param estimator categorical lr dt gb\n\
             param dataset categorical iris digits images\n\
             command {} {{version}} {{estimator}} {{dataset}}\n\
             eval exit_code\n\
             workers 5\n",
            script.display()
        ),
    )
    .unwrap();
    let seed = dir.join("seed.tsv");
    fs::write(
        &seed,
        "version\testimator\tdataset\tscore\tevaluation\n\
         2\tgb\tiris\t-\tfail\n\
         1\tlr\tdigits\t-\tsucceed\n",
    )
    .unwrap();
    let (spec, seed) = (spec.display().to_string(), seed.display().to_string());
    let args: Vec<String> = [
        "diagnose",
        "--spec",
        &spec,
        "--provenance",
        &seed,
        "--seed",
        "3",
        "--metrics",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let report = bugdoc_cli::run(bugdoc_cli::parse_args(&args).unwrap()).unwrap();
    assert!(
        report.contains("version = 2") && report.contains("estimator = gb"),
        "report:\n{report}"
    );
    let reported: usize = report
        .lines()
        .find_map(|l| l.strip_prefix("instances executed: "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap();
    let exported: usize = report
        .lines()
        .find_map(|l| l.strip_prefix("bugdoc_executor_new_executions_total "))
        .and_then(|n| n.parse().ok())
        .unwrap();
    assert!(reported > 0, "report:\n{report}");
    assert_eq!(exported, reported, "report:\n{report}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_spec_is_reported_with_line() {
    let dir = workdir("badspec");
    let spec = dir.join("bad.spec");
    fs::write(&spec, "param x categorical onlyone\ncommand p\neval exit_code\n").unwrap();
    let args: Vec<String> = ["diagnose", "--spec", &spec.display().to_string()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let err = bugdoc_cli::run(bugdoc_cli::parse_args(&args).unwrap()).unwrap_err();
    assert!(err.contains("line 1"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

/// Contradictory evaluations of one configuration are named errors with
/// exit code 2, not panics (exit 101): two opposite rows in a provenance
/// TSV, and a `--provenance` row that contradicts the `persist_dir`
/// history. After the refused seed, a consistent one still opens the
/// directory.
#[test]
fn contradictory_evaluations_exit_2_with_a_named_error() {
    let dir = workdir("conflict");
    let (spec_path, _) = write_fixture(&dir);
    let bugdoc = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bugdoc"))
            .args(args)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let tsv = |name: &str, rows: &str| {
        let path = dir.join(name);
        fs::write(
            &path,
            format!("feed\tresolution\twindow\tscore\tevaluation\n{rows}"),
        )
        .unwrap();
        path.display().to_string()
    };

    let opposite = tsv(
        "opposite.tsv",
        "acme\tweekly\t3\t-\tfail\nacme\tweekly\t3\t-\tsucceed\n",
    );
    let (code, stderr) = bugdoc(&["diagnose", "--spec", &spec_path, "--provenance", &opposite]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.starts_with("error: line 3: "), "{stderr}");

    let mut spec_text = fs::read_to_string(&spec_path).unwrap();
    spec_text.push_str(&format!("persist_dir {}\n", dir.join("prov").display()));
    fs::write(&spec_path, spec_text).unwrap();
    let good = tsv(
        "good.tsv",
        "internal\tmonthly\t3\t-\tsucceed\nacme\tweekly\t3\t-\tfail\n",
    );
    let bad = tsv("bad.tsv", "internal\tmonthly\t3\t-\tfail\n");
    let (code, stderr) = bugdoc(&["diagnose", "--spec", &spec_path, "--provenance", &good]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = bugdoc(&["diagnose", "--spec", &spec_path, "--provenance", &bad]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.starts_with(
            "error: seed run {feed=internal, resolution=monthly, window=3} is evaluated 'fail' \
             but the persisted history records 'succeed'"
        ),
        "{stderr}"
    );
    let (code, stderr) = bugdoc(&["diagnose", "--spec", &spec_path, "--provenance", &good]);
    assert_eq!(
        code,
        Some(0),
        "the refused seed left the directory locked: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}
