//! End-to-end CLI test: a real shell script pipeline debugged through the
//! spec file, provenance TSV round-trip included.

use std::fs;
use std::path::PathBuf;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bugdoc-cli-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A pipeline that fails exactly when the feed is acme at weekly resolution.
fn write_fixture(dir: &PathBuf) -> (String, String) {
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
