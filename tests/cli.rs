//! End-to-end tests of the `nmcache` binary (spawned as a subprocess).

use std::process::Command;

fn nmcache() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nmcache"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = nmcache().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("fig1"));
    assert!(text.contains("trace-sim"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = nmcache().arg("frobnicate").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn zero_steps_is_a_usage_error() {
    let out = nmcache()
        .args(["schemes", "--steps", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--steps must be positive"), "{err}");
    assert!(err.contains("USAGE"), "usage hint expected: {err}");
}

#[test]
fn missing_trace_file_is_an_io_error() {
    let out = nmcache()
        .args(["trace-sim", "--trace", "/nonexistent/never.trace"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(5), "I/O errors exit with 5");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/nonexistent/never.trace"), "{err}");
    assert!(err.contains("hint:"), "usage hint expected: {err}");
}

#[test]
fn unknown_suite_is_a_usage_error_code() {
    let out = nmcache()
        .args(["decay", "--suite", "bogus"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
}

#[test]
fn impossible_geometry_is_a_study_error_code() {
    // 3 KB is not a power of two; the model layer rejects it.
    let out = nmcache()
        .args(["fit", "--l1", "3"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "study errors exit with 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
}

#[test]
fn illegal_miss_rate_grid_size_is_a_study_error_code() {
    // 3 KB is not a power of two: the miss-rate table rejects it with a
    // typed error before simulating, for a single pair and for a grid.
    let fig2 = nmcache()
        .args(["fig2", "--l1", "3", "--l2", "256", "--quick"])
        .output()
        .expect("binary runs");
    let campaign = nmcache()
        .args(["campaign", "--l1-sizes", "3", "--quick"])
        .output()
        .expect("binary runs");
    for out in [fig2, campaign] {
        assert_eq!(out.status.code(), Some(3), "study errors exit with 3");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("power of two, got 3072"), "{err}");
    }
}

#[test]
fn corrupt_binary_trace_is_a_trace_error_code() {
    let dir = std::env::temp_dir().join("nmcache-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("corrupt.bin");
    // Valid magic + version, then a truncated record.
    let mut bytes = b"NMTR".to_vec();
    bytes.push(1); // version
    bytes.extend_from_slice(&[0u8; 4]); // half a 9-byte record
    std::fs::write(&trace, &bytes).expect("trace written");
    let out = nmcache()
        .args(["trace-sim", "--trace"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4), "trace errors exit with 4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trace:"), "{err}");
    assert!(err.contains("offset"), "byte offset expected: {err}");
}

#[test]
fn fig1_writes_csv() {
    let dir = std::env::temp_dir().join("nmcache-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("fig1.csv");
    let out = nmcache()
        .args(["fig1", "--csv"])
        .arg(&csv)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Tox=10A"));
    assert!(text.contains("Vth=400mV"));
    let written = std::fs::read_to_string(&csv).expect("csv written");
    assert!(written.starts_with("series,"));
    assert!(written.lines().count() > 40);
}

#[test]
fn fit_reports_high_r_squared() {
    let out = nmcache().arg("fit").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("memory-array"));
    // Every R² cell should be ≥ 0.9x.
    assert!(text.contains("0.9"), "{text}");
}

#[test]
fn trace_sim_replays_a_file() {
    let dir = std::env::temp_dir().join("nmcache-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("t.trace");
    // A hot 4 KB set interleaved with a 32 KB sweep, one store in five:
    // the sweep overflows the 8 KB L1, which evicts dirty lines into L2.
    let mut text = String::from("# demo\n");
    for i in 0..2048u64 {
        let addr = if i % 2 == 0 {
            (i / 2 % 64) * 64
        } else {
            0x10000 + (i * 37 % 512) * 64
        };
        let kind = if i % 5 == 0 { 'W' } else { 'R' };
        text += &format!("{kind} {addr:#x}\n");
    }
    std::fs::write(&trace, text).expect("trace written");
    let out = nmcache()
        .args(["trace-sim", "--l1", "8", "--l2", "256", "--trace"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2048 references"));
    assert!(text.contains("Trace replay"));
    // references, m1, m2, global, L1 writebacks.
    let row: Vec<&str> = text
        .lines()
        .rfind(|line| !line.trim().is_empty())
        .expect("a table row")
        .split_whitespace()
        .collect();
    assert_eq!(
        row,
        ["2048", "0.7656", "0.1760", "0.13477", "293"],
        "{text}"
    );
}

#[test]
fn trace_sim_reports_malformed_traces() {
    let dir = std::env::temp_dir().join("nmcache-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("bad.trace");
    std::fs::write(&trace, "R 0x40\nBOGUS LINE\n").expect("trace written");
    let out = nmcache()
        .args(["trace-sim", "--trace"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn explore_ranks_foldings() {
    let out = nmcache()
        .args(["explore", "--l1", "32", "--steps", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Subarray foldings"));
    assert!(text.contains("mats"));
    // At least the three requested rows of numbers.
    assert!(text.lines().filter(|l| l.contains('.')).count() >= 3);
}

#[test]
fn unknown_suite_is_rejected() {
    let out = nmcache()
        .args(["decay", "--suite", "bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown suite"));
}

#[test]
fn thermal_runs_quickly_end_to_end() {
    let out = nmcache().arg("thermal").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Temperature sensitivity"));
    assert!(text.contains("gate fraction"));
}

#[test]
fn kb_size_overflow_is_a_usage_error() {
    // 2^54 + 1 KB is more bytes than a u64 holds: a usage error, not a
    // wrapped size or an arithmetic-overflow panic.
    let huge = "18014398509481985";
    let explore = nmcache()
        .args(["explore", "--l1", huge])
        .output()
        .expect("binary runs");
    let campaign = nmcache()
        .args(["campaign", "--quick", "--l1-sizes", huge])
        .output()
        .expect("binary runs");
    for (out, flag) in [(explore, "--l1"), (campaign, "--l1-sizes")] {
        assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("bad {flag} value")), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn unknown_engine_names_are_usage_errors() {
    for (args, message) in [
        (vec!["decay", "--suite", "bogus"], "unknown suite \"bogus\""),
        (
            vec!["e8", "--l3-tech", "bogus"],
            "unknown technology \"bogus\"",
        ),
        (
            vec!["campaign", "--techs", "bogus"],
            "unknown technology \"bogus\"",
        ),
        (vec!["analyze", "--rules", "D9"], "unknown rule \"D9\""),
    ] {
        let out = nmcache().args(&args).output().expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: usage errors exit with 2"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
    }
}
