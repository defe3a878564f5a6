//! Integration tests for the `qrel` CLI binary.

use std::process::Command;

fn qrel(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_qrel"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Like [`qrel`], but exposes the raw exit code — the reliability
/// command distinguishes 0 (full guarantee), 2 (degraded), 1 (hard
/// failure).
fn qrel_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_qrel"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write_example_spec() -> tempfile_path::TempPath {
    let (ok, spec, _) = qrel(&["example-spec"]);
    assert!(ok);
    tempfile_path::write(&spec)
}

/// Minimal temp-file helper (std only).
mod tempfile_path {
    use std::path::PathBuf;

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    impl TempPath {
        pub fn as_str(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    pub fn write(contents: &str) -> TempPath {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "qrel-cli-test-{}-{:x}.json",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::write(&p, contents).unwrap();
        TempPath(p)
    }
}

#[test]
fn help_runs() {
    let (ok, stdout, _) = qrel(&["help"]);
    assert!(ok);
    assert!(stdout.contains("reliability"));
    // No args also prints help.
    let (ok2, stdout2, _) = qrel(&[]);
    assert!(ok2);
    assert!(stdout2.contains("commands"));
}

#[test]
fn example_spec_is_valid_json_and_checks() {
    let spec = write_example_spec();
    let (ok, stdout, _) = qrel(&["check", "--db", spec.as_str()]);
    assert!(ok);
    assert!(stdout.contains("spec OK"));
    assert!(stdout.contains("uncertain facts: 2"));
}

#[test]
fn exact_probability_and_reliability() {
    let spec = write_example_spec();
    let (ok, stdout, _) = qrel(&[
        "probability",
        "--db",
        spec.as_str(),
        "--query",
        "exists x y. Knows(x, y)",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Pr[𝔅 ⊨ ψ] = 1 "), "{stdout}");

    let (ok, stdout, _) = qrel(&[
        "reliability",
        "--db",
        spec.as_str(),
        "--query",
        "Knows(x, y)",
        "--method",
        "qf",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("R_ψ ="), "{stdout}");
}

#[test]
fn estimators_run_with_seeds() {
    let spec = write_example_spec();
    for method in ["fptras", "padding"] {
        let (ok, stdout, stderr) = qrel(&[
            "probability",
            "--db",
            spec.as_str(),
            "--query",
            "exists x. Admin(x)",
            "--method",
            method,
            "--eps",
            "0.1",
            "--delta",
            "0.1",
            "--seed",
            "7",
        ]);
        assert!(ok, "method {method}: {stderr}");
        assert!(stdout.contains("≈"), "method {method}: {stdout}");
    }
}

#[test]
fn worlds_listing() {
    let spec = write_example_spec();
    let (ok, stdout, _) = qrel(&["worlds", "--db", spec.as_str(), "--limit", "2"]);
    assert!(ok);
    assert!(stdout.contains("4 worlds"));
    assert!(stdout.contains("world #0"));
    assert!(!stdout.contains("world #2"), "limit respected");
}

#[test]
fn error_paths() {
    // Missing file.
    let (ok, _, stderr) = qrel(&["check", "--db", "/nonexistent.json"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
    // Unknown command.
    let (ok, _, stderr) = qrel(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    // Bad query.
    let spec = write_example_spec();
    let (ok, _, stderr) = qrel(&[
        "probability",
        "--db",
        spec.as_str(),
        "--query",
        "exists x. (",
    ]);
    assert!(!ok);
    assert!(stderr.contains("error"));
    // Free variables rejected for probability.
    let (ok, _, stderr) = qrel(&["probability", "--db", spec.as_str(), "--query", "Admin(x)"]);
    assert!(!ok);
    assert!(stderr.contains("Boolean"));
    // Bad --free spec.
    let (ok, _, stderr) = qrel(&[
        "reliability",
        "--db",
        spec.as_str(),
        "--query",
        "Admin(x)",
        "--free",
        "y",
    ]);
    assert!(!ok);
    assert!(stderr.contains("free"));
}

#[test]
fn auto_method_exact_on_small_spec_exits_zero() {
    let spec = write_example_spec();
    let (code, stdout, stderr) = qrel_code(&[
        "reliability",
        "--db",
        spec.as_str(),
        "--query",
        "exists x. Admin(x)",
        "--method",
        "auto",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("R_ψ ="), "{stdout}");
    assert!(stdout.contains("confidence: exact"), "{stdout}");
    assert!(stdout.contains("trace: tried "), "{stdout}");
}

#[test]
fn tight_budget_degrades_with_trace_and_distinct_exit_code() {
    // A self-join, so the plan rung declines; 16 uncertain facts →
    // 2^16 worlds: exact can't fit --max-worlds 100, and the sampling
    // rungs trip on --max-samples 40, so auto must fall down the
    // ladder and report a partial answer.
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/data/uncertain16.json");
    let (code, stdout, stderr) = qrel_code(&[
        "reliability",
        "--db",
        spec,
        "--query",
        "exists x y. (S(x) & S(y))",
        "--method",
        "auto",
        "--timeout-ms",
        "200",
        "--max-worlds",
        "100",
        "--max-samples",
        "40",
    ]);
    assert_eq!(code, Some(2), "{stdout}{stderr}");
    assert!(stdout.contains("R_ψ"), "{stdout}");
    assert!(stdout.contains("confidence: partial"), "{stdout}");
    assert!(stdout.contains("trace: tried "), "{stdout}");
    assert!(stdout.contains("fell back to "), "{stdout}");
}

#[test]
fn a_sharded_rung_trip_names_the_rungs_cap_and_spend() {
    // The mc rung gets half of --max-samples 1000 and draws it over 16
    // shards of ~32 samples each; its trip must read the rung's cap and
    // total spend, as the fptras step's does, not one shard's share.
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/data/uncertain16.json");
    let (code, stdout, stderr) = qrel_code(&[
        "reliability",
        "--db",
        spec,
        "--query",
        "exists x y. (S(x) & S(y))",
        "--max-worlds",
        "100",
        "--max-samples",
        "1000",
    ]);
    assert_eq!(code, Some(2), "{stdout}{stderr}");
    assert!(
        stdout.contains(
            "method: mc   confidence: partial: budget of 500 samples exhausted after 501\n"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "fell back to fptras → budget of 500 samples exhausted after 501 → \
             fell back to mc → budget of 500 samples exhausted after 501\n"
        ),
        "{stdout}"
    );
    // The exact enumerator shards its world walk the same way.
    let (code, stdout, stderr) = qrel_code(&[
        "reliability",
        "--db",
        spec,
        "--query",
        "exists x y. (S(x) & S(y))",
        "--method",
        "exact",
        "--max-worlds",
        "100",
    ]);
    assert_eq!(code, Some(2), "{stdout}{stderr}");
    assert!(
        stdout.contains("trace: tried exact → budget of 100 worlds exhausted after 101\n"),
        "{stdout}"
    );
}

#[test]
fn explicit_exact_method_stays_exact_exit_zero() {
    let spec = write_example_spec();
    let (code, stdout, stderr) = qrel_code(&[
        "reliability",
        "--db",
        spec.as_str(),
        "--query",
        "exists x y. Knows(x, y)",
        "--method",
        "exact",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("R_ψ ="), "{stdout}");
    assert!(stdout.contains("confidence: exact"), "{stdout}");
}

#[test]
fn explicit_sampling_method_with_guarantee_exits_zero() {
    // An explicitly requested sampling method that delivers its (ε, δ)
    // guarantee is the strongest answer the caller asked for: exit 0.
    let spec = write_example_spec();
    let (code, stdout, stderr) = qrel_code(&[
        "reliability",
        "--db",
        spec.as_str(),
        "--query",
        "exists x. Admin(x)",
        "--method",
        "mc",
        "--eps",
        "0.2",
        "--delta",
        "0.1",
        "--seed",
        "7",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("R_ψ ≈"), "{stdout}");
}

#[test]
fn bad_method_is_a_hard_failure_exit_one() {
    let spec = write_example_spec();
    let (code, _, stderr) = qrel_code(&[
        "reliability",
        "--db",
        spec.as_str(),
        "--query",
        "exists x. Admin(x)",
        "--method",
        "bogus",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown method"), "{stderr}");
}

#[test]
fn out_of_range_accuracy_is_a_hard_failure_exit_one() {
    let spec = write_example_spec();
    let query = ["--db", spec.as_str(), "--query", "exists x. Admin(x)"];
    let cases: [(&str, &[&str], &str); 6] = [
        ("reliability", &["--eps", "0"], "--eps"),
        ("reliability", &["--eps", "inf"], "--eps"),
        ("reliability", &["--delta", "1.5"], "--delta"),
        (
            "probability",
            &["--method", "fptras", "--eps", "0"],
            "--eps",
        ),
        (
            "probability",
            &["--method", "padding", "--eps", "0"],
            "--eps",
        ),
        (
            "probability",
            &["--method", "padding", "--delta", "0"],
            "--delta",
        ),
    ];
    for (command, flags, blamed) in cases {
        let mut args = vec![command];
        args.extend(query);
        args.extend(flags);
        let (code, _, stderr) = qrel_code(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(blamed), "{args:?}: {stderr}");
    }
}

#[test]
fn deterministic_with_same_seed() {
    let spec = write_example_spec();
    let run = || {
        qrel(&[
            "probability",
            "--db",
            spec.as_str(),
            "--query",
            "exists x. Admin(x)",
            "--method",
            "padding",
            "--seed",
            "42",
        ])
        .1
    };
    assert_eq!(run(), run());
}

/// Satellite of the job-API rearchitecture: the CLI's `--json` output,
/// the HTTP solve body, and the committed golden file are one wire
/// schema, byte for byte. A drift in any serializer shows up here.
#[test]
fn json_output_matches_http_solve_body_and_golden_file() {
    use std::io::{Read, Write};

    let db = concat!(env!("CARGO_MANIFEST_DIR"), "/data/example.json");
    let (code, stdout, stderr) = qrel_code(&[
        "reliability",
        "--db",
        db,
        "--query",
        "exists x. Admin(x)",
        "--method",
        "exact",
        "--json",
        "true",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let cli_body = stdout
        .strip_suffix('\n')
        .expect("--json output ends with one newline");

    // The same request over HTTP.
    let server = qrel::serve::Server::bind(qrel::serve::ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        preload: vec![std::path::PathBuf::from(db)],
        ..qrel::serve::ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    let body = r#"{"dataset":"example","query":"exists x. Admin(x)","method":"exact"}"#;
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(
        format!(
            "POST /v1/solve HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    let (head, http_body) = raw.split_once("\r\n\r\n").expect("complete response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    handle.shutdown();
    join.join().unwrap();

    assert_eq!(
        cli_body, http_body,
        "CLI --json and POST /v1/solve must emit identical bytes"
    );
    let golden = include_str!("golden/solve_example_exact.json");
    assert_eq!(cli_body, golden, "wire schema drifted from the golden file");
}

/// Satellite of the safe-plan compiler: `qrel explain` output for the
/// canonical query shapes is pinned as golden files. Any change to the
/// plan algebra, the renderer, or the decline messages shows up here.
#[test]
fn explain_plans_match_goldens() {
    let cases: &[(&str, &str, i32)] = &[
        (
            "exists x y. (S(x) & E(x, y))",
            include_str!("golden/explain_safe_chain.txt"),
            0,
        ),
        (
            "exists x y z. (E(x, y) & F(x, z))",
            include_str!("golden/explain_safe_star.txt"),
            0,
        ),
        (
            "exists x y. (S(x) & E(x, y) & T(y))",
            include_str!("golden/explain_unsafe_h0.txt"),
            2,
        ),
        (
            "S(x) & !T(y)",
            include_str!("golden/explain_qf_free.txt"),
            0,
        ),
        (
            "forall x. (S(x) | T(x))",
            include_str!("golden/explain_forall.txt"),
            0,
        ),
        (
            "exists x y. (S(x) & S(y))",
            include_str!("golden/explain_self_join.txt"),
            2,
        ),
    ];
    for (query, golden, want_code) in cases {
        let (code, stdout, stderr) = qrel_code(&["explain", "--query", query]);
        assert_eq!(code, Some(*want_code), "{query}: {stdout}{stderr}");
        assert_eq!(&stdout, golden, "explain output drifted for {query}");
    }
}

/// A solver failure in `--json` mode prints the same structured error
/// envelope the HTTP endpoints return, on stdout, with exit code 1.
#[test]
fn json_output_uses_the_error_envelope_on_failure() {
    let db = concat!(env!("CARGO_MANIFEST_DIR"), "/data/example.json");
    let (code, stdout, _) = qrel_code(&[
        "reliability",
        "--db",
        db,
        "--query",
        "exists x. Admin(x)",
        "--method",
        "qf",
        "--json",
        "true",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    let env =
        qrel::serve::ErrorEnvelope::from_body(stdout.trim_end().as_bytes()).expect("envelope");
    assert_eq!(env.code, "unprocessable");
    assert!(!env.retryable);
}

#[test]
fn store_ingest_of_an_invalid_spec_is_a_user_error_and_registers_nothing() {
    let dir = std::env::temp_dir().join(format!("qrel-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    let (ok, _, stderr) = qrel(&["store", "init", "--dir", d]);
    assert!(ok, "{stderr}");
    let (ok, spec, _) = qrel(&["example-spec"]);
    assert!(ok);
    assert!(spec.contains("\"1/10\""), "{spec}");
    let bad = tempfile_path::write(&spec.replacen("\"1/10\"", "\"3/2\"", 1));
    let (code, _, stderr) = qrel_code(&[
        "store",
        "ingest",
        "--dir",
        d,
        "--dataset",
        "ex",
        "--db",
        bad.as_str(),
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("3/2 is not a probability"), "{stderr}");
    assert!(!stderr.contains("corrupt"), "{stderr}");
    // Nothing was registered: the name is still free for a valid spec.
    let (ok, _, stderr) = qrel(&["store", "dump", "--dir", d, "--dataset", "ex"]);
    assert!(!ok);
    assert!(stderr.contains("unknown dataset"), "{stderr}");
    let good = tempfile_path::write(&spec);
    let (ok, stdout, stderr) = qrel(&[
        "store",
        "ingest",
        "--dir",
        d,
        "--dataset",
        "ex",
        "--db",
        good.as_str(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("ingested \"ex\""), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}
