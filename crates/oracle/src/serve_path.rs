//! The serve-path mode: round-trip query cases through a real
//! `POST /v1/solve` over TCP and assert the HTTP response body is
//! byte-identical to what the library produces for the same request —
//! the networked service must add *nothing* to the numeric path.
//!
//! Method is pinned to `exact`: a single-rung ladder whose answer is a
//! pure function of the instance, so the server's deadline budget (which
//! the library mirror replaces with an unlimited one) cannot influence
//! the report. Each case is sent twice; the second response must hit the
//! result cache and still carry the identical body.

use crate::case::FuzzCase;
use crate::diff::Failure;
use qrel_budget::Budget;
use qrel_eval::FoQuery;
use qrel_runtime::{Method, Solver};
use qrel_serve::{protocol, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Outcome of a serve round-trip sweep.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Query cases actually round-tripped (DNF cases have no HTTP
    /// surface and are skipped).
    pub cases: u64,
    pub mismatches: Vec<Failure>,
}

pub(crate) fn post_solve(addr: SocketAddr, body: &str) -> Result<(u16, String, bool), String> {
    http_request(addr, "POST", "/v1/solve", body)
}

pub(crate) fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String, bool), String> {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    conn.write_all(raw.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut text = String::new();
    conn.read_to_string(&mut text)
        .map_err(|e| format!("recv: {e}"))?;
    let (head, resp_body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("incomplete response: {text:?}"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {head:?}"))?;
    let cache_hit = head
        .lines()
        .any(|l| l.to_ascii_lowercase().starts_with("x-qrel-cache: hit"));
    Ok((status, resp_body.to_string(), cache_hit))
}

/// Pull a `"field":<digits>` value out of a flat JSON body.
fn json_u64(body: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Pull a `"field":"<string>"` value out of a flat JSON body.
fn json_str(body: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":\"");
    let at = body.find(&needle)? + needle.len();
    Some(body[at..].split('"').next()?.to_string())
}

/// Submit `body` via `POST /v1/jobs`, poll the job to a terminal state,
/// then fetch its stored result twice — both fetches must be 200 and
/// byte-identical to `expected`. Returns the first failure found.
fn job_round_trip(
    addr: SocketAddr,
    body: &str,
    expected: &str,
    case: &FuzzCase,
) -> Option<Failure> {
    let (status, receipt, _) = match http_request(addr, "POST", "/v1/jobs", body) {
        Ok(r) => r,
        Err(e) => {
            return Some(Failure {
                check: "serve-transport".into(),
                detail: format!("{case}: job submit: {e}"),
            })
        }
    };
    if status != 202 {
        return Some(Failure {
            check: "serve-job-status".into(),
            detail: format!("{case}: job submit got HTTP {status}: {receipt}"),
        });
    }
    let Some(id) = json_u64(&receipt, "job_id") else {
        return Some(Failure {
            check: "serve-job-status".into(),
            detail: format!("{case}: job receipt has no job_id: {receipt}"),
        });
    };

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (status, snap, _) = match http_request(addr, "GET", &format!("/v1/jobs/{id}"), "") {
            Ok(r) => r,
            Err(e) => {
                return Some(Failure {
                    check: "serve-transport".into(),
                    detail: format!("{case}: job poll: {e}"),
                })
            }
        };
        if status != 200 {
            return Some(Failure {
                check: "serve-job-status".into(),
                detail: format!("{case}: job poll got HTTP {status}: {snap}"),
            });
        }
        match json_str(&snap, "state").as_deref() {
            Some("done") => break,
            Some("failed") | Some("cancelled") => {
                return Some(Failure {
                    check: "serve-job-status".into(),
                    detail: format!("{case}: job ended abnormally: {snap}"),
                })
            }
            _ if std::time::Instant::now() >= deadline => {
                return Some(Failure {
                    check: "serve-job-status".into(),
                    detail: format!("{case}: job did not finish in 30s: {snap}"),
                })
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }

    for fetch in 0..2 {
        match http_request(addr, "GET", &format!("/v1/jobs/{id}/result"), "") {
            Ok((200, got, _)) => {
                if got != expected {
                    return Some(Failure {
                        check: "serve-job-bitdiff".into(),
                        detail: format!(
                            "{case}: job result (fetch {fetch}) != library: {got} vs {expected}"
                        ),
                    });
                }
            }
            Ok((status, got, _)) => {
                return Some(Failure {
                    check: "serve-job-status".into(),
                    detail: format!("{case}: job result got HTTP {status}: {got}"),
                })
            }
            Err(e) => {
                return Some(Failure {
                    check: "serve-transport".into(),
                    detail: format!("{case}: job result: {e}"),
                })
            }
        }
    }
    None
}

/// Round-trip every query case in `cases` through an in-process server.
pub fn serve_round_trip(cases: &[FuzzCase]) -> Result<ServeReport, String> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let mut report = ServeReport {
        cases: 0,
        mismatches: Vec::new(),
    };
    for case in cases {
        let (Some(spec), Some(query)) = (&case.db, &case.query) else {
            continue;
        };
        report.cases += 1;

        // The library mirror of the server's solve path.
        let expected = (|| -> Result<String, String> {
            let ud = spec.build().map_err(|e| e.to_string())?;
            let q = FoQuery::parse(query).map_err(|e| e.to_string())?;
            let solve = Solver::new()
                .with_method(Method::Exact)
                .with_accuracy(0.05, 0.05) // the protocol's eps/delta defaults
                .with_seed(case.seed)
                .with_threads(1)
                .solve(&ud, &q, &Budget::unlimited())
                .map_err(|e| e.to_string())?;
            String::from_utf8(protocol::solve_response_body(&solve)).map_err(|e| e.to_string())
        })();
        let expected = match expected {
            Ok(b) => b,
            Err(e) => {
                report.mismatches.push(Failure {
                    check: "serve-local".into(),
                    detail: format!("{case}: library solve failed: {e}"),
                });
                continue;
            }
        };

        let body = format!(
            "{{\"db\":{},\"query\":{},\"method\":\"exact\",\"seed\":{}}}",
            serde_json::to_string(spec).map_err(|e| e.to_string())?,
            serde_json::to_string(query).map_err(|e| e.to_string())?,
            case.seed
        );

        for round in 0..2 {
            match post_solve(addr, &body) {
                Ok((200, got, cache_hit)) => {
                    if got != expected {
                        report.mismatches.push(Failure {
                            check: "serve-bitdiff".into(),
                            detail: format!(
                                "{case}: HTTP body (round {round}) != library: {got} vs {expected}"
                            ),
                        });
                        break;
                    }
                    if round == 1 && !cache_hit {
                        report.mismatches.push(Failure {
                            check: "serve-cache-miss".into(),
                            detail: format!("{case}: identical repeat request missed the cache"),
                        });
                    }
                }
                Ok((status, got, _)) => {
                    report.mismatches.push(Failure {
                        check: "serve-status".into(),
                        detail: format!("{case}: HTTP {status}: {got}"),
                    });
                    break;
                }
                Err(e) => {
                    report.mismatches.push(Failure {
                        check: "serve-transport".into(),
                        detail: format!("{case}: {e}"),
                    });
                    break;
                }
            }
        }

        // The asynchronous job path must agree byte-for-byte too. A bumped
        // seed forces a cache miss (exact reports are seed-independent, so
        // the library mirror still applies) and therefore a live scheduler
        // execution; the second pass lands on the stored result and must
        // replay the same bytes.
        let job_body = format!(
            "{{\"db\":{},\"query\":{},\"method\":\"exact\",\"seed\":{}}}",
            serde_json::to_string(spec).map_err(|e| e.to_string())?,
            serde_json::to_string(query).map_err(|e| e.to_string())?,
            case.seed.wrapping_add(1)
        );
        for _pass in 0..2 {
            if let Some(failure) = job_round_trip(addr, &job_body, &expected, case) {
                report.mismatches.push(failure);
                break;
            }
        }
    }

    handle.shutdown();
    // Nudge the accept loop so it notices the shutdown flag promptly.
    let _ = TcpStream::connect(addr);
    let _ = join.join();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn round_trip_is_bit_identical() {
        // A live server runs fault-instrumented code; keep this crate's
        // concurrently armed chaos plans out (and this test's hits out of
        // their replay counts).
        let _quiet = qrel_faults::quiesce();
        let cases: Vec<FuzzCase> = ["qf", "sjf-cq", "efo", "universal"]
            .iter()
            .enumerate()
            .map(|(i, f)| gen::generate(200 + i as u64, f))
            .collect();
        let report = serve_round_trip(&cases).unwrap();
        assert_eq!(report.cases, 4);
        assert!(report.mismatches.is_empty(), "{:#?}", report.mismatches);
    }
}
