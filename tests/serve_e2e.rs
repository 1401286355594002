//! End-to-end tests for `mpstream serve`: a submitted job's fetched
//! report must be byte-identical to the offline CLI, a daemon killed
//! mid-sweep must resume from its store to the same result set, the
//! bounded accept pool must shed (not drop) load under a soak, /metrics
//! must reflect the work, and the spawned binary must drain and exit 0
//! on SIGTERM.

use mpstream_core::checkpoint::Checkpoint;
use mpstream_core::cli as core_cli;
use mpstream_core::json::parse_flat_object;
use mpstream_serve::client::http_request;
use mpstream_serve::spec::request_to_spec;
use mpstream_serve::{ServeOpts, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mpstream-e2e-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Bind a server on a free port over `dir` and run it on a thread.
/// Returns `(addr, shutdown handle, join handle)`.
fn start_server(
    dir: &Path,
    http_workers: usize,
    queue_capacity: usize,
) -> (
    String,
    mpstream_serve::server::ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(ServeOpts {
        addr: "127.0.0.1:0".into(),
        store_dir: dir.to_path_buf(),
        http_workers,
        queue_capacity,
        ..ServeOpts::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn sweep_request(args: &[&str]) -> core_cli::CliRequest {
    let mut argv = vec!["sweep".to_string()];
    argv.extend(args.iter().map(|s| s.to_string()));
    core_cli::parse_args(&argv).unwrap().unwrap()
}

fn dse_request(args: &[&str]) -> core_cli::CliRequest {
    let mut argv = vec!["dse".to_string()];
    argv.extend(args.iter().map(|s| s.to_string()));
    core_cli::parse_args(&argv).unwrap().unwrap()
}

/// POST the job and return its id.
fn submit(addr: &str, spec: &str) -> u64 {
    let reply = http_request(addr, "POST", "/jobs", spec.as_bytes()).unwrap();
    assert_eq!(reply.status, 202, "{}", reply.text());
    parse_flat_object(reply.text().trim())
        .and_then(|o| o.get("id")?.as_u64())
        .expect("submit reply has an id")
}

/// Poll `GET /jobs/<id>` until `pred(state, done)` holds; panics after
/// the deadline. Returns the `(state, done)` that satisfied it.
fn poll_until(addr: &str, id: u64, what: &str, pred: impl Fn(&str, u64) -> bool) -> (String, u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = http_request(addr, "GET", &format!("/jobs/{id}"), b"").unwrap();
        assert_eq!(reply.status, 200, "{}", reply.text());
        let obj = parse_flat_object(reply.text().trim()).unwrap();
        let state = obj
            .get("state")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string();
        let done = obj.get("done").and_then(|v| v.as_u64()).unwrap_or(0);
        assert_ne!(state, "failed", "job failed: {}", reply.text());
        if pred(&state, done) {
            return (state, done);
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A served job's report must be the exact bytes the offline CLI
/// prints for the same flags, and /metrics must reflect the work.
#[test]
fn served_report_is_byte_identical_to_offline_cli() {
    // --jobs 1 so the build-cache column (a scheduling fact at jobs>1)
    // is deterministic across the two runs.
    let args = [
        "--kernel",
        "copy",
        "--kernel",
        "triad",
        "--size",
        "131072",
        "--vectors",
        "1,2,4,8",
        "--ntimes",
        "1",
        "--jobs",
        "1",
    ];
    let req = sweep_request(&args);
    let offline = core_cli::execute(&req).unwrap();

    let dir = temp_dir("identical");
    let (addr, handle, join) = start_server(&dir, 2, 4);

    let id = submit(&addr, &request_to_spec(&req).unwrap());
    let (_, done) = poll_until(&addr, id, "job done", |s, _| s == "done");
    assert_eq!(
        done as usize,
        core_cli::sweep_param_space(&req).configs().len()
    );

    let report = http_request(&addr, "GET", &format!("/jobs/{id}/report"), b"").unwrap();
    assert_eq!(report.status, 200);
    assert_eq!(
        report.text(),
        offline,
        "served report differs from offline CLI"
    );

    // The raw result feed pages through every checkpointed point.
    let results = http_request(&addr, "GET", &format!("/jobs/{id}/results?limit=3"), b"").unwrap();
    assert_eq!(results.status, 200);
    assert_eq!(results.header("x-count"), Some("3"));
    assert_eq!(results.header("x-total"), Some(done.to_string().as_str()));

    // Metrics reflect the job and the scrapes themselves.
    let metrics = http_request(&addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("mpstream_jobs_completed_total 1"), "{text}");
    assert!(text.contains("mpstream_points_executed_total"), "{text}");
    assert!(
        text.contains("# TYPE mpstream_http_requests_total counter"),
        "{text}"
    );

    handle.trigger();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A submitted DSE job runs the same iterative search the offline CLI
/// would: the fetched report is byte-identical, and the job's progress
/// counts the evaluated points (the budget), not the whole space.
#[test]
fn served_dse_report_is_byte_identical_to_offline_cli() {
    let args = [
        "--target",
        "aocl",
        "--kernel",
        "copy",
        "--kernel",
        "triad",
        "--size",
        "65536",
        "--vectors",
        "1,2,4,8,16",
        "--unrolls",
        "1,2,4",
        "--ntimes",
        "1",
        "--strategy",
        "model",
        "--budget",
        "9",
        "--dse-seed",
        "42",
        "--jobs",
        "1",
    ];
    let req = dse_request(&args);
    let offline = core_cli::execute(&req).unwrap();

    let dir = temp_dir("dse-identical");
    let (addr, handle, join) = start_server(&dir, 2, 4);

    let id = submit(&addr, &request_to_spec(&req).unwrap());
    let (_, done) = poll_until(&addr, id, "dse job done", |s, _| s == "done");
    assert_eq!(done, 9, "only the budgeted points were evaluated");

    let report = http_request(&addr, "GET", &format!("/jobs/{id}/report"), b"").unwrap();
    assert_eq!(report.status, 200);
    assert_eq!(
        report.text(),
        offline,
        "served dse report differs from offline CLI"
    );
    assert!(report.text().contains("pareto front"), "{}", report.text());

    let metrics = http_request(&addr, "GET", "/metrics", b"").unwrap();
    let text = metrics.text();
    assert!(text.contains("mpstream_jobs_completed_total 1"), "{text}");
    assert!(text.contains("mpstream_points_executed_total 9"), "{text}");

    handle.trigger();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill the daemon mid-sweep; a fresh daemon over the same store must
/// resume the job and finish with the same result set as an
/// uninterrupted offline run.
#[test]
fn restart_mid_sweep_resumes_to_identical_results() {
    // ~40 points x ~0.2s each (debug build): slow enough to interrupt.
    let args = [
        "--size",
        "262144",
        "--vectors",
        "1,2,4,8,16",
        "--unrolls",
        "1,2",
        "--ntimes",
        "2",
        "--jobs",
        "1",
    ];
    let req = sweep_request(&args);
    let dir = temp_dir("resume");

    let (addr, handle, join) = start_server(&dir, 2, 4);
    let id = submit(&addr, &request_to_spec(&req).unwrap());
    // Let it make real progress, then pull the plug mid-run.
    let (_, done_at_kill) = poll_until(&addr, id, "mid-run progress", |s, done| {
        s == "running" && done >= 2
    });
    handle.trigger();
    join.join().unwrap().unwrap();

    // The interrupted job is re-queued (not cancelled, not done) so a
    // restart picks it up; its finished points are already on disk.
    let (addr, handle, join) = start_server(&dir, 2, 4);
    let (_, done) = poll_until(&addr, id, "resumed job done", |s, _| s == "done");
    let total = core_cli::sweep_param_space(&req).configs().len();
    assert_eq!(done as usize, total);

    let metrics = http_request(&addr, "GET", "/metrics", b"").unwrap();
    let resumed = metrics
        .text()
        .lines()
        .find_map(|l| {
            l.strip_prefix("mpstream_points_resumed_total ")
                .map(str::to_string)
        })
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    assert!(
        resumed >= done_at_kill,
        "expected >= {done_at_kill} resumed points, metrics said {resumed}"
    );
    handle.trigger();
    join.join().unwrap().unwrap();

    // Every point in the store must match an uninterrupted offline run.
    let engine = core_cli::build_engine(&req, None);
    let offline = core_cli::run_sweep(&engine, &req, None);
    let ckpt = Checkpoint::resume(dir.join(format!("job-{id}.jsonl"))).unwrap();
    assert_eq!(offline.points.len(), total);
    for point in &offline.points {
        let stored = ckpt
            .lookup(&point.config)
            .unwrap_or_else(|| panic!("store missing {:?}", point.config));
        assert_eq!(
            stored.gbps(),
            point.gbps(),
            "bandwidth mismatch for {:?}",
            point.config
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// 1000 sequential requests all succeed; 64 concurrent clients against
/// a 2-worker pool each get either a real answer or an explicit 503
/// with Retry-After — nothing hangs, nothing is silently dropped.
#[test]
fn soak_bounded_pool_sheds_loudly_never_silently() {
    let dir = temp_dir("soak");
    let (addr, handle, join) = start_server(&dir, 2, 2);

    for i in 0..1000 {
        let reply = http_request(&addr, "GET", "/healthz", b"").unwrap();
        assert_eq!(reply.status, 200, "sequential request {i}");
    }

    let workers: Vec<_> = (0..64)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || http_request(&addr, "GET", "/healthz", b""))
        })
        .collect();
    let mut ok = 0u32;
    let mut shed = 0u32;
    for w in workers {
        let reply = w
            .join()
            .unwrap()
            .expect("no connection may be dropped without a reply");
        match reply.status {
            200 => ok += 1,
            503 => {
                assert_eq!(reply.header("retry-after"), Some("1"));
                shed += 1;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert_eq!(ok + shed, 64, "every concurrent request got an answer");
    assert!(ok > 0, "the pool served nobody");

    // Shed connections are counted, not silent.
    let metrics = http_request(&addr, "GET", "/metrics", b"").unwrap();
    let rejected = metrics
        .text()
        .lines()
        .find_map(|l| {
            l.strip_prefix("mpstream_connections_rejected_total ")
                .map(str::to_string)
        })
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap();
    assert_eq!(rejected, shed as u64, "503 count must match the metric");

    handle.trigger();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A tenant at its queue quota gets 429 + Retry-After; cancelling a
/// *queued* (never started) job releases its quota slot immediately,
/// so the very next submit is admitted. Regression test: the slot used
/// to stay held until the runner eventually skipped the cancelled job.
#[test]
fn cancelling_a_queued_job_frees_its_tenant_quota_slot() {
    use mpstream_serve::client::http_request_keyed;
    use mpstream_serve::client::ClientOpts;

    let dir = temp_dir("quota");
    std::fs::create_dir_all(&dir).unwrap();
    let tenants = dir.join("tenants.jsonl");
    std::fs::write(
        &tenants,
        "{\"name\":\"acme\",\"key\":\"acme-secret\",\"queue_quota\":2}\n",
    )
    .unwrap();
    let server = Server::bind(ServeOpts {
        addr: "127.0.0.1:0".into(),
        store_dir: dir.join("store"),
        http_workers: 2,
        queue_capacity: 8,
        tenants_file: Some(tenants),
        ..ServeOpts::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run());
    let keyed = |method: &str, path: &str, body: &[u8]| {
        http_request_keyed(
            &addr,
            method,
            path,
            body,
            Some("acme-secret"),
            &ClientOpts::default(),
        )
        .unwrap()
    };

    // A slow sweep (job A runs on the single runner thread) plus a
    // queued job B fill the quota of 2.
    let slow = request_to_spec(&sweep_request(&[
        "--size",
        "262144",
        "--vectors",
        "1,2,4,8,16",
        "--unrolls",
        "1,2",
        "--ntimes",
        "2",
        "--jobs",
        "1",
    ]))
    .unwrap();
    let reply = keyed("POST", "/jobs", slow.as_bytes());
    assert_eq!(reply.status, 202, "{}", reply.text());
    let reply = keyed("POST", "/jobs", slow.as_bytes());
    assert_eq!(reply.status, 202, "{}", reply.text());
    let job_b = parse_flat_object(reply.text().trim())
        .and_then(|o| o.get("id")?.as_u64())
        .unwrap();

    // Quota full: the third submit is refused loudly, with a hint.
    let reply = keyed("POST", "/jobs", slow.as_bytes());
    assert_eq!(reply.status, 429, "{}", reply.text());
    assert!(
        reply.header("retry-after").is_some(),
        "429 must carry Retry-After"
    );

    // An unknown key is 401, never silently demoted to anonymous.
    let reply = http_request_keyed(
        &addr,
        "POST",
        "/jobs",
        slow.as_bytes(),
        Some("wrong-key"),
        &ClientOpts::default(),
    )
    .unwrap();
    assert_eq!(reply.status, 401, "{}", reply.text());

    // Cancel the queued job: its slot must free without waiting for
    // the runner to reach it (job A is still hogging the runner).
    let reply = keyed("POST", &format!("/jobs/{job_b}/cancel"), b"");
    assert_eq!(reply.status, 200, "{}", reply.text());
    let reply = keyed("POST", "/jobs", slow.as_bytes());
    assert_eq!(
        reply.status,
        202,
        "cancelled queued job must release its quota slot immediately: {}",
        reply.text()
    );

    // Per-tenant counters surface in /metrics.
    let metrics = http_request(&addr, "GET", "/metrics", b"").unwrap().text();
    assert!(
        metrics.contains("mpstream_tenant_quota_rejected_total{tenant=\"acme\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mpstream_tenant_jobs_submitted_total{tenant=\"acme\"} 3"),
        "{metrics}"
    );

    handle.trigger();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Open `GET /jobs/<id>/stream` and drain it to the final status line.
/// Returns `(record lines in arrival order, status line)`; heartbeat
/// comments are skipped.
fn drain_stream(addr: &str, id: u64, api_key: Option<&str>) -> (Vec<String>, String) {
    read_stream(open_stream(addr, id, api_key))
}

/// Open `GET /jobs/<id>/stream`, panicking on a refusal.
fn open_stream(addr: &str, id: u64, api_key: Option<&str>) -> mpstream_serve::client::StreamReader {
    use mpstream_serve::client::{http_stream_keyed, ClientOpts, StreamReply};

    let reply = http_stream_keyed(
        addr,
        &format!("/jobs/{id}/stream"),
        api_key,
        &ClientOpts::default(),
    )
    .unwrap();
    match reply {
        StreamReply::Open(r) => r,
        StreamReply::Refused(r) => panic!("stream refused: {} {}", r.status, r.text()),
    }
}

/// Read an open stream to its terminator, as [`drain_stream`] does.
fn read_stream(mut reader: mpstream_serve::client::StreamReader) -> (Vec<String>, String) {
    let mut records = Vec::new();
    let mut status = None;
    while let Some(line) = reader.next_line().unwrap() {
        if line.starts_with(':') {
            continue; // heartbeat / diagnostic comment
        }
        let obj = parse_flat_object(&line).unwrap_or_else(|| panic!("unparseable line {line:?}"));
        if obj.contains_key("key") {
            records.push(line);
        } else if obj.contains_key("state") {
            status = Some(line);
        } else {
            panic!("stream line is neither record nor status: {line:?}");
        }
    }
    assert!(reader.finished(), "stream must end at a clean terminator");
    (records, status.expect("stream ended without a status line"))
}

/// Fetch every checkpoint record of a finished job via the paged
/// results endpoint.
fn fetch_all_results(addr: &str, id: u64) -> Vec<String> {
    let reply = http_request(
        addr,
        "GET",
        &format!("/jobs/{id}/results?limit=100000"),
        b"",
    )
    .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.text());
    let total: usize = reply.header("x-total").unwrap().parse().unwrap();
    let lines: Vec<String> = reply.text().lines().map(str::to_string).collect();
    assert_eq!(lines.len(), total, "results page did not cover the job");
    lines
}

/// The live stream must deliver exactly the records the checkpoint
/// holds — byte-identical, in append order — whether the job runs on
/// one worker or several, and whether the stream was opened before the
/// job finished (live tail) or after (pure replay).
#[test]
fn streamed_records_are_byte_identical_to_fetched_checkpoint() {
    let dir = temp_dir("stream-identity");
    let (addr, handle, join) = start_server(&dir, 2, 4);

    for jobs in ["1", "4"] {
        let req = sweep_request(&[
            "--kernel",
            "copy",
            "--kernel",
            "triad",
            "--size",
            "131072",
            "--vectors",
            "1,2,4,8",
            "--ntimes",
            "1",
            "--jobs",
            jobs,
        ]);
        let id = submit(&addr, &request_to_spec(&req).unwrap());

        // Live tail: opened while the job is queued/running.
        let (streamed, status) = drain_stream(&addr, id, None);
        let obj = parse_flat_object(&status).unwrap();
        assert_eq!(obj.get("state").and_then(|v| v.as_str()), Some("done"));
        let total = core_cli::sweep_param_space(&req).configs().len();
        assert_eq!(obj.get("done").and_then(|v| v.as_u64()), Some(total as u64));

        let fetched = fetch_all_results(&addr, id);
        assert_eq!(
            streamed, fetched,
            "--jobs {jobs}: streamed records differ from the checkpoint"
        );

        // Pure replay: opened after completion, must serve the same
        // bytes straight from disk.
        let (replayed, _) = drain_stream(&addr, id, None);
        assert_eq!(replayed, fetched, "--jobs {jobs}: replay differs");
    }

    handle.trigger();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A client that disconnects mid-stream must not cancel or wedge the
/// job: the sweep completes, the report is served, and a later stream
/// replays the full record set.
#[test]
fn stream_disconnect_mid_job_does_not_cancel_it() {
    use mpstream_serve::client::{http_stream_keyed, ClientOpts, StreamReply};

    let dir = temp_dir("stream-disconnect");
    let (addr, handle, join) = start_server(&dir, 2, 4);

    // Slow enough (debug build) that the disconnect lands mid-run.
    let req = sweep_request(&[
        "--size",
        "262144",
        "--vectors",
        "1,2,4,8,16",
        "--unrolls",
        "1,2",
        "--ntimes",
        "2",
        "--jobs",
        "1",
    ]);
    let id = submit(&addr, &request_to_spec(&req).unwrap());

    let reply = http_stream_keyed(
        &addr,
        &format!("/jobs/{id}/stream"),
        None,
        &ClientOpts::default(),
    )
    .unwrap();
    let mut reader = match reply {
        StreamReply::Open(r) => r,
        StreamReply::Refused(r) => panic!("stream refused: {}", r.status),
    };
    // Read until the first record arrives, then hang up mid-stream.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "no record before disconnect");
        match reader.next_line().unwrap() {
            Some(l) if l.starts_with(':') => continue,
            Some(_) => break,
            None => panic!("stream ended before the job finished"),
        }
    }
    drop(reader);

    let (_, done) = poll_until(&addr, id, "job survives disconnect", |s, _| s == "done");
    assert_eq!(
        done as usize,
        core_cli::sweep_param_space(&req).configs().len()
    );
    let report = http_request(&addr, "GET", &format!("/jobs/{id}/report"), b"").unwrap();
    assert_eq!(report.status, 200);

    // A later stream replays everything the checkpoint holds.
    let (replayed, _) = drain_stream(&addr, id, None);
    assert_eq!(replayed, fetch_all_results(&addr, id));

    handle.trigger();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Streams sit behind the same tenant gate as every other endpoint: an
/// unknown key is refused with 401 before any chunk is written, a known
/// key streams, an unknown job is 404, and the stream counters surface
/// in /metrics.
#[test]
fn stream_honors_tenant_auth_and_counts_itself() {
    use mpstream_serve::client::{http_stream_keyed, ClientOpts, StreamReply};

    let dir = temp_dir("stream-auth");
    std::fs::create_dir_all(&dir).unwrap();
    let tenants = dir.join("tenants.jsonl");
    std::fs::write(
        &tenants,
        "{\"name\":\"acme\",\"key\":\"acme-secret\",\"queue_quota\":4}\n",
    )
    .unwrap();
    let server = Server::bind(ServeOpts {
        addr: "127.0.0.1:0".into(),
        store_dir: dir.join("store"),
        http_workers: 2,
        queue_capacity: 4,
        tenants_file: Some(tenants),
        ..ServeOpts::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run());

    let req = sweep_request(&[
        "--kernel", "copy", "--size", "65536", "--ntimes", "1", "--jobs", "1",
    ]);
    let spec = request_to_spec(&req).unwrap();
    let reply = mpstream_serve::client::http_request_keyed(
        &addr,
        "POST",
        "/jobs",
        spec.as_bytes(),
        Some("acme-secret"),
        &ClientOpts::default(),
    )
    .unwrap();
    assert_eq!(reply.status, 202, "{}", reply.text());

    // Unknown key: refused as a plain 401 response, never a chunk.
    let refused = http_stream_keyed(
        &addr,
        "/jobs/1/stream",
        Some("wrong-key"),
        &ClientOpts::default(),
    )
    .unwrap();
    match refused {
        StreamReply::Refused(r) => assert_eq!(r.status, 401, "{}", r.text()),
        StreamReply::Open(_) => panic!("unknown key opened a stream"),
    }

    // Unknown job: 404 before any chunk.
    let missing = http_stream_keyed(
        &addr,
        "/jobs/999/stream",
        Some("acme-secret"),
        &ClientOpts::default(),
    )
    .unwrap();
    match missing {
        StreamReply::Refused(r) => assert_eq!(r.status, 404, "{}", r.text()),
        StreamReply::Open(_) => panic!("unknown job opened a stream"),
    }

    // Known key: streams to completion.
    let (records, status) = drain_stream(&addr, 1, Some("acme-secret"));
    assert!(!records.is_empty());
    assert!(status.contains("\"state\":\"done\""), "{status}");

    let metric = |name: &str| -> u64 {
        let metrics = http_request(&addr, "GET", "/metrics", b"")
            .unwrap()
            .text()
            .to_string();
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} "))?.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
    };
    assert_eq!(metric("mpstream_stream_opened_total"), 1);
    assert_eq!(
        metric("mpstream_stream_records_total"),
        records.len() as u64
    );
    assert!(metric("mpstream_http_unauthorized_total") >= 1);
    // The streamer decrements the gauge just after the terminator the
    // client saw, so allow it a moment to drain.
    let deadline = Instant::now() + Duration::from_secs(10);
    while metric("mpstream_stream_active_total") != 0 {
        assert!(Instant::now() < deadline, "active-stream gauge leaked");
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.trigger();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon on a thread whose executor holds job 1 until the test
/// releases it, then runs every job on the local engine the way the
/// daemon's own path does (checkpoint from the store, report from the
/// sweep). Returns `(addr, shutdown handle, join handle, "job 1 has
/// started", "release job 1")`.
#[allow(clippy::type_complexity)]
fn start_gated_server(
    dir: &Path,
) -> (
    String,
    mpstream_serve::server::ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
    std::sync::mpsc::Receiver<()>,
    std::sync::mpsc::Sender<()>,
) {
    use mpstream_core::CancelToken;
    use mpstream_serve::JobRecord;
    use std::sync::{mpsc::channel, Arc, Mutex};

    let server = Server::bind(ServeOpts {
        addr: "127.0.0.1:0".into(),
        store_dir: dir.to_path_buf(),
        http_workers: 2,
        queue_capacity: 4,
        ..ServeOpts::default()
    })
    .unwrap();
    let store = server.store();
    let (started_tx, started) = channel();
    let (release, release_rx) = channel();
    let gate = Mutex::new((started_tx, release_rx));
    server
        .manager()
        .set_executor(Arc::new(move |rec: &JobRecord, token: &CancelToken| {
            if rec.id == 1 {
                let gate = gate.lock().unwrap();
                gate.0.send(()).unwrap();
                let _ = gate.1.recv();
            }
            let req = mpstream_serve::spec::spec_to_request(&rec.spec)?;
            let engine = core_cli::build_engine(&req, None).with_cancel(Some(token.clone()));
            let ckpt = store.checkpoint(rec.id).map_err(|e| e.to_string())?;
            let result = core_cli::run_sweep(&engine, &req, Some(&ckpt));
            Ok((!token.is_cancelled()).then(|| core_cli::render_sweep_report(&req, &result)))
        }));
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join, started, release)
}

const TINY_SWEEP: [&str; 10] = [
    "--kernel",
    "copy",
    "--size",
    "65536",
    "--vectors",
    "1,2",
    "--ntimes",
    "1",
    "--jobs",
    "1",
];

/// A stream on a job queued behind a running one has nothing to send
/// until its job starts, so it keeps the connection alive with a
/// `: heartbeat` comment first; once the job runs, its records follow
/// and match `/results`. The running job is held by a channel until the
/// heartbeat has arrived.
#[test]
fn stream_of_a_queued_job_heartbeats_before_its_first_record() {
    let dir = temp_dir("stream-heartbeat");
    let (addr, handle, join, started, release) = start_gated_server(&dir);
    let spec = request_to_spec(&sweep_request(&TINY_SWEEP)).unwrap();
    submit(&addr, &spec);
    let queued = submit(&addr, &spec);
    started.recv().unwrap();

    let mut reader = open_stream(&addr, queued, None);
    let first = reader.next_line().unwrap();
    assert_eq!(first.as_deref(), Some(": heartbeat"), "first stream line");
    release.send(()).unwrap();
    let (records, status) = read_stream(reader);
    let obj = parse_flat_object(&status).unwrap();
    assert_eq!(obj.get("state").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(records.len(), 2);
    assert_eq!(records, fetch_all_results(&addr, queued));

    handle.trigger();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A stream open when the daemon shuts down ends cleanly: the job's
/// current, live status line, then the terminator, so the client can
/// tell "stream over" from "job over". The job is held running by a
/// channel until the stream has ended.
#[test]
fn stream_open_at_shutdown_ends_with_a_live_status_line() {
    let dir = temp_dir("stream-shutdown");
    let (addr, handle, join, started, release) = start_gated_server(&dir);
    let id = submit(
        &addr,
        &request_to_spec(&sweep_request(&TINY_SWEEP)).unwrap(),
    );
    started.recv().unwrap();

    let reader = open_stream(&addr, id, None);
    handle.trigger();
    let (records, status) = read_stream(reader);
    assert!(
        records.is_empty(),
        "the held job has no records: {records:?}"
    );
    let obj = parse_flat_object(&status).unwrap();
    assert_eq!(obj.get("state").and_then(|v| v.as_str()), Some("running"));
    assert_eq!(obj.get("id").and_then(|v| v.as_u64()), Some(id));

    release.send(()).unwrap();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The spawned `mpstream serve` binary announces its address, serves,
/// and on SIGTERM drains and exits 0.
#[test]
fn spawned_daemon_sigterm_drains_and_exits_zero() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};

    let dir = temp_dir("sigterm");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mpstream"))
        .args(["serve", "--addr", "127.0.0.1:0", "--store"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("mpstream serve: listening on ")
        .and_then(|rest| rest.split(',').next())
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let reply = http_request(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(reply.status, 200);

    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    let status = child.wait().unwrap();
    assert!(status.success(), "daemon exited {status:?} on SIGTERM");

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(
        rest.contains("drained, exiting"),
        "missing drain message: {rest:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
