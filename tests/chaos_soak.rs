//! The deterministic chaos-soak harness (`--chaos-profile quick`).
//!
//! One coordinator under fire: two spawned worker processes (one of
//! which is killed -9 mid-sweep), a keep-alive hammer, seeded malformed
//! clients, a slow-drip slowloris, and two competing tenants — all
//! while a real sweep runs. The invariants:
//!
//! * zero panics anywhere (worker stderr is scanned, in-process threads
//!   are joined);
//! * the merged report is byte-identical to the offline CLI;
//! * every hammer request gets a real answer (200 or a loud 503);
//! * the throttled tenant sees 429 + Retry-After while the steady
//!   tenant is never throttled;
//! * the store stays inside its retention bounds under a job flood.
//!
//! Deterministic: fixed-seed SplitMix64 drives every generated byte.
//! `MPSTREAM_SOAK_REQUESTS` scales the hammer (default 2000); the test
//! prints one `SOAK ...` stats line, which CI requires to be present.

use mpstream_cluster::{Coordinator, CoordinatorOpts};
use mpstream_core::cli as core_cli;
use mpstream_core::json::parse_flat_object;
use mpstream_core::SplitMix64;
use mpstream_serve::client::{http_request, http_request_keyed, ClientOpts};
use mpstream_serve::spec::request_to_spec;
use mpstream_serve::{ServeOpts, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const STEADY_KEY: &str = "chaos-steady";
const BURSTY_KEY: &str = "chaos-bursty";

fn temp_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mpstream-chaos-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn keyed(addr: &str, method: &str, path: &str, body: &[u8], key: &str) -> (u16, String) {
    let reply = http_request_keyed(addr, method, path, body, Some(key), &ClientOpts::default())
        .unwrap_or_else(|e| panic!("{method} {path} as {key}: {e}"));
    let retry_after = reply.header("retry-after").unwrap_or("").to_string();
    (reply.status, retry_after)
}

/// Spawn `mpstream worker` joined to `addr`, stderr piped for the
/// post-mortem panic scan.
fn spawn_worker(addr: &str, dir: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_mpstream"))
        .args([
            "worker",
            "--join",
            addr,
            "--addr",
            "127.0.0.1:0",
            "--poll-ms",
            "25",
            "--quarantine-ms",
            "200",
            "--store",
        ])
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker")
}

/// Reap a worker and assert its stderr never mentions a panic.
fn assert_no_panics(tag: &str, child: Child) {
    let out = child.wait_with_output().expect("reap worker");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.to_lowercase().contains("panic"),
        "{tag} worker panicked:\n{stderr}"
    );
}

/// One HTTP/1.1 response off a keep-alive connection: `None` on a
/// closed socket, else the status code.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<u16> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).ok()? == 0 {
        return None;
    }
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some(status)
}

/// Keep-alive hammer: `total` GET /healthz over recycled connections
/// (the server caps requests per connection, so reconnects are part of
/// the exercise). Returns (ok, shed, per-request latencies in µs).
fn hammer(addr: &str, total: usize) -> (u64, u64, Vec<u64>) {
    let (mut ok, mut shed) = (0u64, 0u64);
    let mut latencies = Vec::with_capacity(total);
    let mut done = 0usize;
    while done < total {
        let Ok(conn) = TcpStream::connect(addr) else {
            continue;
        };
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // Without TCP_NODELAY the write-read ping-pong stalls ~40ms per
        // request on Nagle + delayed ACK, which would swamp the soak.
        conn.set_nodelay(true).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        loop {
            if done >= total {
                return (ok, shed, latencies);
            }
            let start = Instant::now();
            if writer
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: soak\r\n\r\n")
                .is_err()
            {
                break; // connection recycled at the cap; reconnect
            }
            match read_response(&mut reader) {
                Some(200) => {
                    latencies.push(start.elapsed().as_micros() as u64);
                    ok += 1;
                    done += 1;
                }
                Some(503) => {
                    shed += 1;
                    done += 1;
                    break; // shed closes the connection
                }
                Some(other) => panic!("hammer got {other}"),
                None => break, // clean close at the request cap
            }
        }
    }
    (ok, shed, latencies)
}

/// Seeded malformed clients: every connection gets byte soup or a
/// truncated request; each must be answered with a 4xx or closed —
/// never hung, never a 5xx, and the daemon must survive all of them.
fn malformed_clients(addr: &str, rounds: usize, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for round in 0..rounds {
        let garbage: Vec<u8> = match round % 3 {
            0 => (0..rng.gen_index(256))
                .map(|_| (rng.next_u64() & 0xff) as u8)
                .collect(),
            1 => b"POST /jobs HTTP/1.1\r\nContent-Length: 999\r\n\r\nshort".to_vec(),
            _ => b"NOT A REQUEST\r\n\r\n".to_vec(),
        };
        let Ok(mut conn) = TcpStream::connect(addr) else {
            continue;
        };
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn.write_all(&garbage).ok();
        conn.shutdown(std::net::Shutdown::Write).ok();
        let mut reply = String::new();
        let _ = conn.read_to_string(&mut reply);
        if let Some(rest) = reply.strip_prefix("HTTP/1.1 ") {
            let status: u16 = rest[..3].parse().unwrap();
            assert!(
                (400..500).contains(&status) || status == 408,
                "malformed client round {round} answered {status}: {reply:?}"
            );
        }
    }
}

/// A slowloris that drips a header then goes silent must be cut off
/// with a 408 once the total request deadline expires.
fn slow_drip_expects_408(addr: &str) {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    for b in b"X-Slow" {
        conn.write_all(&[*b]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut reply = String::new();
    let _ = conn.read_to_string(&mut reply);
    assert!(
        reply.starts_with("HTTP/1.1 408"),
        "slowloris expected 408, got {reply:?}"
    );
}

fn metric_value(metrics_text: &str, prefix: &str) -> u64 {
    metrics_text
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{prefix} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {prefix} not found:\n{metrics_text}"))
}

/// The tentpole scenario: a chaos-profile coordinator with two worker
/// processes, one of which is killed -9 mid-sweep, under a keep-alive
/// hammer, malformed clients, a slowloris, and a throttled tenant —
/// and the merged report must still be byte-identical to the offline
/// CLI.
#[test]
fn chaos_soak_cluster_survives_fire_with_identical_report() {
    let mut argv = vec!["sweep".to_string()];
    for a in [
        "--kernel",
        "copy",
        "--kernel",
        "triad",
        "--size",
        "131072",
        "--vectors",
        "1,2,4,8,16",
        "--unrolls",
        "1,2",
        "--ntimes",
        "2",
        "--jobs",
        "1",
    ] {
        argv.push(a.to_string());
    }
    let req = core_cli::parse_args(&argv).unwrap().unwrap();
    let offline = core_cli::execute(&req).unwrap();
    let total = core_cli::sweep_param_space(&req).configs().len();

    let dir = temp_dir("cluster");
    let coordinator = Coordinator::bind(CoordinatorOpts {
        serve: ServeOpts {
            addr: "127.0.0.1:0".into(),
            store_dir: dir.clone(),
            http_workers: 4,
            queue_capacity: 4,
            chaos_profile: Some("quick".into()),
            ..ServeOpts::default()
        },
        lease: Duration::from_millis(750),
        shard_points: 2,
    })
    .unwrap();
    let addr = coordinator.local_addr().unwrap().to_string();
    let handle = coordinator.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || coordinator.run());

    let doomed = spawn_worker(&addr, &dir.join("worker-doomed"));
    let survivor = spawn_worker(&addr, &dir.join("worker-survivor"));

    // Submit as the steady tenant (identified, unthrottled).
    let spec = request_to_spec(&req).unwrap();
    let reply = http_request_keyed(
        &addr,
        "POST",
        "/jobs",
        spec.as_bytes(),
        Some(STEADY_KEY),
        &ClientOpts::default(),
    )
    .unwrap();
    assert_eq!(reply.status, 202, "{}", reply.text());
    let id = parse_flat_object(reply.text().trim())
        .and_then(|o| o.get("id")?.as_u64())
        .expect("submit reply has an id");

    // Fire up the background attackers while the sweep runs.
    let soak_total: usize = std::env::var("MPSTREAM_SOAK_REQUESTS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(2000);
    let hammer_thread = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let start = Instant::now();
            let (ok, shed, latencies) = hammer(&addr, soak_total);
            (ok, shed, latencies, start.elapsed().as_millis() as u64)
        })
    };
    let malformed_thread = {
        let addr = addr.clone();
        std::thread::spawn(move || malformed_clients(&addr, 150, 0x5eed_1001))
    };

    // The bursty tenant floods past its token bucket: some requests
    // land, the rest are refused with 429 + Retry-After.
    let (mut bursty_ok, mut bursty_throttled) = (0u32, 0u32);
    for _ in 0..20 {
        let (status, retry_after) = keyed(&addr, "GET", "/jobs", b"", BURSTY_KEY);
        match status {
            200 => bursty_ok += 1,
            429 => {
                assert!(
                    retry_after.parse::<u64>().is_ok_and(|s| s >= 1),
                    "429 without a usable Retry-After: {retry_after:?}"
                );
                bursty_throttled += 1;
            }
            other => panic!("bursty flood got {other}"),
        }
    }
    assert!(bursty_ok >= 1, "the bursty tenant must land its burst");
    assert!(bursty_throttled >= 1, "the flood must trip the rate limit");

    // The steady tenant is never throttled while its neighbour floods.
    for i in 0..50 {
        let (status, _) = keyed(&addr, "GET", "/jobs", b"", STEADY_KEY);
        assert_ne!(status, 429, "steady tenant throttled on request {i}");
        assert!(
            status == 200 || status == 503,
            "steady tenant got {status} on request {i}"
        );
    }

    // The slowloris burns the whole 2s chaos deadline and gets a 408.
    slow_drip_expects_408(&addr);

    // Kill one worker -9 once the sweep has made real progress.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = http_request(&addr, "GET", &format!("/jobs/{id}"), b"").unwrap();
        let done = parse_flat_object(reply.text().trim())
            .and_then(|o| o.get("done")?.as_u64())
            .unwrap_or(0);
        if done >= 4 {
            break;
        }
        assert!(Instant::now() < deadline, "sweep never made progress");
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut doomed = doomed;
    doomed.kill().expect("kill -9 the doomed worker"); // SIGKILL on unix
    let doomed_out = doomed.wait_with_output().unwrap();
    assert!(
        !String::from_utf8_lossy(&doomed_out.stderr)
            .to_lowercase()
            .contains("panic"),
        "doomed worker panicked before the kill"
    );

    // The survivor absorbs the re-leased shards and the job completes.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = http_request(&addr, "GET", &format!("/jobs/{id}"), b"").unwrap();
        let obj = parse_flat_object(reply.text().trim()).unwrap();
        let state = obj
            .get("state")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string();
        assert_ne!(state, "failed", "job failed: {}", reply.text());
        if state == "done" {
            assert_eq!(
                obj.get("done").and_then(|v| v.as_u64()).unwrap() as usize,
                total
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "job never finished after the worker kill"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Byte-identical despite the kill, the re-leases, and the noise.
    let report = http_request(&addr, "GET", &format!("/jobs/{id}/report"), b"").unwrap();
    assert_eq!(report.status, 200);
    assert_eq!(
        report.text(),
        offline,
        "chaos-soak report differs from the offline CLI"
    );

    // Every hammer request was answered; nothing hung, nothing vanished.
    let (ok, shed, mut latencies, wall_ms) = hammer_thread.join().unwrap();
    assert_eq!(ok + shed, soak_total as u64, "hammer lost requests");
    assert!(ok > 0, "the hammer was never served");
    malformed_thread.join().unwrap();

    // The abuse is visible in /metrics, and the steady tenant's counters
    // show zero throttling.
    let metrics = http_request(&addr, "GET", "/metrics", b"").unwrap().text();
    assert!(
        metric_value(&metrics, "mpstream_http_timeouts_total") >= 1,
        "slowloris 408 not counted:\n{metrics}"
    );
    assert!(
        metrics.contains("mpstream_tenant_throttled_total{tenant=\"bursty\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mpstream_tenant_throttled_total{tenant=\"steady\"} 0"),
        "{metrics}"
    );
    // The chaos profile caps a connection at 64 requests, so a hammer
    // bigger than that must have been recycled at least once.
    if soak_total > 64 {
        let capped = metric_value(&metrics, "mpstream_conn_requests_capped_total");
        assert!(
            capped >= 1,
            "the keep-alive hammer must hit the per-connection cap:\n{metrics}"
        );
    }

    // Drain the survivor cleanly and scan both stderr streams.
    let killed = Command::new("kill")
        .args(["-TERM", &survivor.id().to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    assert_no_panics("survivor", survivor);

    handle.trigger();
    join.join().unwrap().unwrap();

    // One `key=value` stats line for the log (CI requires it).
    latencies.sort_unstable();
    let p99_us = latencies
        .get(
            latencies
                .len()
                .saturating_sub(1)
                .min(latencies.len() * 99 / 100),
        )
        .copied()
        .unwrap_or(0);
    println!(
        "SOAK requests={} ok={ok} shed={shed} p99_us={p99_us} wall_ms={wall_ms}",
        soak_total
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A flood of tiny jobs against a chaos-profile daemon must converge to
/// the retention bounds: at most `max_jobs` retained, disk under
/// `max_bytes`, the evictions counted, and the newest job still
/// fetchable while the oldest is long gone.
#[test]
fn chaos_retention_bounds_disk_under_job_flood() {
    let dir = temp_dir("retention");
    let server = Server::bind(ServeOpts {
        addr: "127.0.0.1:0".into(),
        store_dir: dir.clone(),
        http_workers: 2,
        queue_capacity: 8,
        chaos_profile: Some("quick".into()),
        ..ServeOpts::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run());

    let mut argv = vec!["sweep".to_string()];
    for a in [
        "--kernel",
        "copy",
        "--size",
        "4096",
        "--vectors",
        "1",
        "--ntimes",
        "1",
        "--jobs",
        "1",
    ] {
        argv.push(a.to_string());
    }
    let req = core_cli::parse_args(&argv).unwrap().unwrap();
    let spec = request_to_spec(&req).unwrap();

    // 24 tiny jobs through a 16-job retention bound, each run to a
    // terminal state so the post-completion retention pass can evict.
    let flood = 24u64;
    let mut last_id = 0;
    for _ in 0..flood {
        let reply = http_request(&addr, "POST", "/jobs", spec.as_bytes()).unwrap();
        assert_eq!(reply.status, 202, "{}", reply.text());
        let id = parse_flat_object(reply.text().trim())
            .and_then(|o| o.get("id")?.as_u64())
            .unwrap();
        last_id = id;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let reply = http_request(&addr, "GET", &format!("/jobs/{id}"), b"").unwrap();
            let state = parse_flat_object(reply.text().trim())
                .and_then(|o| Some(o.get("state")?.as_str()?.to_string()))
                .unwrap();
            assert_ne!(state, "failed");
            if state == "done" {
                break;
            }
            assert!(Instant::now() < deadline, "tiny job {id} never finished");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // The post-completion retention pass runs just after the final job
    // flips to done; give it a beat before holding it to the bound.
    let deadline = Instant::now() + Duration::from_secs(10);
    let metrics = loop {
        let text = http_request(&addr, "GET", "/metrics", b"").unwrap().text();
        if metric_value(&text, "mpstream_store_jobs") <= 16 || Instant::now() >= deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let retained = metric_value(&metrics, "mpstream_store_jobs");
    let evicted = metric_value(&metrics, "mpstream_store_evicted_total");
    let bytes = metric_value(&metrics, "mpstream_store_bytes");
    assert!(retained <= 16, "retention bound violated: {retained} jobs");
    assert!(evicted >= flood - 16, "too few evictions: {evicted}");
    assert!(bytes <= 1 << 20, "disk above the retention bound: {bytes}");

    // The newest job is intact; the first job was evicted and is gone.
    let newest = http_request(&addr, "GET", &format!("/jobs/{last_id}/report"), b"").unwrap();
    assert_eq!(newest.status, 200);
    let oldest = http_request(&addr, "GET", "/jobs/1", b"").unwrap();
    assert_eq!(oldest.status, 404, "evicted job must be gone");

    handle.trigger();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
