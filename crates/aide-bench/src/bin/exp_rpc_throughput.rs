//! RPC transport throughput: what frame-buffer pooling and session
//! multiplexing cost in allocation. The same workload — several concurrent
//! sessions, each completing a fixed count of RPC round trips over real
//! localhost TCP — runs two ways: all sessions multiplexed over one
//! connection, and a connection per session.
//!
//! The quantity of record is *allocated bytes per operation*, read from
//! the [`FramePool`]'s release-time accounting (logical, not wall-clock,
//! so it is stable in CI). The binary asserts what pooling means: in the
//! measured window nearly every frame buffer comes off the shelf
//! ([`MIN_SHELF_HIT_SHARE`]), and multiplexing allocates no more per
//! operation than a connection per session ([`SHELF_DEPTH_SLACK_BYTES`]). Every point goes to
//! `BENCH_rpc.json` (JSON lines) for CI to archive.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_bench::{header, row, s};
use aide_graph::CommParams;
use aide_rpc::{
    Acceptor, Dispatcher, Endpoint, EndpointConfig, FramePool, NetClock, Reply, Request,
    TcpMuxListener, TcpTransport, Transport,
};
use aide_vm::ObjectId;

/// Concurrent sessions per point.
const SESSIONS: usize = 4;

/// Measured calls per session.
const CALLS: u64 = 150;

/// Unmeasured calls per session that warm the frame-buffer shelf.
const WARMUP: u64 = 25;

/// Least share of released buffer bytes that must have come off the shelf
/// in the measured window, `recycled / (recycled + allocated)`. The pooled
/// cells measured 0.9994–1.0 when the unpooled baseline was retired (its
/// cells allocated a flat 226 B/op, share 0; CHANGES.md, PR 14); a pool
/// that stops recycling falls far below this.
const MIN_SHELF_HIT_SHARE: f64 = 0.99;

/// What the mux cell may allocate beyond the connection-per-session cell.
/// The shelf is process-wide and the mux cell runs first: when its window
/// keeps more buffers in flight than its warm-up did, it is the cell that
/// deepens the shelf (0–261 B observed). A request and a reply buffer per
/// session (≤ 128 B each) bounds that; a mux path that allocated per
/// operation would show ≥ 54 B × 600 ops.
const SHELF_DEPTH_SLACK_BYTES: u64 = 2 * SESSIONS as u64 * 128;

struct Sink;
impl Dispatcher for Sink {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Ok(Reply::Unit)
    }
}

/// One real TCP connection: the dialing transport and the accepted
/// multiplexed carrier.
struct Carrier {
    client: Box<dyn Transport>,
    server: Box<dyn Acceptor>,
}

fn tcp_carrier() -> Carrier {
    let listener = TcpMuxListener::bind(std::net::SocketAddr::from(([127, 0, 0, 1], 0)))
        .expect("binding a localhost listener");
    let addr = listener.local_addr();
    let accepted = std::thread::spawn(move || listener.accept());
    let client =
        TcpTransport::connect(addr, Duration::from_secs(2)).expect("connecting the client");
    let server = accepted
        .join()
        .expect("accept thread panicked")
        .expect("accepting the connection");
    Carrier {
        client: Box::new(client),
        server: Box::new(server),
    }
}

struct Point {
    label: String,
    mux: bool,
    ops: u64,
    wall_seconds: f64,
    ops_per_sec: f64,
    allocated_bytes: u64,
    recycled_bytes: u64,
    bytes_per_op: f64,
    shelf_hit_share: f64,
}

fn workload() -> Request {
    Request::FieldAccess {
        target: ObjectId::surrogate(1),
        bytes: 64,
        write: false,
    }
}

/// One thread per session, each completing `calls` round trips.
fn drive(endpoints: &[(Arc<Endpoint>, Arc<Endpoint>)], calls: u64, label: &str) {
    std::thread::scope(|scope| {
        for (client, _) in endpoints {
            scope.spawn(move || {
                for i in 0..calls {
                    client
                        .call(workload())
                        .unwrap_or_else(|e| panic!("{label}: call {i} failed: {e:?}"));
                }
            });
        }
    });
}

/// Runs `SESSIONS` concurrent sessions of `CALLS` round trips each over
/// real TCP and returns the cost axes for one cell.
fn run_point(label: &str, mux: bool) -> Point {
    let pool = FramePool::global();

    let carriers: Vec<Carrier> = if mux {
        vec![tcp_carrier()]
    } else {
        (0..SESSIONS).map(|_| tcp_carrier()).collect()
    };
    let mut endpoints = Vec::new();
    let clock = Arc::new(NetClock::new());
    let config = EndpointConfig {
        workers: 2,
        call_timeout: Duration::from_secs(10),
        drain_timeout: Duration::from_millis(100),
        ..EndpointConfig::default()
    };
    for i in 0..SESSIONS {
        let carrier = if mux { &carriers[0] } else { &carriers[i] };
        let cs = carrier.client.open_session().expect("opening a session");
        let ss = carrier.server.accept().expect("accepting a session");
        let client = Endpoint::start(
            cs,
            CommParams::WAVELAN,
            clock.clone(),
            Arc::new(Sink),
            config,
        );
        let server = Endpoint::start(
            ss,
            CommParams::WAVELAN,
            clock.clone(),
            Arc::new(Sink),
            config,
        );
        endpoints.push((client, server));
    }

    // Warm the shelf (and the sockets) outside the measured window, with
    // the window's own concurrency: the shelf must already hold as many
    // buffers as the sessions keep in flight at once.
    drive(&endpoints, WARMUP, label);

    let alloc_before = pool.allocated_bytes();
    let recycled_before = pool.recycled_bytes();
    let started = Instant::now();
    drive(&endpoints, CALLS, label);
    let wall = started.elapsed().as_secs_f64();
    let allocated = pool.allocated_bytes() - alloc_before;
    let recycled = pool.recycled_bytes() - recycled_before;

    for (client, server) in &endpoints {
        client.shutdown();
        server.shutdown();
    }
    for (client, server) in endpoints {
        client.join();
        server.join();
    }

    let ops = CALLS * SESSIONS as u64;
    Point {
        label: label.to_string(),
        mux,
        ops,
        wall_seconds: wall,
        ops_per_sec: ops as f64 / wall,
        allocated_bytes: allocated,
        recycled_bytes: recycled,
        bytes_per_op: allocated as f64 / ops as f64,
        shelf_hit_share: recycled as f64 / (recycled + allocated) as f64,
    }
}

fn main() {
    header(
        "rpc transport throughput: pooled frames, multiplexed vs connection per session",
        "unified transport layer; not a paper figure — infrastructure cost accounting",
    );

    let points = [run_point("mux", true), run_point("conn-per-session", false)];

    for p in &points {
        row(
            &p.label,
            format!(
                "{} ops/s, {} B allocated/op ({} allocated, {} recycled over {} ops, \
                 shelf hit share {:.4})",
                s(p.ops_per_sec),
                s(p.bytes_per_op),
                p.allocated_bytes,
                p.recycled_bytes,
                p.ops,
                p.shelf_hit_share,
            ),
        );
    }

    let [mux, conn] = &points;
    let mut artifact = serde_json::json!({
        "kind": "summary",
        "experiment": "rpc_throughput",
        "sessions": SESSIONS,
        "calls_per_session": CALLS,
        "warmup_per_session": WARMUP,
        "pooled_mux_bytes_per_op": mux.bytes_per_op,
        "pooled_conn_bytes_per_op": conn.bytes_per_op,
        "min_shelf_hit_share": MIN_SHELF_HIT_SHARE,
    })
    .to_string();
    artifact.push('\n');
    for p in &points {
        artifact.push_str(
            &serde_json::json!({
                "kind": "point",
                "label": p.label,
                "mux": p.mux,
                "ops": p.ops,
                "wall_seconds": p.wall_seconds,
                "ops_per_sec": p.ops_per_sec,
                "allocated_bytes": p.allocated_bytes,
                "recycled_bytes": p.recycled_bytes,
                "bytes_per_op": p.bytes_per_op,
                "shelf_hit_share": p.shelf_hit_share,
            })
            .to_string(),
        );
        artifact.push('\n');
    }
    let path = "BENCH_rpc.json";
    match std::fs::write(path, artifact) {
        Ok(()) => row("artifact", path),
        Err(e) => row("artifact", format!("write failed: {e}")),
    }

    // The acceptance gate. CI runs this binary and relies on a non-zero
    // exit to catch a regression.
    for p in &points {
        assert!(
            p.shelf_hit_share >= MIN_SHELF_HIT_SHARE,
            "{}: shelf hit share {} is below {MIN_SHELF_HIT_SHARE}",
            p.label,
            p.shelf_hit_share,
        );
    }
    assert!(
        mux.allocated_bytes <= conn.allocated_bytes + SHELF_DEPTH_SLACK_BYTES,
        "mux allocated {} B/op, expected no more than conn-per-session at {} B/op \
         (+ {SHELF_DEPTH_SLACK_BYTES} B of shelf deepening over the window)",
        mux.bytes_per_op,
        conn.bytes_per_op,
    );
    row(
        "gate",
        "frames come off the shelf; mux allocates no more than conn-per-session: ok",
    );
}
