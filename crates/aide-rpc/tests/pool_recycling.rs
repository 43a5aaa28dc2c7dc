//! Frame buffers come off the [`FramePool`] shelf, not the allocator: once
//! warm, a steady stream of round trips over one multiplexed TCP carrier
//! recycles nearly every buffer it releases.
//!
//! The pool is process-global and its counters are lifetime totals, which
//! is why this file holds one test: keep it that way.

use std::sync::Arc;
use std::time::Duration;

use aide_graph::CommParams;
use aide_rpc::{
    Dispatcher, Endpoint, EndpointConfig, FramePool, MuxConn, NetClock, Reply, Request,
    TcpMuxListener,
};
use aide_vm::ObjectId;

/// Concurrent sessions on the carrier.
const SESSIONS: usize = 4;
/// Measured calls per session.
const CALLS: u64 = 150;
/// Unmeasured calls per session that warm the shelf.
const WARMUP: u64 = 25;
/// Least share of released buffer bytes that must have come off the shelf
/// in the measured window, `recycled / (recycled + allocated)`. The pooled
/// path measured 0.9994–1.0 when the unpooled baseline was retired (share
/// 0; CHANGES.md, PR 14); a pool that stops recycling falls far below this.
const MIN_SHELF_HIT_SHARE: f64 = 0.99;

struct Sink;

impl Dispatcher for Sink {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Ok(Reply::Unit)
    }
}

/// One thread per session, each completing `calls` round trips.
fn drive(endpoints: &[(Arc<Endpoint>, Arc<Endpoint>)], calls: u64) {
    std::thread::scope(|scope| {
        for (client, _) in endpoints {
            scope.spawn(move || {
                for i in 0..calls {
                    client
                        .call(Request::FieldAccess {
                            target: ObjectId::surrogate(1),
                            bytes: 64,
                            write: false,
                        })
                        .unwrap_or_else(|e| panic!("call {i} failed: {e:?}"));
                }
            });
        }
    });
}

#[test]
fn a_warm_carrier_takes_its_frame_buffers_off_the_shelf() {
    let listener = TcpMuxListener::bind(std::net::SocketAddr::from(([127, 0, 0, 1], 0)))
        .expect("bind localhost listener");
    let transport =
        MuxConn::connect(listener.local_addr(), Duration::from_secs(2)).expect("connect");
    let conn = listener.accept().expect("accept");

    let clock = Arc::new(NetClock::new());
    let config = EndpointConfig {
        workers: 2,
        call_timeout: Duration::from_secs(10),
        ..EndpointConfig::default()
    };
    let start = |session| {
        Endpoint::start(
            session,
            CommParams::WAVELAN,
            clock.clone(),
            Arc::new(Sink),
            config,
        )
    };
    let endpoints: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let ours = transport.open_session().expect("open session");
            let theirs = conn.accept().expect("accept session");
            (start(ours), start(theirs))
        })
        .collect();

    // Warm with the window's own concurrency: the shelf must already hold
    // as many buffers as the sessions keep in flight at once.
    drive(&endpoints, WARMUP);

    let pool = FramePool::global();
    let (allocated_before, recycled_before) = (pool.allocated_bytes(), pool.recycled_bytes());
    drive(&endpoints, CALLS);
    let allocated = pool.allocated_bytes() - allocated_before;
    let recycled = pool.recycled_bytes() - recycled_before;

    for (client, server) in &endpoints {
        client.shutdown();
        server.shutdown();
    }
    for (client, server) in endpoints {
        client.join();
        server.join();
    }

    assert!(recycled > 0, "the window released no pooled buffer at all");
    let share = recycled as f64 / (recycled + allocated) as f64;
    assert!(
        share >= MIN_SHELF_HIT_SHARE,
        "shelf hit share {share:.4} ({recycled} B recycled, {allocated} B allocated over {} calls) \
         is below {MIN_SHELF_HIT_SHARE}",
        CALLS * SESSIONS as u64,
    );
}
