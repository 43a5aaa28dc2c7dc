//! UDP beacon: how surrogates announce themselves on the local segment.
//!
//! A surrogate daemon periodically sends a small datagram describing itself
//! (protocol magic, RPC port, advertised capacity, name); a client registry
//! listens for a bounded window and merges whatever it hears. The announce
//! *target* is configurable rather than hard-wired to the broadcast address
//! so tests (and containerised deployments, where broadcast is typically
//! filtered) can point the beacon at a specific listener; static
//! registration in [`SurrogateRegistry`](crate::SurrogateRegistry) remains
//! the fallback when no beacon is reachable at all.

use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::daemon::Stop;

/// Protocol magic leading every announcement datagram; bump on any wire
/// change.
pub const BEACON_MAGIC: &str = "AIDE1";

/// Where and how often a daemon announces itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeaconConfig {
    /// Destination of the announcement datagrams (a listener's address, or
    /// a broadcast address on networks that permit it).
    pub target: SocketAddr,
    /// Interval between announcements.
    pub interval: Duration,
}

/// One decoded surrogate announcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Announcement {
    /// Surrogate name (no whitespace; enforced by the codec).
    pub name: String,
    /// TCP port the surrogate's RPC listener is bound to. The host is the
    /// datagram's source address, which the listener reports alongside.
    pub port: u16,
    /// Advertised surrogate heap capacity in bytes.
    pub capacity_bytes: u64,
}

/// Encodes an announcement as a single datagram payload.
///
/// Layout is whitespace-separated text — `AIDE1 <port> <capacity> <name>` —
/// trivially debuggable with `tcpdump`.
pub fn encode_announcement(a: &Announcement) -> Vec<u8> {
    debug_assert!(
        !a.name.contains(char::is_whitespace),
        "surrogate names must not contain whitespace"
    );
    format!("{BEACON_MAGIC} {} {} {}", a.port, a.capacity_bytes, a.name).into_bytes()
}

/// Decodes an announcement datagram; returns `None` for anything that is
/// not a well-formed `AIDE1` announcement (beacons share ports with other
/// chatter in practice, so garbage is dropped silently).
pub fn decode_announcement(payload: &[u8]) -> Option<Announcement> {
    let text = std::str::from_utf8(payload).ok()?;
    let mut parts = text.split_whitespace();
    if parts.next()? != BEACON_MAGIC {
        return None;
    }
    let port: u16 = parts.next()?.parse().ok()?;
    let capacity_bytes: u64 = parts.next()?.parse().ok()?;
    let name = parts.next()?.to_string();
    if parts.next().is_some() {
        return None;
    }
    Some(Announcement {
        name,
        port,
        capacity_bytes,
    })
}

/// Spawns the daemon-side announcer thread: sends `announcement` to
/// `config.target` every `config.interval` until `stop` is set, which wakes
/// it.
///
/// Send errors are ignored — a beacon is best-effort by design; the
/// static-registration path covers segments where UDP never arrives.
///
/// # Errors
///
/// Returns an I/O error if the announcer's socket cannot be bound.
pub(crate) fn spawn_announcer(
    announcement: Announcement,
    config: BeaconConfig,
    stop: Arc<Stop>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    let socket = UdpSocket::bind(("0.0.0.0", 0))?;
    let payload = encode_announcement(&announcement);
    std::thread::Builder::new()
        .name("aide-beacon".into())
        .spawn(move || {
            while !stop.is_stopped() {
                let _ = socket.send_to(&payload, config.target);
                stop.sleep(config.interval);
            }
        })
}

/// Listens on `listen` for up to `wait` and returns every announcement
/// heard, paired with the datagram's source address (whose IP, combined
/// with the announced port, locates the surrogate's RPC listener).
///
/// Duplicates are returned as heard; callers merge by name.
///
/// # Errors
///
/// Returns an I/O error if the listening socket cannot be bound or
/// configured. Receive timeouts are part of normal operation, not errors.
pub fn listen_for_announcements(
    listen: SocketAddr,
    wait: Duration,
) -> std::io::Result<Vec<(SocketAddr, Announcement)>> {
    let socket = UdpSocket::bind(listen)?;
    socket.set_read_timeout(Some(Duration::from_millis(25)))?;
    let deadline = Instant::now() + wait;
    let mut heard = Vec::new();
    let mut buf = [0u8; 512];
    while Instant::now() < deadline {
        match socket.recv_from(&mut buf) {
            Ok((len, source)) => {
                if let Some(a) = decode_announcement(&buf[..len]) {
                    heard.push((source, a));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
    Ok(heard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips() {
        let a = Announcement {
            name: "porch-pc".to_string(),
            port: 9500,
            capacity_bytes: 64 << 20,
        };
        assert_eq!(decode_announcement(&encode_announcement(&a)), Some(a));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode_announcement(b""), None);
        assert_eq!(decode_announcement(b"HELLO 1 2 x"), None);
        assert_eq!(decode_announcement(b"AIDE1 notaport 2 x"), None);
        assert_eq!(decode_announcement(b"AIDE1 1 2"), None);
        assert_eq!(decode_announcement(b"AIDE1 1 2 x extra"), None);
        assert_eq!(decode_announcement(&[0xff, 0xfe, 0x00]), None);
    }

    #[test]
    fn announcer_reaches_a_listener() {
        let listen: SocketAddr = "127.0.0.1:0".parse().unwrap();
        // Bind first to learn the port, then aim the announcer at it.
        let probe = UdpSocket::bind(listen).unwrap();
        let target = probe.local_addr().unwrap();
        drop(probe);

        let stop = Arc::new(Stop::default());
        let announcement = Announcement {
            name: "s1".to_string(),
            port: 4242,
            capacity_bytes: 1 << 20,
        };
        let handle = spawn_announcer(
            announcement.clone(),
            BeaconConfig {
                target,
                interval: Duration::from_millis(20),
            },
            stop.clone(),
        )
        .unwrap();

        let heard = listen_for_announcements(target, Duration::from_millis(400)).unwrap();
        stop.stop();
        handle.join().unwrap();

        assert!(
            heard.iter().any(|(_, a)| *a == announcement),
            "expected to hear {announcement:?}, got {heard:?}"
        );
    }
}
