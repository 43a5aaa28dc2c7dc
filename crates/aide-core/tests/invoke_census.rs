//! Which remote invocations go without being waited for, on the paper's
//! five applications at the Fig 6 scale: each runs on a 6 MB client heap
//! with its surrogate over a loopback TCP carrier.
//!
//! An `Invoke` is deferred — it rides the next frame to the peer — when its
//! callee can neither call back nor write a slot (`RemoteAdapter`'s one
//! rule); every other one is waited for. The census pins both counts per
//! application, and that no deferred callee made a synchronous call, as the
//! run's report sums them over its two adapters.

use aide_apps::{all_apps, Scale};
use aide_core::{Platform, PlatformConfig, TransportKind};

/// `(application, invokes deferred, invokes waited for)`: the memory apps
/// offload and then call across; the CPU-bound two fit and call nothing.
const CENSUS: [(&str, u64, u64); 5] = [
    ("JavaNote", 38_505, 1_034),
    ("Dia", 9_366, 0),
    ("Biomer", 17_400, 0),
    ("Voxel", 0, 0),
    ("Tracer", 0, 0),
];

#[test]
fn deferred_and_waited_invokes_per_application() {
    for (app, (name, deferred, waited)) in all_apps(Scale(1.0)).into_iter().zip(CENSUS) {
        assert_eq!(app.name, name);
        let mut config = PlatformConfig::prototype(6 << 20);
        config.transport = TransportKind::Tcp;
        let report = Platform::new(app.program, config).run();
        assert!(report.outcome.is_ok(), "{name}: {:?}", report.outcome);
        let access = report.remote_access;
        let (d, w) = (access.invokes_deferred, access.invokes_waited);
        println!(
            "{name}: {d} deferred, {w} waited, {} frames",
            report.frames_exchanged
        );
        assert_eq!((d, w), (deferred, waited), "{name}: deferred, waited");
        assert_eq!(
            access.deferred_callbacks, 0,
            "{name}: a deferred callee called back"
        );
        if name == "Dia" {
            assert!(
                report.frames_exchanged < 400,
                "Dia's rescue exchanged {} frames",
                report.frames_exchanged
            );
        }
    }
}
