//! The surrogate daemon binary: serves one of the paper's application
//! models to any client that connects.
//!
//! ```text
//! aide-surrogate [--addr 127.0.0.1:9500] [--name NAME] [--app javanote]
//!                [--scale 0.05] [--heap-mb 64] [--beacon HOST:PORT]
//! ```
//!
//! Client and surrogate must agree on the program, so `--app`/`--scale`
//! here must match what the client runs.

use std::net::SocketAddr;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use aide_apps::{all_apps, Scale};
use aide_surrogate::{BeaconConfig, DaemonConfig, SurrogateDaemon};
use aide_vm::Program;

struct Options {
    addr: SocketAddr,
    name: String,
    app: String,
    scale: f64,
    heap_mb: u64,
    beacon: Option<SocketAddr>,
}

fn usage() -> ! {
    eprintln!(
        "usage: aide-surrogate [--addr HOST:PORT] [--name NAME] [--app APP] \
         [--scale F] [--heap-mb N] [--beacon HOST:PORT]"
    );
    eprintln!("  APP is one of: javanote, dia, biomer, voxel, tracer");
    exit(2);
}

fn parse_options() -> Options {
    let mut options = Options {
        addr: "127.0.0.1:9500".parse().expect("static addr"),
        name: "surrogate".to_string(),
        app: "javanote".to_string(),
        scale: 0.05,
        heap_mb: 64,
        beacon: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => options.addr = value().parse().unwrap_or_else(|_| usage()),
            "--name" => options.name = value(),
            "--app" => options.app = value(),
            "--scale" => options.scale = value().parse().unwrap_or_else(|_| usage()),
            "--heap-mb" => options.heap_mb = value().parse().unwrap_or_else(|_| usage()),
            "--beacon" => options.beacon = Some(value().parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    options
}

fn program_for(app: &str, scale: f64) -> Option<Arc<Program>> {
    all_apps(Scale(scale))
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(app))
        .map(|a| a.program)
}

fn main() {
    let options = parse_options();
    let Some(program) = program_for(&options.app, options.scale) else {
        eprintln!("unknown app {:?}", options.app);
        usage();
    };

    let mut config = DaemonConfig::new(&options.name, program);
    config.addr = options.addr;
    config.capacity_bytes = options.heap_mb << 20;
    config.beacon = options.beacon.map(|target| BeaconConfig {
        target,
        interval: Duration::from_millis(500),
    });

    match SurrogateDaemon::start(config) {
        Ok(daemon) => {
            println!(
                "aide-surrogate {:?} serving {} (scale {}) on {} ({} MiB/session)",
                options.name,
                options.app,
                options.scale,
                daemon.local_addr(),
                options.heap_mb
            );
            daemon.join();
        }
        Err(e) => {
            eprintln!("aide-surrogate: {e}");
            exit(1);
        }
    }
}
