//! The `flexagon_served` daemon binary.
//!
//! Boots a [`flexagon_serve::Server`] and blocks until a drain is
//! requested — by SIGTERM/SIGINT or by a client's `shutdown` request —
//! then finishes in-flight work and exits 0.
//!
//! ```text
//! flexagon_served [--addr 127.0.0.1:7070 | --addr unix:/run/flexagon.sock]
//!                 [--workers N] [--budget N] [--queue N] [--cache-mb N]
//!                 [--timeout-ms N] [--grain NNZ] [--shard-workers N]
//!                 [--faults panic=N,slow=N:MS,corrupt=N,stuck=N]
//! ```
//!
//! `--faults` (or the `FLEXAGON_FAULTS` environment variable, flag wins)
//! arms deterministic fault injection for chaos testing — see
//! [`flexagon_serve::fault`]. `--timeout-ms` sets the default *end-to-end*
//! deadline applied to requests that carry no `timeout_ms` of their own.

#![deny(clippy::unwrap_used)]

use flexagon_core::EngineConfig;
use flexagon_serve::fault::{FaultPlan, FaultSpec};
use flexagon_serve::{ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // std links libc; declaring `signal` avoids a libc crate dependency.
    // The handler only stores an atomic flag — async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn usage() -> ! {
    eprintln!(
        "usage: flexagon_served [--addr HOST:PORT|unix:PATH] [--workers N] \
         [--budget N] [--queue N] [--cache-mb N] [--timeout-ms N] \
         [--grain NNZ] [--shard-workers N] [--faults SPEC]"
    );
    std::process::exit(2);
}

fn parse_config() -> ServeConfig {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7070".to_owned(),
        ..ServeConfig::default()
    };
    let mut grain = 0usize;
    let mut shard_workers = 0usize;
    let mut faults: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--workers" => cfg.workers = parse_num(&value("--workers"), "--workers"),
            "--budget" => cfg.worker_budget = parse_num(&value("--budget"), "--budget"),
            "--queue" => cfg.queue_capacity = parse_num(&value("--queue"), "--queue"),
            "--cache-mb" => {
                cfg.cache_budget_bytes = parse_num::<u64>(&value("--cache-mb"), "--cache-mb") << 20;
            }
            "--timeout-ms" => {
                cfg.default_timeout_ms = parse_num(&value("--timeout-ms"), "--timeout-ms");
            }
            "--grain" => grain = parse_num(&value("--grain"), "--grain"),
            "--shard-workers" => {
                shard_workers = parse_num(&value("--shard-workers"), "--shard-workers");
            }
            "--faults" => faults = Some(value("--faults")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    if grain > 0 {
        cfg.engine = EngineConfig::default().sharded(grain, shard_workers.max(1));
    } else if shard_workers > 0 {
        eprintln!("--shard-workers needs --grain (sharding is off at grain 0)");
        usage()
    }
    // Flag wins over FLEXAGON_FAULTS so a script can override the ambient
    // environment; either way a malformed spec is a startup error, not a
    // silently-unarmed plan.
    let spec = match faults {
        Some(spec) => FaultSpec::parse(&spec).unwrap_or_else(|e| {
            eprintln!("--faults: {e}");
            usage()
        }),
        None => match std::env::var("FLEXAGON_FAULTS") {
            Ok(spec) => FaultSpec::parse(&spec).unwrap_or_else(|e| {
                eprintln!("FLEXAGON_FAULTS: {e}");
                std::process::exit(2)
            }),
            Err(_) => FaultSpec::default(),
        },
    };
    let plan = FaultPlan::new(spec);
    if plan.enabled() {
        eprintln!("flexagon_served: FAULT INJECTION ARMED: {:?}", plan.spec());
    }
    cfg.faults = std::sync::Arc::new(plan);
    cfg
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: '{s}' is not a valid number");
        usage()
    })
}

fn main() {
    let cfg = parse_config();
    install_signal_handlers();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("flexagon_served: bind failed: {e}");
            std::process::exit(1);
        }
    };
    // The banner line is the contract scripts wait on: once printed, the
    // socket accepts connections.
    println!("flexagon_served listening on {}", server.local_addr());
    loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            eprintln!("flexagon_served: signal received, draining");
            server.begin_drain();
            break;
        }
        if server.drain_requested() {
            eprintln!("flexagon_served: shutdown requested, draining");
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
    eprintln!("flexagon_served: drained, exiting");
}
