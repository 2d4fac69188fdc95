//! The resident estimation daemon.
//!
//! Characterizes (or rather, loads the process-wide shared
//! characterization of) the standard database once, then serves
//! estimation requests over the line-delimited JSON protocol of
//! `hierbus_serve::proto` until a `shutdown` request or EOF.
//!
//! ```text
//! hierbus-serve [--workers N] [--cache N] [--cache-index PATH] [--socket PATH]
//!               [--log-level LEVEL] [--trace-dir DIR] [--metrics-file PATH]
//!               [--deadline-ms N]
//! ```
//!
//! Without `--socket`, one session runs over stdin/stdout — the mode
//! `ci.sh` smokes. With `--socket PATH` (Unix only) the daemon binds a
//! Unix domain socket and serves connections sequentially; a client's
//! EOF ends its session and the daemon accepts the next connection,
//! while a `shutdown` request drains, flushes the cache index and
//! exits the daemon.
//!
//! Diagnostics go through the leveled structured event log:
//! `--log-level` (error/warn/info/debug/trace/off, default `warn`)
//! sets both the capture threshold and the stderr mirror, so stderr is
//! quiet in the default configuration unless something is actually
//! wrong. `--trace-dir DIR` turns on request tracing (the last 32
//! requests' Perfetto traces, written by the `dump-trace` op);
//! `--metrics-file PATH` keeps a Prometheus text exposition current;
//! `--deadline-ms` arms the stall watchdog (default 30000, 0 turns it
//! off). See the README's "Operating the daemon" section and
//! `examples/serve_client.rs`.

use hierbus::harness;
use hierbus::serve::{Daemon, DaemonOptions};
use hierbus_obs::telemetry::{EventLog, Level, Value};
use std::io::BufReader;
use std::path::PathBuf;
use std::process::ExitCode;

/// Request traces retained for `dump-trace` when `--trace-dir` is set.
const TRACE_RING: usize = 32;

struct Args {
    workers: Option<usize>,
    cache: usize,
    cache_index: Option<PathBuf>,
    socket: Option<PathBuf>,
    log_level: Option<Level>,
    trace_dir: Option<PathBuf>,
    metrics_file: Option<PathBuf>,
    deadline_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workers: None,
        cache: hierbus::serve::DEFAULT_CACHE_CAPACITY,
        cache_index: None,
        socket: None,
        log_level: Some(Level::Warn),
        trace_dir: None,
        metrics_file: None,
        deadline_ms: 30_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workers" => {
                args.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--cache" => {
                args.cache = value("--cache")?
                    .parse()
                    .map_err(|e| format!("--cache: {e}"))?
            }
            "--cache-index" => args.cache_index = Some(PathBuf::from(value("--cache-index")?)),
            "--socket" => args.socket = Some(PathBuf::from(value("--socket")?)),
            "--log-level" => {
                let name = value("--log-level")?;
                args.log_level = Level::from_name(&name)
                    .ok_or(format!("--log-level: unknown level {name:?}"))?;
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value("--trace-dir")?)),
            "--metrics-file" => args.metrics_file = Some(PathBuf::from(value("--metrics-file")?)),
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: hierbus-serve [--workers N] [--cache N] \
                     [--cache-index PATH] [--socket PATH] [--log-level LEVEL] \
                     [--trace-dir DIR] [--metrics-file PATH] [--deadline-ms N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The binary's own diagnostics: a stderr-only event log at the same
/// threshold as the daemon's, so `--log-level` governs every line this
/// process prints.
fn stderr_log(level: Option<Level>) -> EventLog {
    let mut log = EventLog::disabled("hierbus-serve");
    log.set_stderr(level);
    log
}

#[cfg(unix)]
fn serve_socket(
    daemon: &Daemon,
    log: &mut EventLog,
    path: &std::path::Path,
) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    if log.wants(Level::Info) {
        log.emit(
            Level::Info,
            "listening",
            vec![("socket", Value::from(path.display().to_string()))],
        );
    }
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = BufReader::new(stream.try_clone()?);
        let summary = daemon.serve(reader, stream)?;
        if log.wants(Level::Info) {
            log.emit(
                Level::Info,
                "session.done",
                vec![
                    ("requests", Value::from(summary.requests)),
                    ("hits", Value::from(summary.cache_hits)),
                    ("misses", Value::from(summary.cache_misses)),
                ],
            );
        }
        if summary.shutdown {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let mut log = stderr_log(Some(Level::Error));
            log.emit(Level::Error, "usage", vec![("error", Value::from(e))]);
            return ExitCode::FAILURE;
        }
    };
    let mut log = stderr_log(args.log_level);
    let workers = hierbus_campaign::worker_count(args.workers);
    let daemon = Daemon::new(
        harness::shared_db(),
        DaemonOptions {
            workers,
            cache_capacity: args.cache,
            cache_index: args.cache_index,
            trace_requests: if args.trace_dir.is_some() {
                TRACE_RING
            } else {
                0
            },
            trace_dir: args.trace_dir,
            log_level: args.log_level,
            log_stderr: args.log_level,
            metrics_file: args.metrics_file,
            deadline_ms: args.deadline_ms,
        },
    );
    if log.wants(Level::Info) {
        log.emit(
            Level::Info,
            "ready",
            vec![
                ("workers", Value::from(workers)),
                ("cache", Value::from(args.cache)),
                ("db", Value::from(daemon.db_fingerprint())),
            ],
        );
    }

    let result = match &args.socket {
        None => {
            let stdin = BufReader::new(std::io::stdin());
            let stdout = std::io::stdout();
            daemon.serve(stdin, stdout).map(|summary| {
                if log.wants(Level::Info) {
                    log.emit(
                        Level::Info,
                        "session.done",
                        vec![
                            ("requests", Value::from(summary.requests)),
                            ("hits", Value::from(summary.cache_hits)),
                            ("misses", Value::from(summary.cache_misses)),
                            ("retried", Value::from(summary.retried)),
                        ],
                    );
                }
            })
        }
        Some(path) => {
            #[cfg(unix)]
            {
                serve_socket(&daemon, &mut log, path)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                log.emit(
                    Level::Error,
                    "unsupported",
                    vec![("error", Value::from("--socket requires a Unix platform"))],
                );
                return ExitCode::FAILURE;
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            log.emit(
                Level::Error,
                "fatal",
                vec![("error", Value::from(e.to_string()))],
            );
            ExitCode::FAILURE
        }
    }
}
