//! The MP-STREAM command-line tool — the simulated-device equivalent of
//! the paper's benchmark binary.
//!
//! ```text
//! mpstream --target aocl --kernel copy --size 4M --vector 16 --loop flat
//! mpstream sweep --target aocl --vectors 1,2,4,8,16 --unrolls 1,2 \
//!          --faults build=0.2,timeout=0.1 --checkpoint sweep.jsonl --resume
//! mpstream dse --target aocl --vectors 1,2,4,8,16 --unrolls 1,2,4 \
//!          --strategy model --budget 9 --dse-seed 42
//! mpstream serve --addr 127.0.0.1:8377 --store ./mpstream-store
//! mpstream submit --kernel triad --vectors 1,2,4,8,16
//! mpstream status 1 && mpstream fetch 1
//! mpstream watch 1
//! mpstream coordinator --addr 127.0.0.1:8377 --shard-points 4
//! mpstream worker --join 127.0.0.1:8377
//! mpstream --list-devices
//! mpstream --show-kernel --target sdaccel --loop nested
//! ```
//!
//! All parsing and execution lives in `mpstream_core::cli` (sweeps and
//! single runs), `mpstream_serve::cli` (the daemon and its clients) and
//! `mpstream_cluster::cli` (the coordinator/worker daemons), all
//! unit-tested; this binary only wires stdin/stdout/exit codes.

use mpstream_core::cli;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-devices") {
        print!("{}", cli::list_devices());
        return ExitCode::SUCCESS;
    }
    if mpstream_serve::is_serve_command(&args) {
        return match mpstream_serve::parse_serve_args(&args) {
            Ok(None) => {
                println!("{}", mpstream_serve::USAGE);
                ExitCode::SUCCESS
            }
            Ok(Some(mpstream_serve::ServeCommand::Serve(opts))) => {
                match mpstream_serve::run_server(opts) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::from(1)
                    }
                }
            }
            Ok(Some(cmd)) => match mpstream_serve::run_client(&cmd) {
                Ok(out) => {
                    print!("{out}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(1)
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n\n{}", mpstream_serve::USAGE);
                ExitCode::from(2)
            }
        };
    }
    if mpstream_cluster::is_cluster_command(&args) {
        return match mpstream_cluster::parse_cluster_args(&args) {
            Ok(None) => {
                println!("{}", mpstream_cluster::USAGE);
                ExitCode::SUCCESS
            }
            Ok(Some(cmd)) => {
                let run = match cmd {
                    mpstream_cluster::ClusterCommand::Coordinator(opts) => {
                        mpstream_cluster::run_coordinator(opts)
                    }
                    mpstream_cluster::ClusterCommand::Worker(opts) => {
                        mpstream_cluster::run_worker(opts)
                    }
                };
                match run {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::from(1)
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}\n\n{}", mpstream_cluster::USAGE);
                ExitCode::from(2)
            }
        };
    }
    match cli::parse_args(&args) {
        Ok(None) => {
            println!("{}", cli::USAGE);
            ExitCode::SUCCESS
        }
        Ok(Some(req)) => match cli::execute(&req) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            ExitCode::from(2)
        }
    }
}
