//! `urs-server`: a persistent query server over the `urs-core` engine.
//!
//! Reads newline-delimited JSON queries (grammar in `urs_core::engine`) and writes
//! one JSON response line per query, in input order.  One solver cache lives for
//! the whole process, so repeated and related queries get cheaper over time.
//!
//! ```text
//! urs-server                 # serve stdin → stdout
//! urs-server --tcp ADDR      # serve TCP connections (e.g. 127.0.0.1:7411)
//! ```
//!
//! In-flight queries are coalesced into batches of up to `MAX_BATCH` lines: a batch
//! is whatever has already arrived when the previous batch finished, so batching
//! boundaries depend on timing — but responses never do (the byte-identical replay
//! contract of `urs_server`).  `URS_THREADS` bounds the worker pool.  Lines are
//! read with `urs_server::read_bounded_line`, so an over-long line is never
//! buffered whole.  A batch's responses go out in one write
//! (`urs_server::write_batch`), and TCP connections set `TCP_NODELAY`, so a reply
//! never waits on the client's delayed ACK.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread;
// urs-analyze: allow(wall_clock, reason = "request latency metrics, reporting only; results never depend on the clock")
use std::time::Instant;

use urs_server::{read_bounded_line, write_batch, Server, MAX_BATCH};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let server = Arc::new(Server::new());
    match args.split_first() {
        None => serve_stdio(&server),
        Some((flag, rest)) if flag == "--tcp" => match rest.first() {
            Some(addr) => serve_tcp(&server, addr),
            None => usage_error("--tcp requires an address (e.g. --tcp 127.0.0.1:7411)"),
        },
        Some((flag, _)) if flag == "--help" || flag == "-h" => {
            println!("usage: urs-server [--tcp ADDR]");
            println!("  (no args)   answer newline-delimited JSON queries from stdin on stdout");
            println!("  --tcp ADDR  listen on ADDR; each connection speaks the same protocol");
        }
        Some((flag, _)) => usage_error(&format!("unknown argument `{flag}`")),
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("urs-server: {message}");
    eprintln!("usage: urs-server [--tcp ADDR]");
    std::process::exit(2);
}

fn serve_stdio(server: &Arc<Server>) {
    let (tx, rx) = std::sync::mpsc::sync_channel(MAX_BATCH * 4);
    spawn_reader(BufReader::new(std::io::stdin()), tx);
    let stdout = std::io::stdout();
    pump(server, &rx, stdout.lock());
}

fn serve_tcp(server: &Arc<Server>, addr: &str) {
    let listener = match TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(error) => {
            eprintln!("urs-server: cannot listen on {addr}: {error}");
            std::process::exit(1);
        }
    };
    if let Ok(local) = listener.local_addr() {
        // Printed (and flushed) so test harnesses binding port 0 learn the port.
        println!("listening on {local}");
        let _ = std::io::stdout().flush();
    }
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(server);
        thread::spawn(move || serve_connection(&server, stream));
    }
}

fn serve_connection(server: &Arc<Server>, stream: TcpStream) {
    // Each batch is one write, so Nagle's algorithm has nothing to coalesce; left
    // on, it would hold a reply's tail segment until the client ACKs its head.
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(reader) = stream.try_clone() else { return };
    let (tx, rx) = std::sync::mpsc::sync_channel(MAX_BATCH * 4);
    spawn_reader(BufReader::new(reader), tx);
    pump(server, &rx, stream);
}

/// Forwards lines from `reader` into the channel until EOF or a read error; the
/// sender hanging up ends the pump loop.
fn spawn_reader<R: Read + Send + 'static>(mut reader: BufReader<R>, tx: SyncSender<String>) {
    thread::spawn(move || {
        while let Ok(Some(line)) = read_bounded_line(&mut reader) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
}

/// The serve loop: block for one line, drain whatever else has already arrived
/// (up to `MAX_BATCH`), answer the batch, write it in one go, repeat.
fn pump(server: &Arc<Server>, rx: &Receiver<String>, mut out: impl Write) {
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(line) => batch.push(line),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        // urs-analyze: allow(wall_clock, reason = "batch latency measurement for the stats histogram; responses are computed before and independently of it")
        let started = Instant::now();
        let responses = server.respond_batch(&batch);
        let micros = started.elapsed().as_micros() as u64 / batch.len().max(1) as u64;
        server.metrics().record_latency(micros, batch.len() as u64);
        if write_batch(&mut out, &responses).is_err() {
            return; // client hung up
        }
    }
}
