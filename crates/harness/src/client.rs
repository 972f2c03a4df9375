//! `hx submit` — the client side of a distributed sweep.
//!
//! Connects to an `hx serve` daemon, ships the spec source text, and
//! streams the merged rows back. Rows arrive strictly in spec order (the
//! daemon owns the commit frontier), so the output file is written
//! incrementally and is always a byte-identical prefix of the final
//! result — the same guarantee `hx sweep` gives locally.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;

use crate::job::RowFile;
use crate::proto::{read_frame, write_frame, Frame, ROLE_CLIENT};

/// Most rows reserved up front on the daemon's say-so (the paper's
/// largest sweep, Fig. 6, is 1,800); longer sweeps grow the vector.
const MAX_RESERVED_ROWS: u64 = 4096;

/// Outcome of a submitted sweep, mirroring [`crate::sched::SweepReport`].
pub struct SubmitReport {
    pub total: u64,
    pub cached: u64,
    pub executed: u64,
    pub failed: u64,
    /// Merged rows in spec order.
    pub rows: Vec<String>,
}

/// Submits spec source text (`format` is `"toml"` or `"json"`) to the
/// daemon at `addr` and blocks until the sweep completes. Rows stream to
/// `out` as they commit.
pub fn submit_text(
    addr: &str,
    spec_text: &str,
    format: &str,
    force: bool,
    out: Option<&Path>,
    progress: bool,
) -> Result<SubmitReport, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    // Rows arrive back to back: read them by the buffer, not by the frame.
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;

    write_frame(&mut writer, &crate::proto::hello(ROLE_CLIENT)).map_err(|e| e.to_string())?;
    match read_frame(&mut reader).map_err(|e| e.to_string())? {
        Some(Frame::HelloAck { .. }) => {}
        Some(Frame::Error { message }) => return Err(format!("daemon rejected us: {message}")),
        other => return Err(format!("expected HelloAck, got {other:?}")),
    }

    write_frame(
        &mut writer,
        &Frame::Submit {
            format: format.to_string(),
            force,
            spec: spec_text.to_string(),
        },
    )
    .map_err(|e| e.to_string())?;

    let (job, total, cached) = match read_frame(&mut reader).map_err(|e| e.to_string())? {
        Some(Frame::Accepted { job, total, cached }) => (job, total, cached),
        Some(Frame::Error { message }) => return Err(format!("daemon rejected spec: {message}")),
        other => return Err(format!("expected Accepted, got {other:?}")),
    };
    if progress {
        eprintln!("submit: job {job} accepted — {total} points, {cached} cached");
    }

    let mut sink = RowFile::create(out)?;

    // `total` is the daemon's word, not a bound this process may allocate
    // on: a corrupt frame must fail the read loop below, not the allocator.
    let mut rows: Vec<String> = Vec::with_capacity(total.min(MAX_RESERVED_ROWS) as usize);
    loop {
        match read_frame(&mut reader).map_err(|e| e.to_string())? {
            Some(Frame::Row { job: j, index, row }) => {
                if j != job || index != rows.len() as u64 {
                    return Err(format!(
                        "protocol violation: row {index} of job {j} arrived at offset {} of job {job}",
                        rows.len()
                    ));
                }
                sink.write(&row)?;
                rows.push(row);
            }
            Some(Frame::Done {
                job: j,
                total,
                cached,
                executed,
                failed,
            }) => {
                if j != job {
                    return Err(format!("Done for unknown job {j}"));
                }
                if rows.len() as u64 != total {
                    return Err(format!(
                        "daemon reported done after {} of {total} rows",
                        rows.len()
                    ));
                }
                return Ok(SubmitReport {
                    total,
                    cached,
                    executed,
                    failed,
                    rows,
                });
            }
            Some(Frame::Error { message }) => return Err(format!("daemon error: {message}")),
            Some(other) => return Err(format!("unexpected frame mid-job: {other:?}")),
            None => {
                return Err(format!(
                    "daemon closed the connection after {} of {total} rows",
                    rows.len()
                ))
            }
        }
    }
}
