//! Out-of-band metrics channel for process meshes.
//!
//! Workers push low-rate [`FrameKind::Metrics`] frames (JSON
//! [`RankMetrics`] payloads) over a dedicated Unix-domain socket to the
//! `mrpic_run` supervisor, which folds them into a
//! [`MetricsHub`]. The channel reuses the CRC-framed wire format of the
//! step-loop transport but is deliberately *not* part of the mesh: it
//! carries no step-loop traffic, every send is best-effort (a worker
//! that cannot connect, or whose push fails, just stops pushing), and a
//! corrupt frame drops the connection rather than the run.

use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;

use mrpic_obs::{MetricsHub, RankMetrics};

use crate::frame::{self, FrameKind, HEADER_LEN, TRAILER_LEN};

/// File name of the metrics socket inside the supervisor's mesh dir.
pub const METRICS_SOCK_FILE: &str = "metrics.sock";

/// Worker-side pusher: connects once, then fires one frame per sample.
///
/// Every failure path degrades to "no more metrics" — observability
/// must never take down a run.
pub struct MetricsPusher {
    stream: Option<UnixStream>,
    src: u16,
    seq: u32,
}

impl MetricsPusher {
    /// Connect to the supervisor's metrics socket. A missing or
    /// unreachable socket yields a pusher whose pushes are no-ops.
    pub fn connect(path: &Path, rank: usize) -> Self {
        let stream = match UnixStream::connect(path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!(
                    "warning: rank {rank}: metrics socket {} unreachable ({e}); \
                     metrics disabled",
                    path.display()
                );
                None
            }
        };
        Self {
            stream,
            src: rank.min(u16::MAX as usize) as u16,
            seq: 0,
        }
    }

    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Push one sample; on any write error the connection is dropped
    /// and subsequent pushes become no-ops.
    pub fn push(&mut self, m: &RankMetrics) {
        let Some(stream) = &mut self.stream else {
            return;
        };
        let Ok(payload) = serde_json::to_vec(m) else {
            return;
        };
        let buf = frame::encode(
            FrameKind::Metrics,
            0,
            self.src,
            u16::MAX,
            self.seq,
            m.step,
            &payload,
        );
        self.seq = self.seq.wrapping_add(1);
        if stream
            .write_all(&buf)
            .and_then(|()| stream.flush())
            .is_err()
        {
            self.stream = None;
        }
    }
}

/// Supervisor side: bind `dir/metrics.sock` and fold every valid
/// metrics frame into `hub` from detached background threads. Returns
/// once the listener is bound; accepting and reading never block the
/// supervisor.
pub fn spawn_metrics_listener(dir: &Path, hub: MetricsHub) -> std::io::Result<()> {
    let path = dir.join(METRICS_SOCK_FILE);
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)?;
    std::thread::Builder::new()
        .name("mrpic-metrics-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let hub = hub.clone();
                let _ = std::thread::Builder::new()
                    .name("mrpic-metrics-read".into())
                    .spawn(move || read_metrics_stream(stream, &hub));
            }
        })?;
    Ok(())
}

/// Drain one worker's metrics stream until EOF or the first bad frame.
fn read_metrics_stream(mut stream: UnixStream, hub: &MetricsHub) {
    loop {
        let mut buf = vec![0u8; HEADER_LEN];
        if stream.read_exact(&mut buf).is_err() {
            return;
        }
        let Ok(h) = frame::decode_header(&buf) else {
            return;
        };
        let mut rest = vec![0u8; h.len as usize + TRAILER_LEN];
        if stream.read_exact(&mut rest).is_err() {
            return;
        }
        let (payload, trailer) = rest.split_at(h.len as usize);
        buf.extend_from_slice(payload);
        let trailer: [u8; 4] = trailer.try_into().unwrap();
        if frame::check_crc(&buf, trailer).is_err() {
            return;
        }
        if h.kind != FrameKind::Metrics {
            continue;
        }
        if let Ok(m) = serde_json::from_slice::<RankMetrics>(&buf[HEADER_LEN..]) {
            hub.update_rank(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pusher_to_listener_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mrpic_obswire_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hub = MetricsHub::new("run");
        spawn_metrics_listener(&dir, hub.clone()).unwrap();

        let mut p = MetricsPusher::connect(&dir.join(METRICS_SOCK_FILE), 1);
        assert!(p.is_connected());
        p.push(&RankMetrics {
            rank: 1,
            step: 25,
            wire_bytes: 777,
            ..RankMetrics::default()
        });
        // The reader thread races the assertion; poll briefly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let snap = hub.snapshot();
            if let Some(r) = snap.ranks.iter().find(|r| r.rank == 1) {
                assert_eq!(r.step, 25);
                assert_eq!(r.wire_bytes, 777);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "sample never arrived");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pusher_survives_missing_socket() {
        let mut p = MetricsPusher::connect(Path::new("/nonexistent/metrics.sock"), 0);
        assert!(!p.is_connected());
        p.push(&RankMetrics::default());
    }
}
