//! A minimal Prometheus `/metrics` endpoint.
//!
//! Deliberately not a web framework: the skeleton's accept loop
//! ([`adaflow_proto::server::accept_until`]), one thread, and just enough
//! HTTP/1.1 to satisfy a Prometheus scraper —
//! read until the blank line, answer `200 text/plain` with the current
//! registry exposition, close. Anything fancier belongs behind a real
//! reverse proxy.

use adaflow_proto::server::{accept_until, Stop};
use adaflow_telemetry::RegistrySink;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A bound metrics endpoint; serve with [`MetricsEndpoint::serve`].
pub struct MetricsEndpoint {
    listener: TcpListener,
    registry: Arc<RegistrySink>,
    stop: Arc<Stop>,
}

impl MetricsEndpoint {
    /// Binds the endpoint (port 0 for ephemeral); [`Stop::raise`] on `stop`
    /// ends [`serve`](Self::serve).
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<RegistrySink>,
        stop: Arc<Stop>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            registry,
            stop,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// I/O errors from the socket query.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves scrapes until the stop is raised. Run on its own thread;
    /// returns when stopped. A dead listener ends scraping and raises the
    /// stop itself.
    pub fn serve(&self) {
        // Scrapes are rare and cheap; handle inline.
        let _ = accept_until(&self.listener, &self.stop, |stream| {
            let _ = self.answer(stream);
        });
    }

    fn answer(&self, mut stream: std::net::TcpStream) -> std::io::Result<()> {
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        // Read until the end of the request head; the path is irrelevant —
        // every route serves the exposition.
        let mut head = Vec::with_capacity(512);
        let mut buf = [0u8; 512];
        loop {
            let n = stream.read(&mut buf)?;
            if n == 0 {
                break;
            }
            head.extend_from_slice(&buf[..n]);
            if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                break;
            }
        }
        let body = self.registry.snapshot().to_prometheus();
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(response.as_bytes())
    }
}

#[cfg(test)]
#[path = "../../telemetry/tests/support/exposition.rs"]
mod exposition;

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow_telemetry::{EventKind, RegistryConfig, SinkHandle};
    use std::net::TcpStream;

    #[test]
    fn scrape_returns_prometheus_exposition() {
        let registry = RegistrySink::new(RegistryConfig::default());
        let sink = SinkHandle::new(registry.clone());
        sink.emit(
            0.1,
            EventKind::RequestEnqueued {
                id: 1,
                device: 0,
                queue_depth: 1,
            },
        );
        sink.emit(
            0.2,
            EventKind::RequestCompleted {
                id: 1,
                latency_s: 0.1,
                deadline_met: true,
            },
        );
        let stop = Arc::new(Stop::new());
        let endpoint = MetricsEndpoint::bind("127.0.0.1:0", registry, stop.clone()).expect("binds");
        let addr = endpoint.local_addr().expect("addr");
        let server = std::thread::spawn(move || endpoint.serve());

        let mut conn = TcpStream::connect(addr).expect("connects");
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("writes");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("reads");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("text/plain"));
        let (_, body) = response.split_once("\r\n\r\n").expect("head and body");
        assert!(
            body.contains("adaflow_requests_completed_total 1\n"),
            "{body}"
        );
        assert!(body.contains("adaflow_request_latency_s{quantile=\"0.5\"}"));
        exposition::check_exposition(body).unwrap_or_else(|e| panic!("{e}\n{body}"));

        stop.raise();
        server.join().expect("joins");
    }
}
