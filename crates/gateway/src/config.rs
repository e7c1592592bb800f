//! Gateway configuration.

use adaflow_fleet::config::RouterKind;
use std::time::Duration;

/// Optional warmup traffic sent to every backend before the gateway
/// opens its front socket.
///
/// Warmup serves two purposes: it proves each backend actually serves the
/// expected model end-to-end (a connect alone proves only that a socket
/// listens), and the `service_us` fields of the responses measure each
/// backend's single-inference service floor — the number the
/// deadline-aware policy ranks backends by before live traffic has
/// calibrated them.
#[derive(Debug, Clone)]
pub struct WarmupSpec {
    /// Model id to request (must match what the backends serve).
    pub model: String,
    /// Input channels of the served model.
    pub channels: u16,
    /// Input height of the served model.
    pub height: u16,
    /// Input width of the served model.
    pub width: u16,
    /// Requests per backend; the floor is the minimum observed
    /// `service_us`.
    pub iters: u32,
}

impl WarmupSpec {
    /// Tensor elements per warmup request.
    #[must_use]
    pub fn elements(&self) -> usize {
        usize::from(self.channels) * usize::from(self.height) * usize::from(self.width)
    }
}

/// Everything the gateway needs to route: the policy, the retry budget,
/// and the health-probe state machine's timings.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Model id clients must name; empty forwards any id.
    pub model_id: String,
    /// Routing policy — the same four the fleet DES runs.
    pub router: RouterKind,
    /// Seed for the power-of-two sampling stream.
    pub seed: u64,
    /// Extra attempts after the first dispatch when a backend answers a
    /// retryable status (`queue-full`, `shutting-down`) or dies mid-flight.
    pub retry_budget: u32,
    /// Warmup traffic; `None` skips warmup (backends start healthy after a
    /// successful connect, floors calibrate from live responses).
    pub warmup: Option<WarmupSpec>,
    /// How often each backend worker sends a health probe.
    pub probe_interval: Duration,
    /// How long an outstanding probe may wait before counting as a failure.
    pub probe_timeout: Duration,
    /// How long shutdown waits for in-flight requests before answering
    /// the stragglers with `ShuttingDown`.
    pub drain_timeout: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            model_id: String::new(),
            router: RouterKind::DeadlineAware,
            seed: 7,
            retry_budget: 1,
            warmup: None,
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_secs(1),
            drain_timeout: Duration::from_secs(5),
        }
    }
}
