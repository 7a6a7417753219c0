//! Open-loop traffic engine: models 10^5–10^6 concurrent logical clients
//! cheaply in virtual time by generating the *aggregate arrival process*
//! of the population instead of simulating one task per client.
//!
//! A population of N independent Poisson clients each issuing at rate r
//! is statistically identical to a single Poisson stream at rate N·r, so
//! the engine draws per-tenant arrival events (Poisson or bursty MMPP),
//! attaches a Zipf-sampled key rank and an op class to each, and merges
//! the tenant streams into one time-ordered event sequence. The driver
//! dispatches events onto a small pool of simulated connections — the
//! logical-client count only shows up as the offered rate, which is what
//! an open-loop tail-latency experiment needs.
//!
//! Everything is a pure function of the spec and the seed: same seed,
//! byte-identical event stream.

use simkit::{SimRng, Zipf};

/// Arrival process of one tenant's aggregate request stream.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` ops/sec (exponential inter-arrivals) —
    /// the aggregate of a large population of independent steady clients.
    Poisson {
        /// Aggregate offered load, ops per second.
        rate: f64,
    },
    /// Two-state Markov-modulated Poisson process: the stream alternates
    /// between a burst state and an idle state, with exponentially
    /// distributed state holding times. Models synchronized client
    /// bursts (checkpoint waves, thundering herds).
    Mmpp {
        /// Ops per second while in the burst state.
        burst_rate: f64,
        /// Ops per second while in the idle state.
        idle_rate: f64,
        /// Mean holding time of the burst state, seconds.
        mean_burst_s: f64,
        /// Mean holding time of the idle state, seconds.
        mean_idle_s: f64,
    },
}

impl ArrivalProcess {
    /// Long-run average rate in ops/sec (Poisson rate, or the
    /// duty-cycle-weighted MMPP mean).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Mmpp {
                burst_rate,
                idle_rate,
                mean_burst_s,
                mean_idle_s,
            } => {
                let cycle = mean_burst_s + mean_idle_s;
                (burst_rate * mean_burst_s + idle_rate * mean_idle_s) / cycle
            }
        }
    }
}

/// One tenant's slice of the traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// Tenant id carried on every event (0 is reserved for "untenanted").
    pub tenant: u32,
    /// Aggregate arrival process of this tenant's client population.
    pub arrivals: ArrivalProcess,
    /// Number of logical clients the stream stands for (documentation /
    /// reporting only — the aggregate rate already encodes it).
    pub logical_clients: u64,
    /// Keyspace size (ranks `0..keys`).
    pub keys: usize,
    /// Zipf skew over the keyspace (0.0 = uniform, 0.99 = YCSB-hot).
    pub skew: f64,
    /// Fraction of ops that are gets (the rest are sets).
    pub get_ratio: f64,
    /// Value size in bytes for set ops.
    pub value_size: usize,
}

/// A full traffic mix: one or more tenants sharing the tier.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// The tenant mix.
    pub tenants: Vec<TenantSpec>,
    /// Virtual-time horizon of the run, nanoseconds: events are generated
    /// for arrivals strictly before this time.
    pub horizon_ns: u64,
}

/// Operation class of one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A read of the sampled key.
    Get,
    /// A write of `value_size` bytes to the sampled key.
    Set,
}

/// One arrival event of the merged open-loop stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEvent {
    /// Virtual arrival time, nanoseconds.
    pub at_ns: u64,
    /// Tenant id of the issuing population.
    pub tenant: u32,
    /// Get or set.
    pub class: OpClass,
    /// Zipf rank of the key (0 = hottest).
    pub rank: usize,
    /// Value size for sets (0 for gets).
    pub value_size: usize,
}

impl OpEvent {
    /// Canonical key for this event's rank, namespaced per tenant:
    /// `t{tenant}-k{rank}`, written right to left into a stack buffer and
    /// copied out once (one exact-size allocation, no formatter).
    pub fn key(&self) -> String {
        // "t" + u32::MAX + "-k" + u64::MAX
        let mut buf = [0u8; 1 + 10 + 2 + 20];
        let end = buf.len();
        let mut at = put_decimal(&mut buf, end, self.rank as u64);
        at -= 2;
        buf[at..at + 2].copy_from_slice(b"-k");
        at = put_decimal(&mut buf, at, self.tenant.into());
        at -= 1;
        buf[at] = b't';
        std::str::from_utf8(&buf[at..]).expect("ASCII").to_owned()
    }
}

/// Write `n`'s decimal digits into `buf` to end just before `end`; returns
/// where they start.
fn put_decimal(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    loop {
        end -= 1;
        buf[end] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return end;
        }
    }
}

/// Per-tenant generator state: the arrival-process phase plus the key and
/// class samplers, all on a forked rng stream so tenants are independent
/// and the merge order cannot perturb their draws.
struct TenantStream {
    spec: TenantSpec,
    zipf: Zipf,
    rng: SimRng,
    /// MMPP phase: currently bursting, and when the phase ends.
    in_burst: bool,
    phase_end_ns: u64,
    /// Next arrival of this stream, or `None` once past the horizon.
    next_at_ns: Option<u64>,
}

impl TenantStream {
    fn rate(&self) -> f64 {
        match self.spec.arrivals {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Mmpp {
                burst_rate,
                idle_rate,
                ..
            } => {
                if self.in_burst {
                    burst_rate
                } else {
                    idle_rate
                }
            }
        }
    }

    /// Advance `from_ns` by one exponential inter-arrival gap, crossing
    /// MMPP phase boundaries (the remaining gap restarts at the new rate —
    /// memorylessness makes the restart exact, not an approximation).
    fn draw_next(&mut self, from_ns: u64) -> u64 {
        let mut at = from_ns;
        loop {
            let rate = self.rate();
            if rate <= 0.0 {
                // silent phase: jump to the phase boundary
                at = self.phase_boundary(at);
                continue;
            }
            let gap_ns = self.rng.exp(1e9 / rate);
            let candidate = at + gap_ns as u64 + 1;
            if let ArrivalProcess::Mmpp { .. } = self.spec.arrivals {
                if candidate >= self.phase_end_ns {
                    // phase flips before the arrival lands: re-draw from
                    // the boundary at the new phase's rate
                    at = self.phase_boundary(at);
                    continue;
                }
            }
            return candidate;
        }
    }

    /// Flip the MMPP phase at `phase_end_ns` and draw the next holding
    /// time; returns the boundary time the arrival clock resumes from.
    fn phase_boundary(&mut self, _at: u64) -> u64 {
        let boundary = self.phase_end_ns;
        if let ArrivalProcess::Mmpp {
            mean_burst_s,
            mean_idle_s,
            ..
        } = self.spec.arrivals
        {
            self.in_burst = !self.in_burst;
            let mean = if self.in_burst {
                mean_burst_s
            } else {
                mean_idle_s
            };
            self.phase_end_ns = boundary + (self.rng.exp(mean * 1e9) as u64).max(1);
        }
        boundary
    }

    /// Sample the key rank and op class for an arrival.
    fn sample_op(&self) -> (usize, OpClass) {
        let rank = self.zipf.sample(&self.rng);
        let class = if self.rng.chance(self.spec.get_ratio) {
            OpClass::Get
        } else {
            OpClass::Set
        };
        (rank, class)
    }
}

/// Deterministic open-loop event generator: merges the per-tenant arrival
/// streams into one time-ordered sequence of [`OpEvent`]s.
pub struct TrafficEngine {
    streams: Vec<TenantStream>,
    horizon_ns: u64,
}

impl TrafficEngine {
    /// Build the engine from a spec and a parent rng. Each tenant gets a
    /// forked child stream (in tenant order), so the merged interleaving
    /// never perturbs any tenant's own draws.
    pub fn new(spec: &TrafficSpec, rng: &SimRng) -> Self {
        for t in &spec.tenants {
            match t.arrivals {
                ArrivalProcess::Poisson { rate } => {
                    assert!(rate > 0.0, "poisson tenant {} needs rate > 0", t.tenant)
                }
                ArrivalProcess::Mmpp {
                    burst_rate,
                    mean_burst_s,
                    mean_idle_s,
                    ..
                } => {
                    assert!(
                        burst_rate > 0.0 && mean_burst_s > 0.0 && mean_idle_s > 0.0,
                        "mmpp tenant {} needs burst_rate and both means > 0",
                        t.tenant
                    )
                }
            }
        }
        let streams = spec
            .tenants
            .iter()
            .map(|t| {
                let child = rng.fork();
                let mut stream = TenantStream {
                    spec: *t,
                    zipf: Zipf::new(t.keys.max(1), t.skew),
                    rng: child,
                    in_burst: false,
                    phase_end_ns: u64::MAX,
                    next_at_ns: None,
                };
                if let ArrivalProcess::Mmpp { mean_idle_s, .. } = t.arrivals {
                    // start idle; first boundary drawn from the idle mean
                    stream.phase_end_ns = (stream.rng.exp(mean_idle_s * 1e9) as u64).max(1);
                }
                let first = stream.draw_next(0);
                stream.next_at_ns = (first < spec.horizon_ns).then_some(first);
                stream
            })
            .collect();
        TrafficEngine {
            streams,
            horizon_ns: spec.horizon_ns,
        }
    }

    /// Next event of the merged stream, or `None` when every tenant is
    /// past the horizon. Ties break by tenant position (deterministic).
    pub fn next_event(&mut self) -> Option<OpEvent> {
        let (idx, at) = self
            .streams
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.next_at_ns.map(|t| (i, t)))
            .min_by_key(|&(i, t)| (t, i))?;
        let horizon = self.horizon_ns;
        let stream = &mut self.streams[idx];
        let (rank, class) = stream.sample_op();
        let ev = OpEvent {
            at_ns: at,
            tenant: stream.spec.tenant,
            class,
            rank,
            value_size: if class == OpClass::Set {
                stream.spec.value_size
            } else {
                0
            },
        };
        let next = stream.draw_next(at);
        stream.next_at_ns = (next < horizon).then_some(next);
        Some(ev)
    }

    /// Drain the whole horizon into one vector (tests, offline analysis).
    pub fn collect_all(&mut self) -> Vec<OpEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.next_event() {
            out.push(ev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_keys_match_the_formatted_key() {
        for tenant in [0, 1, u32::MAX] {
            for rank in [0, 9, 10, 2047, usize::MAX] {
                let ev = OpEvent {
                    at_ns: 0,
                    tenant,
                    class: OpClass::Get,
                    rank,
                    value_size: 0,
                };
                assert_eq!(ev.key().as_bytes(), format!("t{tenant}-k{rank}").as_bytes());
            }
        }
    }
}
