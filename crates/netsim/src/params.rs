//! Calibrated transport profiles.
//!
//! One physical fabric carries several *transports* with very different
//! software costs: native RDMA verbs, IPoIB (TCP/IP emulated over the IB
//! link), and plain Ethernet tiers. A profile bundles the three knobs that
//! matter at flow level: propagation+NIC latency, per-message software
//! overhead, and effective payload bandwidth.
//!
//! Values follow DESIGN.md §5 and are representative of the paper's
//! IB-QDR-era testbeds (OSU RI / SDSC Gordon / TACC Stampede).

use std::time::Duration;

use simkit::dur;

/// Flow-level cost model for one transport running over the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportProfile {
    /// Human-readable name, used in experiment tables.
    pub name: &'static str,
    /// One-way propagation + NIC hardware latency.
    pub latency: Duration,
    /// Per-message software overhead charged on the sending NIC (kernel /
    /// protocol stack time). This is what separates verbs from IPoIB.
    pub per_msg_overhead: Duration,
    /// Effective payload bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl TransportProfile {
    /// Native RDMA verbs on IB QDR (4×): ~1.6 µs one-way, negligible
    /// software overhead, ~3.4 GB/s effective payload bandwidth.
    pub const fn verbs_qdr() -> Self {
        TransportProfile {
            name: "verbs-qdr",
            latency: dur::ns(1_600),
            per_msg_overhead: dur::ns(300),
            bandwidth: 3.4e9,
        }
    }

    /// IPoIB on the same QDR link: TCP stack traversal adds ~18 µs per
    /// message and caps effective bandwidth near 12 Gb/s.
    pub const fn ipoib_qdr() -> Self {
        TransportProfile {
            name: "ipoib-qdr",
            latency: dur::ns(8_000),
            per_msg_overhead: dur::ns(18_000),
            bandwidth: 1.5e9,
        }
    }

    /// 10 GigE with a standard kernel TCP stack.
    pub const fn ten_gige() -> Self {
        TransportProfile {
            name: "10gige",
            latency: dur::ns(25_000),
            per_msg_overhead: dur::ns(10_000),
            bandwidth: 1.15e9,
        }
    }

    /// 1 GigE (the classic commodity-Hadoop fabric).
    pub const fn one_gige() -> Self {
        TransportProfile {
            name: "1gige",
            latency: dur::ns(50_000),
            per_msg_overhead: dur::ns(15_000),
            bandwidth: 1.17e8,
        }
    }

    /// Same-node loopback (memory copy through the kernel).
    pub const fn loopback() -> Self {
        TransportProfile {
            name: "loopback",
            latency: dur::ns(500),
            per_msg_overhead: dur::ns(200),
            bandwidth: 6.0e9,
        }
    }

    /// Wire time for `bytes` excluding queueing: overhead + latency +
    /// serialization.
    pub fn uncontended_time(&self, bytes: u64) -> Duration {
        self.per_msg_overhead + self.latency + dur::transfer(bytes, self.bandwidth)
    }
}

/// Fabric-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Nodes per rack, for rack-aware placement policies. HPC IB fabrics
    /// are close to non-blocking, so racks matter for placement, not for
    /// bandwidth, in this model.
    pub nodes_per_rack: usize,
    /// Racks per zone (a pod / leaf-spine domain). Zones are derived the
    /// same way racks are: contiguous node-id ranges.
    pub racks_per_zone: usize,
    /// Zones per geo site. Everything beyond one geo is "remote".
    pub zones_per_geo: usize,
    /// Extra one-way latency charged on a transfer that crosses racks
    /// within one zone. Zero (the default) keeps the fabric flat: the
    /// seed-identical behaviour every existing experiment replays.
    pub rack_latency: Duration,
    /// Extra one-way latency for crossing zones within one geo.
    pub zone_latency: Duration,
    /// Extra one-way latency for crossing geo sites (WAN stretch).
    pub geo_latency: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        // The topology tiers default to zero extra latency, so the default
        // fabric stays flat (rack/zone/geo are pure labels) and every
        // seeded run replays byte-identically.
        NetConfig {
            nodes_per_rack: 16,
            racks_per_zone: 4,
            zones_per_geo: 4,
            rack_latency: Duration::ZERO,
            zone_latency: Duration::ZERO,
            geo_latency: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_beats_ipoib_beats_ethernet_for_small_messages() {
        let small = 64;
        let v = TransportProfile::verbs_qdr().uncontended_time(small);
        let i = TransportProfile::ipoib_qdr().uncontended_time(small);
        let e = TransportProfile::ten_gige().uncontended_time(small);
        assert!(v < i && i < e, "{v:?} {i:?} {e:?}");
        // verbs small-message RTT-half is single-digit microseconds
        assert!(v < Duration::from_micros(5));
        assert!(i > Duration::from_micros(20));
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let big = 4 << 20;
        let v = TransportProfile::verbs_qdr().uncontended_time(big);
        let i = TransportProfile::ipoib_qdr().uncontended_time(big);
        // 4 MiB at 3.4 GB/s ≈ 1.23 ms; at 1.5 GB/s ≈ 2.8 ms
        assert!(v.as_secs_f64() > 0.001 && v.as_secs_f64() < 0.0015);
        assert!(i.as_secs_f64() / v.as_secs_f64() > 2.0);
    }

    #[test]
    fn default_config_sane() {
        let c = NetConfig::default();
        assert!(c.nodes_per_rack > 0);
        assert!(c.racks_per_zone > 0 && c.zones_per_geo > 0);
        // flat by default: the topology tiers must charge nothing, or
        // every seeded experiment snapshot would shift
        assert_eq!(c.rack_latency, Duration::ZERO);
        assert_eq!(c.zone_latency, Duration::ZERO);
        assert_eq!(c.geo_latency, Duration::ZERO);
    }
}
