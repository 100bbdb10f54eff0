//! Interconnect topology: peer-to-peer and inter-node link timing.

use crate::device::DeviceId;

/// Link bandwidths of a single-server multi-GPU interconnect.
///
/// The paper's scope is a single server (its all-reduce explicitly rejects
/// NCCL's multi-server optimizations), so the topology is flat: every GPU has
/// direct peer links of uniform bandwidth. Per-transfer latency is modelled
/// as a fixed setup cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    n_devices: usize,
    p2p_gbs: f64,
    setup_s: f64,
}

impl Topology {
    /// PCIe-generation defaults matching [`crate::profile::DeviceProfile::v100`].
    pub fn pcie(n_devices: usize) -> Self {
        Self {
            n_devices,
            p2p_gbs: 9.0,
            setup_s: 8e-6,
        }
    }

    /// NVLink-style topology: much faster peer links.
    pub fn nvlink(n_devices: usize) -> Self {
        Self {
            n_devices,
            p2p_gbs: 45.0,
            setup_s: 5e-6,
        }
    }

    /// Number of devices in the server.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Scales the per-transfer setup latency by `s` (builder-style) — the
    /// transfer analogue of
    /// [`crate::profile::DeviceProfile::with_overhead_scale`].
    pub fn with_setup_scale(mut self, s: f64) -> Self {
        assert!(s > 0.0, "setup scale must be positive");
        self.setup_s *= s;
        self
    }

    /// Seconds to move `bytes` from device `src` to device `dst`.
    /// A self-transfer is free (the all-reduce skips it anyway).
    pub fn p2p_time(&self, src: DeviceId, dst: DeviceId, bytes: usize) -> f64 {
        self.check(src);
        self.check(dst);
        if src == dst {
            return 0.0;
        }
        self.setup_s + bytes as f64 / (self.p2p_gbs * 1e9)
    }

    fn check(&self, d: DeviceId) {
        assert!(d.0 < self.n_devices, "device {d} outside topology");
    }

    /// The same link parameters over a different device count — used when a
    /// per-server link template is stretched over a whole fleet (cluster
    /// contexts) or shrunk to a survivor subset.
    pub fn resized(&self, n_devices: usize) -> Topology {
        let mut t = self.clone();
        t.n_devices = n_devices;
        t
    }
}

/// Where a flat device index lives inside a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLocation {
    /// Server (node) index.
    pub server: usize,
    /// Device index within the server.
    pub local: usize,
}

/// An `N`-server × `M`-device fleet: per-server interconnects (fast, from
/// [`Topology`]) plus one shared inter-node link class (slow — higher setup
/// latency, lower bandwidth).
///
/// Device numbering is **server-major and fixed**: flat id `s·M + l` is
/// device `l` of server `s`. Every consumer of the cluster (collectives,
/// fault plans, the trainer's eviction path) uses this one ordering, which is
/// what makes cluster runs bit-deterministic: no schedule interleaving can
/// reorder the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTopology {
    intra: Topology,
    servers: usize,
    devices_per_server: usize,
    inter_gbs: f64,
    inter_setup_s: f64,
}

impl ClusterTopology {
    /// PCIe servers joined by a 25GbE-class fabric: intra-node links from
    /// [`Topology::pcie`], inter-node at 3 GB/s with 30 µs setup. The default
    /// cluster of the experiment harness — inter-node bandwidth is a third of
    /// the intra-node peer links, the regime where hierarchical merging pays.
    pub fn ethernet(servers: usize, devices_per_server: usize) -> Self {
        Self::new(
            Topology::pcie(devices_per_server),
            servers,
            devices_per_server,
            3.0,
            30e-6,
        )
    }

    /// A cluster from explicit parts.
    pub fn new(
        intra: Topology,
        servers: usize,
        devices_per_server: usize,
        inter_gbs: f64,
        inter_setup_s: f64,
    ) -> Self {
        assert!(servers >= 1, "need at least one server");
        assert!(devices_per_server >= 1, "need at least one device/server");
        assert!(inter_gbs > 0.0, "inter-node bandwidth must be positive");
        assert!(
            inter_setup_s >= 0.0,
            "inter-node setup must be non-negative"
        );
        Self {
            intra: intra.resized(devices_per_server),
            servers,
            devices_per_server,
            inter_gbs,
            inter_setup_s,
        }
    }

    /// Scales every per-transfer setup latency — intra and inter — by `s`
    /// (the cluster analogue of [`Topology::with_setup_scale`]).
    pub fn with_setup_scale(mut self, s: f64) -> Self {
        self.intra = self.intra.with_setup_scale(s);
        self.inter_setup_s *= s;
        self
    }

    /// Number of servers (nodes).
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Devices per server.
    pub fn devices_per_server(&self) -> usize {
        self.devices_per_server
    }

    /// Total devices in the fleet.
    pub fn n_devices(&self) -> usize {
        self.servers * self.devices_per_server
    }

    /// The per-server interconnect (sized to one server).
    pub fn intra(&self) -> &Topology {
        &self.intra
    }

    /// Inter-node bandwidth in GB/s.
    pub fn inter_gbs(&self) -> f64 {
        self.inter_gbs
    }

    /// Inter-node per-transfer setup latency in seconds.
    pub fn inter_setup_s(&self) -> f64 {
        self.inter_setup_s
    }

    /// Flat device id of `(server, local)`.
    pub fn flat(&self, server: usize, local: usize) -> usize {
        assert!(server < self.servers, "server {server} outside cluster");
        assert!(
            local < self.devices_per_server,
            "local device {local} outside server"
        );
        server * self.devices_per_server + local
    }

    /// `(server, local)` of a flat device id.
    pub fn locate(&self, flat: usize) -> DeviceLocation {
        assert!(flat < self.n_devices(), "device {flat} outside cluster");
        DeviceLocation {
            server: flat / self.devices_per_server,
            local: flat % self.devices_per_server,
        }
    }

    /// Server of a flat device id.
    pub fn server_of(&self, flat: usize) -> usize {
        self.locate(flat).server
    }

    /// Seconds to move `bytes` over the inter-node link (one hop).
    pub fn inter_time(&self, bytes: usize) -> f64 {
        self.inter_setup_s + bytes as f64 / (self.inter_gbs * 1e9)
    }

    /// Seconds to move `bytes` between two flat device ids: free to self,
    /// the intra-node link within a server, the inter-node link across.
    pub fn p2p_time_flat(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        if src == dst {
            return 0.0;
        }
        let (s, d) = (self.locate(src), self.locate(dst));
        if s.server == d.server {
            self.intra
                .p2p_time(DeviceId(s.local), DeviceId(d.local), bytes)
        } else {
            self.inter_time(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_self_transfer_is_free() {
        let t = Topology::pcie(4);
        assert_eq!(t.p2p_time(DeviceId(1), DeviceId(1), 1 << 20), 0.0);
    }

    #[test]
    fn bigger_transfers_take_longer() {
        let t = Topology::pcie(4);
        assert!(
            t.p2p_time(DeviceId(0), DeviceId(1), 2 << 20)
                > t.p2p_time(DeviceId(0), DeviceId(1), 1 << 20)
        );
    }

    #[test]
    fn nvlink_p2p_faster_than_pcie() {
        let big = 64 << 20;
        let pcie = Topology::pcie(4).p2p_time(DeviceId(0), DeviceId(1), big);
        let nvl = Topology::nvlink(4).p2p_time(DeviceId(0), DeviceId(1), big);
        assert!(nvl < pcie);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn out_of_range_device_panics() {
        let t = Topology::pcie(2);
        let _ = t.p2p_time(DeviceId(0), DeviceId(5), 1);
    }

    #[test]
    fn cluster_flat_and_locate_roundtrip() {
        let c = ClusterTopology::ethernet(3, 4);
        assert_eq!(c.n_devices(), 12);
        for flat in 0..c.n_devices() {
            let loc = c.locate(flat);
            assert_eq!(c.flat(loc.server, loc.local), flat);
        }
        assert_eq!(
            c.locate(7),
            DeviceLocation {
                server: 1,
                local: 3
            }
        );
        assert_eq!(c.server_of(8), 2);
    }

    #[test]
    fn cluster_inter_link_is_slower_than_intra() {
        let c = ClusterTopology::ethernet(2, 4);
        let bytes = 16 << 20;
        // Same server: intra link. Different server: the slow fabric.
        let intra = c.p2p_time_flat(0, 1, bytes);
        let inter = c.p2p_time_flat(0, 4, bytes);
        assert!(inter > intra, "inter {inter} must exceed intra {intra}");
        assert_eq!(c.p2p_time_flat(5, 5, bytes), 0.0);
    }

    #[test]
    fn cluster_setup_scale_applies_to_both_links() {
        let base = ClusterTopology::ethernet(2, 2);
        let scaled = base.clone().with_setup_scale(0.5);
        // Zero-byte transfers expose the pure setup latency.
        assert!(scaled.inter_time(0) < base.inter_time(0));
        assert!(scaled.p2p_time_flat(0, 1, 0) < base.p2p_time_flat(0, 1, 0));
    }

    #[test]
    #[should_panic(expected = "outside cluster")]
    fn cluster_out_of_range_device_panics() {
        let _ = ClusterTopology::ethernet(2, 2).locate(4);
    }

    #[test]
    fn resized_topology_keeps_link_parameters() {
        let t = Topology::pcie(2).resized(8);
        assert_eq!(t.n_devices(), 8);
        let b = 1 << 20;
        assert_eq!(
            t.p2p_time(DeviceId(0), DeviceId(7), b),
            Topology::pcie(8).p2p_time(DeviceId(0), DeviceId(7), b)
        );
    }
}
