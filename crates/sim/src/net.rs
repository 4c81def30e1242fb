//! The simulated network: per-machine NICs, transfer timing, and byte
//! accounting.
//!
//! Every transfer the runtime performs goes through [`SimNet::send`],
//! which (a) serializes sends on the source machine's NIC, (b) computes
//! the arrival time from latency and bandwidth, and (c) records the
//! message so experiments can report total traffic and bandwidth-over-
//! time traces (the paper's Fig. 12).

use crate::cluster::ClusterSpec;
use crate::fault::LinkFault;
use crate::time::VirtualTime;

/// One recorded message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgRecord {
    /// Sending machine.
    pub src_machine: usize,
    /// Receiving machine.
    pub dst_machine: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// When the payload started leaving the NIC.
    pub depart: VirtualTime,
    /// When the payload fully arrived.
    pub arrive: VirtualTime,
}

/// Byte and message totals of one directed machine-to-machine link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Sending machine.
    pub src_machine: usize,
    /// Receiving machine.
    pub dst_machine: usize,
    /// Total payload bytes carried.
    pub bytes: u64,
    /// Messages carried.
    pub messages: u64,
}

/// The simulated network state for one experiment run.
///
/// # Examples
///
/// ```
/// use orion_sim::{ClusterSpec, SimNet, VirtualTime};
/// let cluster = ClusterSpec::new(2, 1);
/// let mut net = SimNet::new(&cluster);
/// let arrive = net.send(&cluster, 0, 1, 1_000_000, VirtualTime::ZERO);
/// assert!(arrive > VirtualTime::ZERO);
/// assert_eq!(net.total_bytes(), 1_000_000);
/// assert_eq!(net.per_link()[0].bytes, 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct SimNet {
    /// Next instant each machine's NIC is free to transmit.
    nic_free_tx: Vec<VirtualTime>,
    log: Vec<MsgRecord>,
    /// Bytes that crossed machine boundaries (excludes intra-machine).
    inter_machine_bytes: u64,
    /// Per-directed-link byte counters, `src * n_machines + dst`
    /// (row-major dense matrix; updated on every send, two adds).
    link_bytes: Vec<u64>,
    /// Per-directed-link message counters, same layout.
    link_msgs: Vec<u64>,
    n_machines: usize,
    /// Active degradation/partition windows (from a `FaultPlan`).
    link_faults: Vec<LinkFault>,
    /// Initial backoff when a send hits a partitioned link.
    retry_backoff: VirtualTime,
}

impl SimNet {
    /// Fresh network state for a cluster.
    pub fn new(cluster: &ClusterSpec) -> Self {
        let n = cluster.n_machines;
        SimNet {
            nic_free_tx: vec![VirtualTime::ZERO; n],
            log: Vec::new(),
            inter_machine_bytes: 0,
            link_bytes: vec![0; n * n],
            link_msgs: vec![0; n * n],
            n_machines: n,
            link_faults: Vec::new(),
            retry_backoff: VirtualTime::from_micros(500),
        }
    }

    /// Installs the link-fault windows of a fault plan. Sends through a
    /// degraded link see proportionally reduced bandwidth; sends into a
    /// partition retry with exponential backoff until the window closes.
    pub fn set_link_faults(&mut self, faults: Vec<LinkFault>) {
        self.link_faults = faults;
    }

    /// The bandwidth multiplier of the `src → dst` machine link at
    /// instant `t`: the minimum factor over active fault windows (1.0
    /// when none apply, 0.0 when partitioned).
    fn link_factor(&self, src: usize, dst: usize, t: VirtualTime) -> f64 {
        self.link_faults
            .iter()
            .filter(|f| f.applies(src, dst, t))
            .map(|f| f.factor)
            .fold(1.0, f64::min)
    }

    /// Sends `bytes` from `src_worker` to `dst_worker`, with the payload
    /// ready at `ready`. Returns the arrival time.
    ///
    /// Intra-machine transfers: free when the cluster models zero-copy
    /// (STRADS pointer swapping), otherwise charged at local memory
    /// bandwidth without occupying the NIC. Inter-machine transfers queue
    /// on the source NIC, then take `latency + bytes/bandwidth`.
    ///
    /// # Panics
    ///
    /// Panics if a worker id is out of range.
    pub fn send(
        &mut self,
        cluster: &ClusterSpec,
        src_worker: usize,
        dst_worker: usize,
        bytes: u64,
        ready: VirtualTime,
    ) -> VirtualTime {
        let src_m = cluster.machine_of(src_worker);
        let dst_m = cluster.machine_of(dst_worker);
        if src_m == dst_m {
            if cluster.network.zero_copy_local {
                return ready;
            }
            let tx = VirtualTime::from_secs_f64(
                bytes as f64 * 8.0 / cluster.network.local_bandwidth_bps,
            );
            return ready + tx;
        }
        let mut start = ready.max(self.nic_free_tx[src_m]);
        // Partitioned link: retry with exponential backoff. Attempt times
        // grow geometrically, so any finite partition window terminates
        // the loop.
        let mut backoff = self.retry_backoff;
        while self.link_factor(src_m, dst_m, start) <= 0.0 {
            start += backoff;
            backoff = backoff * 2;
        }
        let factor = self.link_factor(src_m, dst_m, start);
        let tx = VirtualTime::from_secs_f64(
            bytes as f64 * 8.0 / (cluster.network.bandwidth_bps * factor),
        );
        let done_tx = start + tx;
        self.nic_free_tx[src_m] = done_tx;
        let arrive = done_tx + cluster.network.latency;
        self.log.push(MsgRecord {
            src_machine: src_m,
            dst_machine: dst_m,
            bytes,
            depart: start,
            arrive,
        });
        self.inter_machine_bytes += bytes;
        let link = src_m * self.n_machines + dst_m;
        self.link_bytes[link] += bytes;
        self.link_msgs[link] += 1;
        arrive
    }

    /// All bytes offered to `send` that crossed machines (intra-machine
    /// transfers are free or memcpy-priced and not counted as traffic).
    #[allow(clippy::misnamed_getters)]
    pub fn total_bytes(&self) -> u64 {
        self.inter_machine_bytes
    }

    /// Number of inter-machine messages.
    pub fn n_messages(&self) -> usize {
        self.log.len()
    }

    /// The raw message log.
    pub fn log(&self) -> &[MsgRecord] {
        &self.log
    }

    /// Traffic totals of every directed link that carried at least one
    /// message, in `(src, dst)` order.
    pub fn per_link(&self) -> Vec<LinkTraffic> {
        let n = self.n_machines;
        (0..n * n)
            .filter(|&i| self.link_msgs[i] > 0)
            .map(|i| LinkTraffic {
                src_machine: i / n,
                dst_machine: i % n,
                bytes: self.link_bytes[i],
                messages: self.link_msgs[i],
            })
            .collect()
    }

    /// Aggregate cluster bandwidth usage over time: bins departures into
    /// windows of `bin` and reports `(window start seconds, Mbps)` —
    /// the series plotted in the paper's Fig. 12.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn bandwidth_trace(&self, bin: VirtualTime) -> Vec<(f64, f64)> {
        assert!(bin > VirtualTime::ZERO, "bin width must be positive");
        let end = self
            .log
            .iter()
            .map(|m| m.arrive)
            .max()
            .unwrap_or(VirtualTime::ZERO);
        let n_bins = (end.as_nanos() / bin.as_nanos() + 1) as usize;
        let mut bytes_per_bin = vec![0u64; n_bins];
        for m in &self.log {
            let b = (m.depart.as_nanos() / bin.as_nanos()) as usize;
            bytes_per_bin[b] += m.bytes;
        }
        let bin_s = bin.as_secs_f64();
        bytes_per_bin
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as f64 * bin_s, b as f64 * 8.0 / bin_s / 1e6))
            .collect()
    }

    /// Resets the NIC availability to `t` on all machines (used at pass
    /// boundaries when clocks are re-synchronized).
    pub fn release_nics(&mut self, t: VirtualTime) {
        for nic in &mut self.nic_free_tx {
            *nic = (*nic).max(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        let mut c = ClusterSpec::new(2, 2);
        c.network.bandwidth_bps = 8e9; // 1 GB/s: 1 byte = 1 ns
        c.network.latency = VirtualTime::from_micros(10);
        c
    }

    #[test]
    fn inter_machine_timing() {
        let c = cluster();
        let mut net = SimNet::new(&c);
        // 1 MB at 1 GB/s = 1 ms transfer + 10 us latency.
        let arrive = net.send(&c, 0, 2, 1_000_000, VirtualTime::ZERO);
        assert_eq!(
            arrive,
            VirtualTime::from_millis(1) + VirtualTime::from_micros(10)
        );
        assert_eq!(net.total_bytes(), 1_000_000);
        assert_eq!(net.n_messages(), 1);
    }

    #[test]
    fn nic_serializes_concurrent_sends() {
        let c = cluster();
        let mut net = SimNet::new(&c);
        let a1 = net.send(&c, 0, 2, 1_000_000, VirtualTime::ZERO);
        // Second send from the same machine must queue behind the first.
        let a2 = net.send(&c, 1, 2, 1_000_000, VirtualTime::ZERO);
        assert_eq!(a2.saturating_sub(a1), VirtualTime::from_millis(1));
    }

    #[test]
    fn different_machines_do_not_contend() {
        let c = cluster();
        let mut net = SimNet::new(&c);
        let a1 = net.send(&c, 0, 2, 1_000_000, VirtualTime::ZERO);
        let a2 = net.send(&c, 2, 0, 1_000_000, VirtualTime::ZERO);
        assert_eq!(a1, a2);
    }

    #[test]
    fn intra_machine_zero_copy_is_free() {
        let mut c = cluster();
        c.network.zero_copy_local = true;
        let mut net = SimNet::new(&c);
        let t = VirtualTime::from_secs(1);
        assert_eq!(net.send(&c, 0, 1, 1_000_000, t), t);
        assert_eq!(net.total_bytes(), 0);
    }

    #[test]
    fn intra_machine_without_zero_copy_pays_memcpy() {
        let mut c = cluster();
        c.network.zero_copy_local = false;
        c.network.local_bandwidth_bps = 8e9;
        let mut net = SimNet::new(&c);
        let arrive = net.send(&c, 0, 1, 1_000_000, VirtualTime::ZERO);
        assert_eq!(arrive, VirtualTime::from_millis(1));
        // Not counted as network traffic.
        assert_eq!(net.total_bytes(), 0);
    }

    #[test]
    fn bandwidth_trace_bins_departures() {
        let c = cluster();
        let mut net = SimNet::new(&c);
        net.send(&c, 0, 2, 1_000_000, VirtualTime::ZERO);
        net.send(&c, 0, 2, 1_000_000, VirtualTime::from_secs(1));
        let trace = net.bandwidth_trace(VirtualTime::from_secs(1));
        assert_eq!(trace.len(), 2);
        // 1 MB in a 1 s bin = 8 Mbps.
        assert!((trace[0].1 - 8.0).abs() < 1e-9);
        assert!((trace[1].1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn per_link_counters_track_directed_traffic() {
        let c = cluster();
        let mut net = SimNet::new(&c);
        net.send(&c, 0, 2, 1_000, VirtualTime::ZERO);
        net.send(&c, 0, 3, 2_000, VirtualTime::ZERO); // same link: m0 -> m1
        net.send(&c, 2, 0, 5_000, VirtualTime::ZERO);
        net.send(&c, 0, 1, 9_000, VirtualTime::ZERO); // intra-machine: uncounted
        let links = net.per_link();
        assert_eq!(links.len(), 2, "the intra-machine send is no link");
        assert_eq!(
            (links[0].src_machine, links[0].dst_machine),
            (0, 1),
            "(src, dst) order"
        );
        assert_eq!((links[0].bytes, links[0].messages), (3_000, 2));
        assert_eq!(
            (links[1].src_machine, links[1].dst_machine, links[1].bytes),
            (1, 0, 5_000)
        );
        let total: u64 = links.iter().map(|l| l.bytes).sum();
        assert_eq!(total, net.total_bytes());
    }

    #[test]
    fn degraded_link_stretches_transfers_but_not_counters() {
        let c = cluster();
        let mut net = SimNet::new(&c);
        net.set_link_faults(vec![LinkFault {
            src_machine: 0,
            dst_machine: 1,
            from: VirtualTime::ZERO,
            until: VirtualTime::from_secs(100),
            factor: 0.25,
        }]);
        // 1 MB at 0.25 * 1 GB/s = 4 ms transfer + 10 us latency.
        let arrive = net.send(&c, 0, 2, 1_000_000, VirtualTime::ZERO);
        assert_eq!(
            arrive,
            VirtualTime::from_millis(4) + VirtualTime::from_micros(10)
        );
        // Reverse direction is untouched.
        let back = net.send(&c, 2, 0, 1_000_000, VirtualTime::ZERO);
        assert_eq!(
            back,
            VirtualTime::from_millis(1) + VirtualTime::from_micros(10)
        );
        // Byte accounting sees the payload, not the slowdown.
        assert_eq!(net.per_link()[0].bytes, 1_000_000);
    }

    #[test]
    fn partitioned_link_backs_off_until_window_closes() {
        let c = cluster();
        let mut net = SimNet::new(&c);
        net.set_link_faults(vec![LinkFault {
            src_machine: 0,
            dst_machine: 1,
            from: VirtualTime::ZERO,
            until: VirtualTime::from_millis(20),
            factor: 0.0,
        }]);
        let arrive = net.send(&c, 0, 2, 1_000_000, VirtualTime::ZERO);
        // Transfer cannot begin before the partition heals at 20 ms.
        assert!(arrive >= VirtualTime::from_millis(21));
        assert_eq!(net.per_link()[0].bytes, 1_000_000);
        // After the window everything is back to nominal speed.
        let later = net.send(&c, 0, 2, 1_000_000, VirtualTime::from_secs(1));
        assert_eq!(
            later,
            VirtualTime::from_secs(1) + VirtualTime::from_millis(1) + VirtualTime::from_micros(10)
        );
    }

    #[test]
    fn release_nics_moves_forward_only() {
        let c = cluster();
        let mut net = SimNet::new(&c);
        net.send(&c, 0, 2, 8_000_000_000, VirtualTime::ZERO); // 8 s of tx
        net.release_nics(VirtualTime::from_secs(1));
        // NIC still busy until 8 s; a new send queues there.
        let arrive = net.send(&c, 0, 2, 0, VirtualTime::ZERO);
        assert!(arrive >= VirtualTime::from_secs(8));
    }
}
