//! Cluster model: machines, workers, CPU and network parameters.

use crate::time::VirtualTime;

/// Network parameters of the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Per-machine NIC bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way message latency.
    pub latency: VirtualTime,
    /// When true, transfers between workers on the *same machine* are
    /// free pointer swaps (the STRADS optimization of §6.4); when false,
    /// intra-machine transfers still pay marshalling and a memcpy-speed
    /// "bandwidth" (the Julia inter-process situation the paper describes
    /// for Orion).
    pub zero_copy_local: bool,
    /// Effective intra-machine transfer bandwidth (bits/s) when
    /// `zero_copy_local` is false.
    pub local_bandwidth_bps: f64,
}

impl NetworkSpec {
    /// 40 Gbps Ethernet as in the paper's testbed, 50 µs latency, no
    /// zero-copy (Orion's Julia workers are separate processes).
    pub(crate) fn ethernet_40g() -> Self {
        NetworkSpec {
            bandwidth_bps: 40e9,
            latency: VirtualTime::from_micros(50),
            zero_copy_local: false,
            local_bandwidth_bps: 200e9,
        }
    }
}

/// CPU parameters of the simulated workers.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Multiplier on application-declared per-iteration compute cost.
    /// 1.0 models the reference implementation (Orion's Julia apps);
    /// a C++ system like STRADS uses < 1.0; a framework with redundant
    /// dense compute on sparse data (TensorFlow SGD MF, §6.4) uses > 1.0.
    pub compute_scale: f64,
    /// CPU cost of marshalling one byte for transmission (paid by the
    /// sending worker; "excessive communication incurs CPU overhead due
    /// to marshalling", §6.4).
    pub marshal_ns_per_byte: f64,
}

impl CpuSpec {
    /// Reference CPU (the paper's Xeon E5-2698Bv3 running the Julia apps).
    pub fn reference() -> Self {
        CpuSpec {
            compute_scale: 1.0,
            marshal_ns_per_byte: 0.25,
        }
    }
}

/// The simulated cluster: `n_machines` machines with
/// `workers_per_machine` workers each, a NIC per machine, plus CPU and
/// network parameters.
///
/// # Examples
///
/// ```
/// use orion_sim::ClusterSpec;
/// let c = ClusterSpec::paper_12_machines();
/// assert_eq!(c.n_workers(), 384);
/// assert_eq!(c.machine_of(32), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of machines.
    pub n_machines: usize,
    /// Workers (virtual cores) per machine.
    pub workers_per_machine: usize,
    /// Network parameters.
    pub network: NetworkSpec,
    /// CPU parameters.
    pub cpu: CpuSpec,
}

impl ClusterSpec {
    /// A cluster with the given machine/worker counts and reference
    /// CPU + 40GbE network.
    pub fn new(n_machines: usize, workers_per_machine: usize) -> Self {
        ClusterSpec {
            n_machines,
            workers_per_machine,
            network: NetworkSpec::ethernet_40g(),
            cpu: CpuSpec::reference(),
        }
    }

    /// The paper's main evaluation configuration: 12 machines × 32
    /// workers = 384 workers (Figs. 9–12).
    pub fn paper_12_machines() -> Self {
        Self::new(12, 32)
    }

    /// A single machine with one worker (serial execution).
    pub fn serial() -> Self {
        Self::new(1, 1)
    }

    /// Total number of workers.
    pub fn n_workers(&self) -> usize {
        self.n_machines * self.workers_per_machine
    }

    /// The machine hosting `worker`.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= self.n_workers()`.
    pub fn machine_of(&self, worker: usize) -> usize {
        assert!(worker < self.n_workers(), "worker {worker} out of range");
        worker / self.workers_per_machine
    }

    /// Compute time for `ns` nanoseconds of declared reference work.
    pub fn compute_time(&self, ns: f64) -> VirtualTime {
        VirtualTime::from_secs_f64(ns * self.cpu.compute_scale / 1e9)
    }

    /// CPU time to marshal `bytes` for transmission.
    pub fn marshal_time(&self, bytes: u64) -> VirtualTime {
        VirtualTime::from_secs_f64(bytes as f64 * self.cpu.marshal_ns_per_byte / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_machine_mapping() {
        let c = ClusterSpec::new(3, 4);
        assert_eq!(c.n_workers(), 12);
        assert_eq!(c.machine_of(0), 0);
        assert_eq!(c.machine_of(3), 0);
        assert_eq!(c.machine_of(4), 1);
        assert_eq!(c.machine_of(11), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn machine_of_out_of_range() {
        let _ = ClusterSpec::new(1, 2).machine_of(2);
    }

    #[test]
    fn compute_time_scales() {
        let mut c = ClusterSpec::serial();
        c.cpu.compute_scale = 2.0;
        assert_eq!(c.compute_time(100.0), VirtualTime::from_nanos(200));
    }

    #[test]
    fn marshal_time_scales_with_bytes() {
        let c = ClusterSpec::serial();
        let t = c.marshal_time(4000);
        assert_eq!(t, VirtualTime::from_nanos(1000));
    }

    #[test]
    fn paper_config() {
        let c = ClusterSpec::paper_12_machines();
        assert_eq!(c.n_machines, 12);
        assert_eq!(c.n_workers(), 384);
        assert_eq!(c.network.bandwidth_bps, 40e9);
    }
}
