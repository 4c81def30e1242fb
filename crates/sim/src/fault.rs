//! Seeded, replayable fault injection for chaos experiments.
//!
//! A [`FaultPlan`] scripts everything that can go wrong in a simulated
//! run — machine crashes at a virtual instant, per-worker straggler
//! slowdowns, and link degradation or partition windows — so a chaos
//! run is a pure function of `(program, cluster, plan)` and replays
//! bit-identically. The cluster consults the plan on the *virtual*
//! clock: no wall-clock randomness ever enters a run.
//!
//! Plans are built programmatically or loaded from the line-oriented
//! text format documented in `docs/FAULTS.md` (the `--fault-plan` flag
//! of the examples).

use crate::time::VirtualTime;

/// The largest time a plan file may name, in milliseconds (about 31
/// years, 10^18 ns): a crash instant plus its restart delay plus a run's
/// clock then still fits the `u64` nanoseconds of a [`VirtualTime`].
const MAX_PLAN_MS: f64 = 1e12;

/// One machine crash: the machine dies at `at` and needs
/// `restart_delay` of virtual time to come back after detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Machine that fails.
    pub machine: usize,
    /// Virtual instant of the failure.
    pub at: VirtualTime,
    /// Reboot/respawn delay charged during recovery, on top of
    /// checkpoint reload time.
    pub restart_delay: VirtualTime,
}

/// A persistent per-worker compute slowdown (e.g. a flaky core or a
/// noisy neighbour). Multiplies declared compute nanoseconds; it never
/// changes how many bytes the worker sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// Affected worker (global id).
    pub worker: usize,
    /// Compute-time multiplier, ≥ 1.0.
    pub slowdown: f64,
}

/// A degradation window of one directed machine link. While active the
/// link runs at `factor` × nominal bandwidth; `factor == 0.0` partitions
/// the link entirely, forcing senders into retry-with-backoff until the
/// window closes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Sending machine.
    pub src_machine: usize,
    /// Receiving machine.
    pub dst_machine: usize,
    /// Window start (inclusive).
    pub from: VirtualTime,
    /// Window end (exclusive).
    pub until: VirtualTime,
    /// Bandwidth multiplier in `[0.0, 1.0]`; 0.0 = partitioned.
    pub factor: f64,
}

impl LinkFault {
    /// True when this fault covers the directed link at instant `t`.
    pub fn applies(&self, src: usize, dst: usize, t: VirtualTime) -> bool {
        self.src_machine == src && self.dst_machine == dst && t >= self.from && t < self.until
    }
}

/// Everything that goes wrong in one chaos run.
///
/// # Examples
///
/// ```
/// use orion_sim::{FaultPlan, VirtualTime};
/// let plan = FaultPlan::new(42)
///     .crash(1, VirtualTime::from_millis(50), VirtualTime::from_millis(20))
///     .straggler(3, 2.5);
/// assert_eq!(plan.slowdown_of(3), 2.5);
/// let text = "seed 42\ncrash machine=1 at_ms=50 restart_ms=20\nstraggler worker=3 slowdown=2.5\n";
/// assert_eq!(FaultPlan::parse(text).unwrap(), plan);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed identifying the plan (recorded in reports).
    pub seed: u64,
    /// Machine crashes.
    pub crashes: Vec<CrashEvent>,
    /// Straggling workers.
    pub stragglers: Vec<Straggler>,
    /// Link degradation / partition windows.
    pub link_faults: Vec<LinkFault>,
}

/// Error from [`FaultPlan::parse`] / [`FaultPlan::from_file`].
#[derive(Debug)]
pub struct PlanParseError(pub String);

impl core::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// An empty plan tagged with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a machine crash.
    pub fn crash(mut self, machine: usize, at: VirtualTime, restart_delay: VirtualTime) -> Self {
        self.crashes.push(CrashEvent {
            machine,
            at,
            restart_delay,
        });
        self
    }

    /// Adds a straggling worker.
    ///
    /// # Panics
    ///
    /// Panics if `slowdown < 1.0` (a straggler can only be slower).
    pub fn straggler(mut self, worker: usize, slowdown: f64) -> Self {
        assert!(slowdown >= 1.0, "straggler slowdown must be >= 1.0");
        self.stragglers.push(Straggler { worker, slowdown });
        self
    }

    /// The compute slowdown of `worker`: the product of every matching
    /// straggler entry, 1.0 when none match.
    pub fn slowdown_of(&self, worker: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.worker == worker)
            .map(|s| s.slowdown)
            .product()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.stragglers.is_empty() && self.link_faults.is_empty()
    }

    /// Parses the line-oriented plan format (see `docs/FAULTS.md`):
    /// `#` comments and blank lines are skipped; each remaining line is
    /// `seed N`, `crash machine=M at_ms=T restart_ms=T`,
    /// `straggler worker=W slowdown=F`,
    /// `degrade src=A dst=B from_ms=T until_ms=T factor=F`, or
    /// `partition src=A dst=B from_ms=T until_ms=T`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanParseError`] naming the offending line.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanParseError> {
        let mut plan = FaultPlan::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: String| PlanParseError(format!("line {}: {m}", lineno + 1));
            let mut tokens = line.split_whitespace();
            let keyword = tokens.next().expect("non-empty line has a token");
            if keyword == "seed" {
                plan.seed = tokens
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("`seed` needs an integer".into()))?;
                continue;
            }
            let mut fields: Vec<(&str, &str)> = Vec::new();
            for tok in tokens {
                let (k, v) = tok
                    .split_once('=')
                    .ok_or_else(|| err(format!("expected key=value, got `{tok}`")))?;
                fields.push((k, v));
            }
            let get = |key: &str| -> Result<&str, PlanParseError> {
                fields
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| err(format!("`{keyword}` needs `{key}=`")))
            };
            // A NaN passes every range check below (it compares false),
            // and an infinite or negative time would be clamped or
            // saturated into a `VirtualTime` instead of being refused.
            let num = |key: &str| -> Result<f64, PlanParseError> {
                let v = get(key)?
                    .parse::<f64>()
                    .map_err(|_| err(format!("`{key}` is not a number")))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(err(format!("`{key}` must be a finite number >= 0")));
                }
                Ok(v)
            };
            let ms = |key: &str| -> Result<VirtualTime, PlanParseError> {
                let v = num(key)?;
                if v > MAX_PLAN_MS {
                    return Err(err(format!("`{key}` exceeds {MAX_PLAN_MS} ms")));
                }
                Ok(VirtualTime::from_secs_f64(v / 1e3))
            };
            let idx = |key: &str| -> Result<usize, PlanParseError> {
                get(key)?
                    .parse::<usize>()
                    .map_err(|_| err(format!("`{key}` is not an index")))
            };
            match keyword {
                "crash" => plan.crashes.push(CrashEvent {
                    machine: idx("machine")?,
                    at: ms("at_ms")?,
                    restart_delay: ms("restart_ms")?,
                }),
                "straggler" => {
                    let slowdown = num("slowdown")?;
                    if slowdown < 1.0 {
                        return Err(err("slowdown must be >= 1.0".into()));
                    }
                    plan.stragglers.push(Straggler {
                        worker: idx("worker")?,
                        slowdown,
                    });
                }
                "degrade" | "partition" => {
                    let factor = if keyword == "degrade" {
                        let f = num("factor")?;
                        if f <= 0.0 || f > 1.0 {
                            return Err(err("factor must be in (0, 1]".into()));
                        }
                        f
                    } else {
                        0.0
                    };
                    plan.link_faults.push(LinkFault {
                        src_machine: idx("src")?,
                        dst_machine: idx("dst")?,
                        from: ms("from_ms")?,
                        until: ms("until_ms")?,
                        factor,
                    });
                }
                other => return Err(err(format!("unknown directive `{other}`"))),
            }
        }
        Ok(plan)
    }

    /// Reads and parses a plan file.
    ///
    /// # Errors
    ///
    /// Returns [`PlanParseError`] on unreadable files or malformed
    /// content.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<FaultPlan, PlanParseError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| PlanParseError(format!("cannot read {}: {e}", path.display())))?;
        FaultPlan::parse(&text)
    }
}

/// A [`FaultPlan`] being consumed by a run: each crash fires exactly
/// once, so virtual time moving past a crash instant (including during
/// re-execution after recovery) cannot re-kill the machine.
#[derive(Debug, Clone)]
pub struct FaultTimeline {
    plan: FaultPlan,
    fired: Vec<bool>,
}

impl FaultTimeline {
    /// Starts consuming `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = vec![false; plan.crashes.len()];
        FaultTimeline { plan, fired }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Compute slowdown of `worker` (see [`FaultPlan::slowdown_of`]).
    pub fn slowdown_of(&self, worker: usize) -> f64 {
        self.plan.slowdown_of(worker)
    }

    /// Takes the earliest not-yet-fired crash with `at <= t`, marking it
    /// fired. Detection polls this at synchronization points; returns
    /// `None` once every scripted crash has been consumed.
    pub fn take_crash_before(&mut self, t: VirtualTime) -> Option<CrashEvent> {
        let mut best: Option<usize> = None;
        for (i, c) in self.plan.crashes.iter().enumerate() {
            if self.fired[i] || c.at > t {
                continue;
            }
            if best.is_none_or(|b| c.at < self.plan.crashes[b].at) {
                best = Some(i);
            }
        }
        best.map(|i| {
            self.fired[i] = true;
            self.plan.crashes[i]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WorkerClocks;
    use crate::cluster::ClusterSpec;
    use crate::net::SimNet;

    #[test]
    fn parse_reads_every_directive() {
        let mut plan = FaultPlan::new(9)
            .crash(
                2,
                VirtualTime::from_millis(120),
                VirtualTime::from_millis(35),
            )
            .straggler(1, 3.5);
        plan.link_faults.push(LinkFault {
            src_machine: 0,
            dst_machine: 3,
            from: VirtualTime::from_millis(10),
            until: VirtualTime::from_millis(40),
            factor: 0.25,
        });
        plan.link_faults.push(LinkFault {
            src_machine: 3,
            dst_machine: 0,
            from: VirtualTime::from_millis(50),
            until: VirtualTime::from_millis(60),
            factor: 0.0,
        });
        let text = "seed 9\n\
                    crash machine=2 at_ms=120 restart_ms=35\n\
                    straggler worker=1 slowdown=3.5\n\
                    degrade src=0 dst=3 from_ms=10 until_ms=40 factor=0.25\n\
                    partition src=3 dst=0 from_ms=50 until_ms=60\n";
        assert_eq!(FaultPlan::parse(text).unwrap(), plan);
    }

    #[test]
    fn parse_skips_comments_and_rejects_garbage() {
        let plan =
            FaultPlan::parse("# a comment\n\nseed 7\ncrash machine=0 at_ms=1.5 restart_ms=0.5\n")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.crashes[0].at, VirtualTime::from_micros(1_500));
        for bad in [
            "explode machine=1",
            "crash machine=1",
            "crash machine=x at_ms=1 restart_ms=1",
            "straggler worker=0 slowdown=0.5",
            "degrade src=0 dst=1 from_ms=0 until_ms=1 factor=2.0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn slowdown_defaults_to_one_and_compounds() {
        let plan = FaultPlan::new(0).straggler(2, 2.0).straggler(2, 1.5);
        assert_eq!(plan.slowdown_of(0), 1.0);
        assert_eq!(plan.slowdown_of(2), 3.0);
    }

    #[test]
    fn crashes_fire_exactly_once_in_time_order() {
        let plan = FaultPlan::new(0)
            .crash(1, VirtualTime::from_secs(5), VirtualTime::ZERO)
            .crash(0, VirtualTime::from_secs(2), VirtualTime::ZERO);
        let mut tl = FaultTimeline::new(plan);
        assert!(tl.take_crash_before(VirtualTime::from_secs(1)).is_none());
        let first = tl.take_crash_before(VirtualTime::from_secs(10)).unwrap();
        assert_eq!(first.machine, 0, "earliest crash fires first");
        let second = tl.take_crash_before(VirtualTime::from_secs(10)).unwrap();
        assert_eq!(second.machine, 1);
        // Consumed: time moving past the instants again re-kills nothing.
        assert!(tl.take_crash_before(VirtualTime::from_secs(100)).is_none());
    }

    // Satellite: straggler accounting. The barrier lands exactly on the
    // straggler's clock — the max over per-worker clocks after each
    // advanced by its (slowdown-scaled) compute time.
    #[test]
    fn barrier_time_is_the_max_straggler_clock() {
        let cluster = ClusterSpec::new(2, 2);
        let plan = FaultPlan::new(0).straggler(3, 4.0);
        let mut clocks = WorkerClocks::new(4);
        let block_ns = 10_000.0;
        for w in 0..4 {
            clocks.advance(w, cluster.compute_time(block_ns * plan.slowdown_of(w)));
        }
        let straggler_clock = clocks.get(3);
        assert_eq!(straggler_clock, cluster.compute_time(40_000.0));
        let barrier = clocks.barrier();
        assert_eq!(barrier, straggler_clock);
        assert_eq!(clocks.get(0), straggler_clock, "everyone waits for w3");
    }

    // Satellite: slowdown factors shift *when* traffic happens, never
    // how much — per-link byte/message counters must be identical.
    #[test]
    fn slowdown_does_not_change_link_byte_counters() {
        let cluster = ClusterSpec::new(2, 2);
        let sends = [(0usize, 2usize, 5_000u64), (1, 3, 7_000), (2, 0, 11_000)];
        let run = |slowdown: u64| {
            let mut net = SimNet::new(&cluster);
            let mut last = VirtualTime::ZERO;
            for (i, &(src, dst, bytes)) in sends.iter().enumerate() {
                // A straggler sends the same bytes, just later.
                let ready = VirtualTime::from_micros((i as u64 + 1) * 100 * slowdown);
                last = net.send(&cluster, src, dst, bytes, ready);
            }
            (net.total_bytes(), net.per_link(), last)
        };
        let fast = run(1);
        let slow = run(5);
        assert_eq!(fast.0, slow.0, "total bytes unaffected by slowdown");
        assert_eq!(fast.1, slow.1, "per-link bytes and messages too");
        assert!(slow.2 > fast.2, "only the timing moves");
    }
}
