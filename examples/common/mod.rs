//! The one flag parser every example shares: the engine and option
//! flags map onto a [`RunConfig`], unknown flags are rejected with a
//! usage line, and `--coordinator ADDR` turns the process into a
//! cluster node.
#![allow(dead_code)] // each example uses the subset of flags it supports

use std::path::PathBuf;

use orion::apps::chaos::ChaosConfig;
use orion::apps::distributed::{run_as_node, DistOptions};
use orion::apps::run::{run, App, Engine, RunConfig, RunOutput};
use orion::core::{default_threads, FaultPlan, OwnedSession, TuneConfig};
use orion::trace::write_perfetto;

/// Every flag an example may support, with its value placeholder
/// (empty for a switch).
const FLAGS: &[(&str, &str)] = &[
    ("--engine", "sim|threads|net"),
    ("--threads", "N"),
    ("--nodes", "N"),
    ("--trace", "PATH"),
    ("--fault-plan", "PATH"),
    ("--autotune", ""),
    ("--coordinator", "ADDR"),
    ("--shards", "N"),
    ("--requests", "N"),
];

/// Which engine the flags select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The simulated cluster.
    Sim,
    /// The thread pool.
    Threads,
    /// Node processes over TCP.
    Net,
}

/// The parsed command line of one example.
pub struct Args {
    example: &'static str,
    supported: &'static [&'static str],
    values: Vec<(&'static str, String)>,
}

/// Parses argv against the flags `example` supports. Exits with a usage
/// line on an unknown flag (`--help` included) or a missing value; never
/// returns when `--coordinator` is given.
pub fn parse(example: &'static str, supported: &'static [&'static str]) -> Args {
    let mut args = Args {
        example,
        supported,
        values: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let known = FLAGS
            .iter()
            .find(|(name, _)| *name == flag && supported.contains(name));
        let Some(&(name, placeholder)) = known else {
            args.usage(&format!("unknown flag `{flag}`"));
        };
        let value = match placeholder {
            "" => String::new(),
            _ => argv
                .next()
                .unwrap_or_else(|| args.usage(&format!("`{name}` needs a value: {placeholder}"))),
        };
        args.values.push((name, value));
    }
    if let Some(addr) = args.value("--coordinator") {
        run_as_node(addr);
    }
    args
}

impl Args {
    /// Prints `problem` and the usage line, then exits non-zero.
    pub fn usage(&self, problem: &str) -> ! {
        let flags: Vec<String> = FLAGS
            .iter()
            .filter(|(name, _)| self.supported.contains(name))
            .map(|(name, placeholder)| format!("[{}]", format!("{name} {placeholder}").trim_end()))
            .collect();
        eprintln!("error: {problem}");
        eprintln!("usage: {} {}", self.example, flags.join(" "));
        std::process::exit(2);
    }

    fn value(&self, flag: &str) -> Option<&str> {
        let found = self.values.iter().rev().find(|(name, _)| *name == flag);
        found.map(|(_, value)| value.as_str())
    }

    /// The positive integer given for `flag`, if any.
    pub fn count(&self, flag: &str) -> Option<usize> {
        self.value(flag).map(|v| match v.parse() {
            Ok(n) if n > 0 => n,
            _ => self.usage(&format!("`{flag}` takes a positive integer, got `{v}`")),
        })
    }

    /// `--trace PATH`.
    pub fn trace(&self) -> Option<PathBuf> {
        self.value("--trace").map(PathBuf::from)
    }

    /// Whether `--autotune` was given.
    pub fn autotune(&self) -> bool {
        self.value("--autotune").is_some()
    }

    /// The engine `--engine` names — or, without it, the one `--nodes`
    /// or `--threads` implies. `None` asks for the example's full tour.
    pub fn engine(&self) -> Option<EngineKind> {
        match self.value("--engine") {
            Some("sim") => Some(EngineKind::Sim),
            Some("threads") => Some(EngineKind::Threads),
            Some("net") => Some(EngineKind::Net),
            Some(other) => self.usage(&format!("`--engine` is sim, threads or net, got `{other}`")),
            None if self.value("--nodes").is_some() => Some(EngineKind::Net),
            None if self.value("--threads").is_some() => Some(EngineKind::Threads),
            None => None,
        }
    }

    /// `--threads N`, or the host's available parallelism.
    pub fn threads(&self) -> usize {
        self.count("--threads").unwrap_or_else(default_threads)
    }

    /// `--nodes N`, or two.
    pub fn nodes(&self) -> usize {
        self.count("--nodes").unwrap_or(2)
    }

    /// The `Net` engine: `--nodes N` processes for `passes` epochs, files
    /// under [`Args::scratch_dir`]`(run_id)`.
    pub fn net_engine(&self, passes: u64, run_id: &str) -> Engine {
        let mut opts = DistOptions::new(self.nodes(), passes, self.scratch_dir(run_id));
        opts.run_id = run_id.into();
        Engine::Net(opts)
    }

    /// A scratch directory unique to this process.
    pub fn scratch_dir(&self, tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("orion_{tag}_{}", std::process::id()))
    }

    /// The [`RunConfig`] for `engine` carrying every option flag given:
    /// `--trace`, `--autotune`, and `--fault-plan` (checkpoints every 2
    /// passes, files prefixed `tag`).
    pub fn run_config(&self, engine: Engine, passes: u64, tag: &str) -> RunConfig {
        let mut cfg = RunConfig::new(engine, passes);
        cfg.trace = self.value("--trace").is_some();
        cfg.tune = self.autotune().then(TuneConfig::default);
        cfg.chaos = self.value("--fault-plan").map(|path| {
            let plan = FaultPlan::from_file(path)
                .unwrap_or_else(|e| self.usage(&format!("fault plan `{path}`: {e}")));
            ChaosConfig::new(plan, 2, self.scratch_dir(self.example), tag)
        });
        cfg
    }

    /// With `--trace PATH`: writes `sessions` as one Perfetto trace and
    /// says so, with `note` appended.
    pub fn write_trace(&self, sessions: &[OwnedSession], note: &str) {
        let Some(path) = self.trace() else { return };
        let views: Vec<_> = sessions.iter().map(OwnedSession::view).collect();
        let file = std::fs::File::create(&path).expect("create trace file");
        let mut w = std::io::BufWriter::new(file);
        write_perfetto(&mut w, &views).expect("write trace");
        std::io::Write::flush(&mut w).expect("flush trace");
        println!("wrote Perfetto trace to {}{note}", path.display());
    }

    /// Whether the example's `kind` section runs: the selected engine,
    /// or every in-process section of a full tour.
    pub fn runs(&self, kind: EngineKind) -> bool {
        self.engine().map_or(kind != EngineKind::Net, |e| e == kind)
    }

    /// The [`RunConfig`] of the threaded section. Selected explicitly it
    /// carries every option flag (a meaningless one is then reported);
    /// as the real-multi-core leg of a full tour it takes only `--trace`.
    pub fn threads_config(&self, passes: u64, tag: &str) -> RunConfig {
        let cfg = self.run_config(Engine::Threads(self.threads()), passes, tag);
        match self.engine() {
            Some(_) => cfg,
            None => RunConfig {
                tune: None,
                chaos: None,
                ..cfg
            },
        }
    }
}

/// [`run`], exiting with the typed error's message when the combination
/// of flags means nothing for this app.
pub fn run_or_exit<A: App>(app: &A, data: &A::Data, cfg: &RunConfig) -> RunOutput<A::Model> {
    run(app, data, cfg).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}
