//! Metric definitions (the one table `BENCHMARK.json` is generated from)
//! and the result record every run prints.

use crate::stats::Summary;
use std::fmt::Write as _;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression: a floor of
    /// 0.05, or three times the widest run-to-run spread measured on any
    /// workload, whichever is larger, up to the contract's cap of 0.25 —
    /// which every absolute timing reaches, because this box's own speed
    /// moves their medians by 11-14 % between two sets of runs of one
    /// commit (README, "How the bounds were set"). Per-layer metrics carry
    /// no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25),
    e2e("job_wall_p50_ms", "ms", Better::Lower, 0.25),
    e2e("job_wall_p90_ms", "ms", Better::Lower, 0.25),
    e2e("overhead_ratio", "ratio", Better::Lower, 0.2),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.2),
];

/// Single layers; from the traced run only.
pub const PER_LAYER: &[Def] = &[
    layer("core.dataset_augment_ms", "ms", Better::Lower),
    layer("core.model_augment_ms", "ms", Better::Lower),
    layer("core.extract_ms", "ms", Better::Lower),
    layer("core.train_local_ms", "ms", Better::Lower),
    layer("core.train_plain_ms", "ms", Better::Lower),
    layer("nn.forward_ms", "ms", Better::Lower),
    layer("nn.backward_ms", "ms", Better::Lower),
    layer("nn.optim_step_ms", "ms", Better::Lower),
    layer("nn.model_encode_ms", "ms", Better::Lower),
    layer("nn.model_decode_ms", "ms", Better::Lower),
    layer("tensor.gemm_conv_gflops", "GFLOP/s", Better::Higher),
    layer("tensor.gemm_conv_pool_gflops", "GFLOP/s", Better::Higher),
    layer("tensor.gemm_batch_attn_gflops", "GFLOP/s", Better::Higher),
    layer("tensor.gemm_small_gflops", "GFLOP/s", Better::Higher),
    layer("cloud.protocol.job_encode_ms", "ms", Better::Lower),
    layer("cloud.protocol.job_decode_ms", "ms", Better::Lower),
    layer("cloud.protocol.result_decode_ms", "ms", Better::Lower),
    layer("cloud.protocol.upload_bytes", "B", Better::Lower),
    layer("cloud.protocol.download_bytes", "B", Better::Lower),
    layer("cloud.service.train_ms", "ms", Better::Lower),
    layer("cloud.service.dispatch_self_ms", "ms", Better::Lower),
    layer("cloud.rpc_p50_ms", "ms", Better::Lower),
    layer("cloud.rpc_p99_ms", "ms", Better::Lower),
    layer("cloud.rpc_overhead_ms", "ms", Better::Lower),
    layer("cloud.rpc_overhead_share", "ratio", Better::Lower),
    layer("cloud.cache.served_share", "ratio", Better::Higher),
    layer("cloud.cache.hot_rpc_p50_ms", "ms", Better::Lower),
    layer("cloud.cache.unique_rpc_p50_ms", "ms", Better::Lower),
    layer("cloud.transport.self_ms", "ms", Better::Lower),
    layer("cloud.transport.stalled_share", "ratio", Better::Lower),
    layer("cloud.transport.connect_ms", "ms", Better::Lower),
    layer("proxy.self_ms", "ms", Better::Lower),
    layer("proxy.connect_ms", "ms", Better::Lower),
    layer("process.cpu_s_per_job", "s", Better::Lower),
    layer("process.allocs_per_job", "count", Better::Lower),
    layer("process.alloc_bytes_per_job", "B", Better::Lower),
    layer("process.threads", "count", Better::Lower),
    layer("trace.unattributed_share", "ratio", Better::Lower),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
];

/// The four workloads and why each exists (one line each, as recorded in
/// `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cv_train",
        "The paper's experiment: one session trains distinct obfuscated LeNet-5 image jobs, augment to extract; conv/im2col GEMM, nn and the trainer do >=95% of the work, transport almost none.",
    ),
    (
        "lm_train",
        "Same run shape with a tiny transformer LM: attention (batched GEMM) and embeddings, no conv; the no-change control for conv-only kernel work, and the reverse.",
    ),
    (
        "dispatch_direct",
        "Saturation: nproc connections x 128 outstanding pre-encoded one-step jobs, half unique, half from a 64-job hot set over a 32-entry cache; training is under a third of a request. Judge by jobs_per_s.",
    ),
    (
        "dispatch_proxy",
        "The identical generator and job stream through AmalgamProxy to two servers: differs from dispatch_direct in the proxy tier only, so proxy and server changes separate.",
    ),
];

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// One measured value with, where it summarises a sample, the sample.
#[derive(Debug, Clone)]
pub struct Value {
    /// A name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The reported number.
    pub value: f64,
    /// Sample count, median and quartiles behind it, if it has any.
    pub sample: Option<Summary>,
    /// Free-form qualifier (which percentile a tail is, which shape a
    /// GFLOP/s figure is for).
    pub note: String,
}

impl Value {
    /// A bare number.
    pub fn new(name: &'static str, value: f64) -> Value {
        Value {
            name,
            value,
            sample: None,
            note: String::new(),
        }
    }

    /// The median of `xs` (0 with an "empty" note for no samples).
    pub fn median_of(name: &'static str, xs: &[f64]) -> Value {
        if xs.is_empty() {
            return Value::new(name, 0.0).with_note("no samples on this workload");
        }
        let s = Summary::of(xs);
        Value {
            name,
            value: s.p50,
            sample: Some(s),
            note: String::new(),
        }
    }

    /// Attaches the sample a derived number came from.
    pub fn with_sample(mut self, xs: &[f64]) -> Value {
        if !xs.is_empty() {
            self.sample = Some(Summary::of(xs));
        }
        self
    }

    /// Attaches a qualifier.
    pub fn with_note(mut self, note: impl Into<String>) -> Value {
        self.note = note.into();
        self
    }
}

/// Where a run happened: stamped on every record.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Hardware threads available to the process.
    pub hw_threads: usize,
    /// Tensor-pool threads the workload configured.
    pub pool_threads: usize,
    /// GEMM micro-kernel tier in use.
    pub kernel_tier: String,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Machine stamp.
    pub machine: Machine,
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// What did not hold: harness invariants (the closed-loop identity,
    /// server-side failure counters) and, in the traced run, the workload
    /// self-checks (the workload no longer stresses what it claims). Like
    /// a wrong output, any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// The metrics, in definition order.
    pub values: Vec<Value>,
}

impl Report {
    /// A record for this machine with no violations noted yet.
    pub fn new(
        workload: &'static str,
        seed: u64,
        traced: bool,
        attempted: usize,
        failed: usize,
        values: Vec<Value>,
    ) -> Report {
        Report {
            workload,
            seed,
            traced,
            machine: crate::machine(),
            attempted: attempted as u64,
            failed: failed as u64,
            violations: Vec::new(),
            values,
        }
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every output was right and every harness invariant held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    fn defs(&self) -> &'static [Def] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Checks that the run produced exactly the metrics its mode owes,
    /// all finite.
    ///
    /// # Errors
    ///
    /// Names the missing, extra or non-finite metric.
    pub fn validate(&self) -> Result<(), String> {
        let defs = self.defs();
        for d in defs {
            let hits = self.values.iter().filter(|v| v.name == d.name).count();
            if hits != 1 {
                return Err(format!("metric {} reported {hits} times", d.name));
            }
        }
        for v in &self.values {
            if !defs.iter().any(|d| d.name == v.name) {
                return Err(format!("metric {} is not defined for this mode", v.name));
            }
            if !v.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", v.name, v.value));
            }
        }
        Ok(())
    }

    /// The human-readable record: machine stamp, then one line per metric
    /// with unit, direction, sample count, quartiles and qualifier.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let m = &self.machine;
        let _ = writeln!(
            out,
            "# e2e workload={} seed={} trace={} hw_threads={} pool_threads={} kernel_tier={}",
            self.workload,
            self.seed,
            self.traced as u8,
            m.hw_threads,
            m.pool_threads,
            m.kernel_tier
        );
        let _ = writeln!(
            out,
            "# attempted={} failed={} failed_share={}",
            self.attempted,
            self.failed,
            self.failed_share()
        );
        for d in self.defs() {
            let Some(v) = self.values.iter().find(|v| v.name == d.name) else {
                continue;
            };
            let _ = write!(
                out,
                "{:<34} {:>14.6} {:<8} ({} is better)",
                d.name,
                v.value,
                d.unit,
                d.better.as_str()
            );
            if let Some(s) = &v.sample {
                let _ = write!(
                    out,
                    "  n={} q1={:.6} p50={:.6} q3={:.6}",
                    s.n, s.q1, s.p50, s.q3
                );
            }
            if !v.note.is_empty() {
                let _ = write!(out, "  [{}]", v.note);
            }
            out.push('\n');
        }
        for v in &self.violations {
            let _ = writeln!(out, "INCORRECT: {v}");
        }
        out
    }

    /// The last line of standard output: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for d in self.defs() {
            let Some(v) = self.values.iter().find(|v| v.name == d.name) else {
                continue;
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, v.value, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// `BENCHMARK.json`, generated from the tables above so the file and the
/// harness cannot disagree. `dir` is the benchmark's own directory.
pub fn benchmark_json(dir: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"{dir}/Cargo.toml\", \"--\"],"
    );
    let _ = writeln!(out, "  \"paths\": [\"{dir}\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name,
            d.unit,
            d.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}
