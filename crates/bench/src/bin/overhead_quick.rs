//! The paper's overhead curve, quickly: what training the augmented LeNet-5
//! costs over training the original, against the augmentation amount α and
//! the number of synthetic sub-networks, as `BENCH_overhead.json`.
//!
//! ```text
//! overhead-quick [--out DIR] [--check]
//! ```
//!
//! Each cell of α ∈ {0, 0.25, 0.5, 1, 2} × sub-networks ∈ {2, 3, 4} is the
//! median of [`PAIRS`] pairs. A pair obfuscates the e2e benchmark's middle
//! job (LeNet-5 on 224 synthetic 20 px images) under its own seed — the
//! augmenter draws its taps from it, so a cell averages over tap layouts,
//! and every cell sees the same seeds — then trains the augmented model on
//! the augmented data and the original on the original data for one epoch of
//! batch 16 with the trainer the benchmark uses, alternating which of the two
//! runs first. In process, on a worker thread (where the service trains).
//! The ratio of the two wall times is the pair's sample.
//!
//! Beside each cell's wall ratio is its CPU ratio: the thread time the two
//! epochs spent in their layers, summed over the threads that ran them — the
//! graph's own per-node clocks (`GraphModel::profile`), helper rows
//! included. A step that runs its islands side by side lowers the wall, not
//! the work: the CPU ratio is what the kernel-level ideas of ROADMAP item 6
//! move. (The loss and the optimiser, under 4 % of a step, are left out.)
//!
//! `--check` gates the *shape* of the curve, not its level: within a
//! sub-network count the ratio may not fall as α grows by more than the
//! noise between pairs, and the α = 0.5 / 2-sub-network cell — the
//! benchmark's own job — must sit within [`REPORTED_TOLERANCE`] of
//! [`REPORTED_STEP_RATIO`], the figure CHANGES.md reports for it. The α = 0
//! cells (no inserted pixels, minimal synthetic heads: the fixed cost of the
//! masked entry layers and the extra sub-networks) are recorded; the
//! 2-sub-network one — the benchmark's count — is also held under
//! [`FIXED_COST_GATE`] at the lower quartile of its pairs.

use amalgam_core::trainer::train_image_classifier;
use amalgam_core::{Amalgam, ObfuscationConfig, TrainConfig};
use amalgam_data::{ImagePair, SyntheticImageSpec};
use amalgam_models::lenet5;
use amalgam_nn::graph::GraphModel;
use amalgam_tensor::{simd, Rng};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const AMOUNTS: [f32; 5] = [0.0, 0.25, 0.5, 1.0, 2.0];
const SUBNETS: [usize; 3] = [2, 3, 4];
/// Augmented/plain pairs per cell (alternating order).
const PAIRS: usize = 9;
/// The step ratio of the α = 0.5 / 2-sub-network job reported with the
/// change that last moved it on purpose: the sub-networks' islands train
/// beside the original's on a second thread (PR 38; 2-vCPU reference box,
/// tier `simd`; the median of sixteen runs, 1.04–1.20 but for three at
/// 1.44–1.48 while the box's second vCPU was slow to get). It was 1.55
/// with one thread per step.
const REPORTED_STEP_RATIO: f64 = 1.08;
/// Most the α = 0 / 2-sub-network cell may cost: what two synthetic
/// sub-networks cost when they carry no parameters to speak of. 1.54 before
/// their entry chains ran as one pass, 1.41–1.53 since (fifteen runs of one
/// afternoon, median 1.48): a cell is nine pairs of 20–30 ms epochs and its
/// inter-quartile range is 0.05–0.12, so the median cannot hold a gate this
/// close. The cell fails when its *lower quartile* is over this — it reads
/// 1.38–1.47 now and read 1.53 before the change.
const FIXED_COST_GATE: f64 = 1.48;
/// How far from [`REPORTED_STEP_RATIO`] that cell may drift.
const REPORTED_TOLERANCE: f64 = 0.1;
/// Slack on "non-decreasing in α" beyond the cells' own inter-quartile
/// ranges: neighbouring amounts can differ by less than a tap's cost.
const SHAPE_SLACK: f64 = 0.03;

struct Cell {
    amount: f32,
    subnets: usize,
    ratio: f64,
    q1: f64,
    q3: f64,
    cpu_ratio: f64,
    augmented_ms: f64,
    plain_ms: f64,
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// One epoch with the benchmark's hyper-parameters: `(wall, CPU)` in
/// milliseconds, the CPU the time in the layers on every thread.
fn train_ms(model: &GraphModel, data: &amalgam_data::ImageDataset, tc: &TrainConfig) -> (f64, f64) {
    let mut model = model.clone();
    model.set_profiling(true);
    let start = Instant::now();
    train_image_classifier(&mut model, data, None, 0, tc);
    let wall = start.elapsed();
    let rows = model.profile().into_iter();
    let cpu: Duration = rows.map(|row| row.forward + row.backward).sum();
    (wall.as_secs_f64() * 1e3, cpu.as_secs_f64() * 1e3)
}

fn measure_cell(original: &GraphModel, data: &ImagePair, amount: f32, subnets: usize) -> Cell {
    let tc = TrainConfig::new(1, 16, 0.05).with_momentum(0.9);
    let (mut ratios, mut augmented, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpu_ratios = Vec::new();
    for pair in 0..PAIRS {
        let cfg = ObfuscationConfig::new(amount)
            .with_seed(pair as u64)
            .with_subnets(subnets);
        let bundle = Amalgam::obfuscate(original, data, &cfg).expect("obfuscation");
        let aug = || train_ms(&bundle.augmented_model, &bundle.augmented_train, &tc);
        let base = || train_ms(original, &data.train, &tc);
        let ((aug_ms, aug_cpu), (plain_ms, plain_cpu)) = if pair % 2 == 0 {
            let first = aug();
            (first, base())
        } else {
            let first = base();
            (aug(), first)
        };
        ratios.push(aug_ms / plain_ms);
        cpu_ratios.push(aug_cpu / plain_cpu);
        augmented.push(aug_ms);
        plain.push(plain_ms);
    }
    let ratio = median(&mut ratios);
    Cell {
        amount,
        subnets,
        ratio,
        q1: quantile(&ratios, 0.25),
        q3: quantile(&ratios, 0.75),
        cpu_ratio: median(&mut cpu_ratios),
        augmented_ms: median(&mut augmented),
        plain_ms: median(&mut plain),
    }
}

fn measure() -> Vec<Cell> {
    let mut rng = Rng::seed_from(20);
    let data = SyntheticImageSpec::mnist_like()
        .with_counts(224, 2)
        .with_hw(20)
        .with_classes(10)
        .generate(&mut rng);
    let original = lenet5(1, 20, 10, &mut rng);
    // Warm the kernels, the arena and the allocator on both sides.
    measure_cell(&original, &data, 0.5, 2);
    let mut cells = Vec::new();
    for subnets in SUBNETS {
        for amount in AMOUNTS {
            cells.push(measure_cell(&original, &data, amount, subnets));
        }
    }
    cells
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut check = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_dir = it.next().expect("--out requires a directory").clone(),
            "--check" => check = true,
            other => panic!("unknown option {other} (usage: overhead-quick [--out DIR] [--check])"),
        }
    }
    let hw_threads = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    let cells = std::thread::spawn(measure)
        .join()
        .expect("measurement thread panicked");

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"machine\": {{\"hw_threads\": {hw_threads}, \"kernel_tier\": \"{}\"}},",
        format!("{:?}", simd::active_tier()).to_lowercase()
    );
    let _ = writeln!(
        json,
        "  \"job\": {{\"model\": \"lenet5\", \"hw\": 20, \"images\": 224, \"batch\": 16, \"epochs\": 1, \"pairs\": {PAIRS}}},"
    );
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"alpha\": {:.2}, \"subnets\": {}, \"ratio\": {:.4}, \"q1\": {:.4}, \"q3\": {:.4}, \
             \"cpu_ratio\": {:.4}, \"augmented_ms\": {:.3}, \"plain_ms\": {:.3}}}",
            c.amount, c.subnets, c.ratio, c.q1, c.q3, c.cpu_ratio, c.augmented_ms, c.plain_ms
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let path = format!("{out_dir}/BENCH_overhead.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    print!("{json}");
    println!("wrote {path}");

    let mut failures = Vec::new();
    for row in cells.chunks(AMOUNTS.len()) {
        for pair in row.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            let noise = (lo.q3 - lo.q1).max(hi.q3 - hi.q1) + SHAPE_SLACK;
            if hi.ratio < lo.ratio - noise {
                failures.push(format!(
                    "{} sub-networks: ratio falls from {:.3} at α = {} to {:.3} at α = {} \
                     (noise allowance {noise:.3})",
                    lo.subnets, lo.ratio, lo.amount, hi.ratio, hi.amount
                ));
            }
        }
    }
    let benchmark_job = cells
        .iter()
        .find(|c| c.amount == 0.5 && c.subnets == 2)
        .expect("the benchmark's cell is measured");
    if (benchmark_job.ratio - REPORTED_STEP_RATIO).abs() > REPORTED_TOLERANCE {
        failures.push(format!(
            "α = 0.5 / 2 sub-networks trains at {:.3}x the original, more than \
             {REPORTED_TOLERANCE} from the reported {REPORTED_STEP_RATIO}",
            benchmark_job.ratio
        ));
    }
    for c in cells.iter().filter(|c| c.amount == 0.0) {
        let gated = c.subnets == 2;
        println!(
            "fixed cost at α = 0, {} sub-networks: {:.3}x ({})",
            c.subnets,
            c.ratio,
            if gated {
                format!("lower quartile {:.3}, gated at {FIXED_COST_GATE}", c.q1)
            } else {
                "recorded, not gated".to_string()
            }
        );
        if gated && c.q1 > FIXED_COST_GATE {
            failures.push(format!(
                "α = 0 / 2 sub-networks trains at {:.3}x the original (lower quartile {:.3}), \
                 over the {FIXED_COST_GATE} the fused entry chains brought it under",
                c.ratio, c.q1
            ));
        }
    }
    if check && !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
