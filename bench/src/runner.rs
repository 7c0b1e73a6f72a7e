//! One workload, one process: set-up, the three measured phases, and
//! verification. The traced run drives the same phases through the span
//! wrappers and adds the layer probes.

use crate::adapter::{self, CompletedRequest, Fleet, Inputs, Leg, LocalModel, StepOut};
use crate::metrics::algo_metric;
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::workloads::{Fabric, WorkloadSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is repeated this often in an end-to-end run; `setup_s` is the
/// median, so one slow page-fault storm does not decide it.
const SETUP_REPS: usize = 3;
/// Leading rounds of every wire leg replayed on the in-memory registry.
const CONFORMANCE_ROUNDS: usize = 5;
/// Checkpoints exported during set-up and cycled by the announces.
const CHECKPOINT_POOL: usize = 2;
/// One response in this many is compared with a local forward pass.
const SAMPLE_EVERY: u64 = 1_000;
/// Plain ticks timed per run (the baseline a swap tick is compared with).
const TICK_SAMPLES: usize = 4_096;
/// Spans the traced run may record per phase (the log is written out).
const SPAN_BUDGET: usize = 60_000;

#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Why verification failed, one line per finding.
    pub findings: Vec<String>,
    pub verify_s: f64,
    pub input_digest: u64,
}

/// A leg with the numbers its rounds produced.
struct TrainLeg {
    leg: Leg,
    fixed_rounds: usize,
    /// Losses of the first rounds since construction (warm-up included).
    head_losses: Vec<f32>,
    /// Timed rounds, in order.
    timed: Vec<StepOut>,
}

impl TrainLeg {
    fn step(&mut self, timed: bool) -> StepOut {
        let out = self.leg.step();
        if self.head_losses.len() < CONFORMANCE_ROUNDS {
            self.head_losses.push(out.loss);
        }
        if timed {
            self.timed.push(out);
        }
        out
    }

    fn fixed(&self) -> &[StepOut] {
        &self.timed[..self.fixed_rounds.min(self.timed.len())]
    }

    fn round_s(&self) -> Vec<f64> {
        self.timed.iter().map(|o| o.wall_s).collect()
    }
}

struct Built {
    inputs: Inputs,
    legs: Vec<TrainLeg>,
    /// The P-SGD fleet the churn phase runs on, with every loss it produced.
    churn: Leg,
    churn_losses: Vec<f32>,
    pool: Vec<Vec<u8>>,
    fleet: Fleet,
}

fn setup(spec: &WorkloadSpec, seed: u64, tracer: Option<&Tracer>) -> Result<Built, String> {
    let inputs = Inputs::generate(spec, seed);
    let mut legs = Vec::with_capacity(spec.legs.len());
    for ls in &spec.legs {
        let leg = adapter::build_leg(spec, &inputs.fleet(), spec.fabric, &ls.algo, tracer)?;
        let mut tl = TrainLeg {
            leg,
            fixed_rounds: ls.fixed_rounds,
            head_losses: Vec::new(),
            timed: Vec::new(),
        };
        for _ in 0..ls.warmup {
            tl.step(false);
        }
        legs.push(tl);
    }
    // Always on the wire: in memory a rejoin is a 35 KB memcpy whose speed
    // is decided by where the allocator put the two buffers (±15 % from one
    // process to the next); the chunk plane is what resync means.
    let psgd = adapter::AlgorithmSpec::Psgd;
    let mut churn = adapter::build_leg(spec, &inputs.churn_fleet(), Fabric::Wire, &psgd, tracer)?;
    let mut churn_losses = Vec::new();
    let mut pool = Vec::with_capacity(CHECKPOINT_POOL);
    for _ in 0..CHECKPOINT_POOL {
        churn_losses.push(churn.step().loss);
        pool.push(churn.export_checkpoint()?);
    }
    let fleet = adapter::build_fleet(spec, &inputs, &pool[0], tracer)?;
    Ok(Built {
        inputs,
        legs,
        churn,
        churn_losses,
        pool,
        fleet,
    })
}

// ------------------------------------------------------------ the phases

/// Steps `leg` until it has made `min_rounds` and `budget_s` is spent.
fn run_rounds(leg: &mut TrainLeg, min_rounds: usize, budget_s: f64) {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < budget_s {
        leg.step(true);
        rounds += 1;
    }
}

#[derive(Default)]
struct ChurnStats {
    join_s: Vec<f64>,
    /// Mean join time of each wave. A wave's joins land on different ranks,
    /// so its mean averages out where each replica happens to sit in memory.
    wave_join_s: Vec<f64>,
    /// Frames each join put on the wire.
    join_frames: Vec<u64>,
    model_bytes: u64,
    rounds: u64,
    failed: u64,
}

fn churn_wave(b: &mut Built, wave: usize, stats: &mut ChurnStats) {
    let order = b.inputs.churn[wave % b.inputs.churn.len()].clone();
    for &r in &order {
        if b.churn.set_active(r, false).is_err() {
            stats.failed += 1;
        }
    }
    b.churn_losses.push(b.churn.step().loss);
    let first_join = stats.join_s.len();
    for &r in &order {
        let before = b.churn.wire();
        match b.churn.set_active(r, true) {
            Ok(s) => stats.join_s.push(s),
            Err(_) => stats.failed += 1,
        }
        let after = b.churn.wire();
        stats.join_frames.push(after.frames - before.frames);
        stats.model_bytes += after.model - before.model;
    }
    let joined = &stats.join_s[first_join..];
    stats.wave_join_s.push(mean(joined.iter().copied()));
    b.churn_losses.push(b.churn.step().loss);
    stats.rounds += 2;
}

fn churn_phase(spec: &WorkloadSpec, b: &mut Built, budget_s: f64) -> ChurnStats {
    let mut stats = ChurnStats::default();
    let start = Instant::now();
    let mut wave = 0;
    while wave < spec.fixed_waves || start.elapsed().as_secs_f64() < budget_s {
        churn_wave(b, wave, &mut stats);
        wave += 1;
    }
    stats
}

struct Sampled {
    id: u64,
    version: u64,
    logits: Vec<f32>,
}

#[derive(Default)]
struct ServeStats {
    submitted: u64,
    completed: u64,
    /// Completed requests per second, one sample per block.
    block_rate: Vec<f64>,
    /// Wall time of each block's announce plus the tick that applies it.
    swap_s: Vec<f64>,
    tick_s: Vec<f64>,
    /// `latency[t]` = requests answered after `t` ticks.
    latency: Vec<u64>,
    sampled: Vec<Sampled>,
    findings: Vec<String>,
    announces: u64,
}

impl ServeStats {
    fn latency_percentile(&self, q: f64) -> f64 {
        let total: u64 = self.latency.iter().sum();
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (ticks, &n) in self.latency.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return ticks as f64;
            }
        }
        0.0
    }
}

/// The open-loop request generator's position in the pre-generated streams.
#[derive(Default)]
struct Cursor {
    tick: usize,
    last_version: u64,
    /// Bit `id` is set once request `id` has its response.
    answered: Vec<u64>,
}

/// Books one tick's answers: each must belong to a submitted request not
/// answered before, with model versions that never go back.
fn book_answers(done: &mut [CompletedRequest], cur: &mut Cursor, s: &mut ServeStats) {
    done.sort_by_key(|c| c.id);
    for c in done.iter() {
        let bit = 1u64 << (c.id % 64);
        match cur.answered.get_mut((c.id / 64) as usize) {
            Some(word) if c.id < s.submitted && *word & bit == 0 => *word |= bit,
            _ => s
                .findings
                .push(format!("request {}: unknown or answered twice", c.id)),
        }
        if c.model_version < cur.last_version {
            s.findings
                .push(format!("request {}: model version went back", c.id));
        }
        cur.last_version = c.model_version;
        let t = c.latency_ticks as usize;
        if s.latency.len() <= t {
            s.latency.resize(t + 1, 0);
        }
        s.latency[t] += 1;
        if c.id.is_multiple_of(SAMPLE_EVERY) {
            s.sampled.push(Sampled {
                id: c.id,
                version: c.model_version,
                logits: c.logits.clone(),
            });
        }
    }
    s.completed += done.len() as u64;
}

/// One block: announce the next checkpoint, then submit arrivals tick by
/// tick until `swap_every` requests are in. Request `id` carries feature
/// row `id % pool`, which is how verification finds its input again.
fn serve_block(
    spec: &WorkloadSpec,
    b: &mut Built,
    cur: &mut Cursor,
    s: &mut ServeStats,
) -> Result<(), String> {
    let block_start = Instant::now();
    let ckpt = b.pool[s.announces as usize % b.pool.len()].clone();
    b.fleet.announce(ckpt)?;
    s.announces += 1;
    let mut in_block = 0usize;
    while in_block < spec.serve.swap_every {
        let t = Instant::now();
        let k = b.inputs.arrivals[cur.tick % b.inputs.arrivals.len()] as usize;
        for j in 0..k {
            let row = s.submitted as usize % b.inputs.features.len();
            let client = (j as u32) % spec.serve.clients;
            let id = b.fleet.submit(client, b.inputs.features[row].clone())?;
            if id != s.submitted {
                s.findings
                    .push(format!("request ids are not sequential at {id}"));
            }
            if s.submitted.is_multiple_of(64) {
                cur.answered.push(0);
            }
            s.submitted += 1;
        }
        b.fleet.tick()?;
        book_answers(&mut b.fleet.take_completed(), cur, s);
        cur.tick += 1;
        if in_block == 0 {
            s.swap_s.push(block_start.elapsed().as_secs_f64());
        } else if s.tick_s.len() < TICK_SAMPLES {
            s.tick_s.push(t.elapsed().as_secs_f64());
        }
        in_block += k.max(1);
    }
    s.block_rate
        .push(in_block as f64 / block_start.elapsed().as_secs_f64());
    Ok(())
}

fn serve_phase(spec: &WorkloadSpec, b: &mut Built, budget_s: f64) -> Result<ServeStats, String> {
    let mut s = ServeStats::default();
    let mut cur = Cursor::default();
    let start = Instant::now();
    let mut blocks = 0;
    while blocks < spec.serve.fixed_blocks || start.elapsed().as_secs_f64() < budget_s {
        serve_block(spec, b, &mut cur, &mut s)?;
        blocks += 1;
    }
    // Nothing should be in flight; give stragglers a few ticks anyway.
    for _ in 0..8 {
        if s.completed >= s.submitted {
            break;
        }
        b.fleet.tick()?;
        book_answers(&mut b.fleet.take_completed(), &mut cur, &mut s);
    }
    Ok(s)
}

// ---------------------------------------------------------- verification

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

struct Phases {
    churn: ChurnStats,
    serve: ServeStats,
}

/// Checks the outputs after timing; returns one line per failure.
fn verify(spec: &WorkloadSpec, b: &mut Built, p: &Phases, final_loss: f64) -> Vec<String> {
    let mut bad = p.serve.findings.clone();
    for tl in &b.legs {
        if tl.timed.iter().any(|o| !o.loss.is_finite()) {
            bad.push(format!("{}: a round's loss is not finite", tl.leg.key));
        }
        if tl.leg.model_len() != spec.model_len() {
            bad.push(format!(
                "{}: the trainer has {} parameters, the workload's shape {}",
                tl.leg.key,
                tl.leg.model_len(),
                spec.model_len()
            ));
        }
    }
    if b.churn_losses.iter().any(|l| !l.is_finite()) {
        bad.push("churn: a round's loss is not finite".into());
    }
    if final_loss.is_nan() || final_loss >= spec.loss_ceiling {
        bad.push(format!(
            "final_loss {final_loss} is not under the ceiling {}",
            spec.loss_ceiling
        ));
    }

    if spec.fabric == Fabric::Wire {
        // The repository's conformance contract: the in-memory registry,
        // given the same inputs, produces bit-equal per-round losses.
        for (tl, ls) in b.legs.iter().zip(&spec.legs) {
            match adapter::build_leg(spec, &b.inputs.fleet(), Fabric::Memory, &ls.algo, None) {
                Ok(mut twin) => {
                    let losses: Vec<f32> = (0..tl.head_losses.len())
                        .map(|_| twin.step().loss)
                        .collect();
                    if bits(&losses) != bits(&tl.head_losses) {
                        bad.push(format!(
                            "{}: wire losses {:?} differ from in-memory {:?}",
                            tl.leg.key, tl.head_losses, losses
                        ));
                    }
                }
                Err(e) => bad.push(format!("{}: in-memory twin: {e}", tl.leg.key)),
            }
            let w = tl.leg.wire();
            if w.total != w.data + w.control + w.model + w.serve {
                bad.push(format!(
                    "{}: wire classes do not sum to the total",
                    tl.leg.key
                ));
            }
            if tl.leg.key == "saps" && (w.data != tl.leg.worker_rows_sent() || w.data % 4 != 0) {
                bad.push(format!(
                    "saps: worker rows {} B are not the framed values sections {} B",
                    tl.leg.worker_rows_sent(),
                    w.data
                ));
            }
        }
    }

    // The same churn schedule in memory, bit-equal after every wave.
    let psgd = adapter::AlgorithmSpec::Psgd;
    match adapter::build_leg(spec, &b.inputs.churn_fleet(), Fabric::Memory, &psgd, None) {
        Ok(mut twin) => {
            let mut losses: Vec<f32> = (0..CHECKPOINT_POOL).map(|_| twin.step().loss).collect();
            for wave in 0..spec.fixed_waves {
                let order = &b.inputs.churn[wave % b.inputs.churn.len()];
                for active in [false, true] {
                    for &r in order {
                        if let Err(e) = twin.set_active(r, active) {
                            bad.push(format!("churn twin: {e}"));
                        }
                    }
                    losses.push(twin.step().loss);
                }
            }
            if bits(&losses) != bits(&b.churn_losses[..losses.len().min(b.churn_losses.len())]) {
                bad.push("churn: wire losses differ from the in-memory schedule".into());
            }
        }
        Err(e) => bad.push(format!("churn twin: {e}")),
    }
    let blob = b.pool[0].len() as u64;
    if p.churn.model_bytes < p.churn.join_s.len() as u64 * blob {
        bad.push(format!(
            "churn: {} model-plane bytes for {} joins of a {blob} B checkpoint",
            p.churn.model_bytes,
            p.churn.join_s.len()
        ));
    }

    if p.serve.completed != p.serve.submitted {
        bad.push(format!(
            "serve: {} of {} requests answered",
            p.serve.completed, p.serve.submitted
        ));
    }
    let totals = b.fleet.replica_totals();
    if totals.min_version != p.serve.announces
        || totals.rejected_announces != 0
        || totals.rejected_requests != 0
    {
        bad.push(format!(
            "serve: after {} announces a replica is at version {}; {} announces and {} requests rejected",
            p.serve.announces,
            totals.min_version,
            totals.rejected_announces,
            totals.rejected_requests
        ));
    }
    // Version v was announce number v; the announces cycle the pool.
    let locals: Result<Vec<LocalModel>, String> = b
        .pool
        .iter()
        .map(|ckpt| LocalModel::from_checkpoint(spec, ckpt))
        .collect();
    match locals {
        Ok(mut locals) => {
            for smp in &p.serve.sampled {
                let slot = (smp.version.max(1) as usize - 1) % locals.len();
                let row = smp.id as usize % b.inputs.features.len();
                if bits(&locals[slot].logits(&b.inputs.features[row])) != bits(&smp.logits) {
                    bad.push(format!(
                        "serve: a version-{} response differs from the local forward pass",
                        smp.version
                    ));
                    break;
                }
            }
        }
        Err(e) => bad.push(format!("serve: checkpoint pool: {e}")),
    }
    bad
}

// --------------------------------------------------------------- results

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    sum / n.max(1) as f64
}

/// Rounds per second of making one round of every leg: legs ÷ the sum of
/// their mean round times. The mean, not the median: SAPS planning pays for
/// a bridge pass every `tthres`-th round, and a median would hide it.
fn rounds_per_s(legs: &[TrainLeg]) -> f64 {
    legs.len() as f64
        / legs
            .iter()
            .map(|l| mean(l.round_s().into_iter()))
            .sum::<f64>()
}

fn kb_per_worker_round(spec: &WorkloadSpec, tl: &TrainLeg) -> f64 {
    let fixed = tl.fixed();
    fixed.iter().map(|o| o.bytes).sum::<u64>() as f64
        / (spec.workers * fixed.len().max(1)) as f64
        / 1e3
}

/// Mean over legs of the mean loss over the later half of the fixed rounds
/// (one round of batch 2 on 8 workers is 16 samples; a single round's loss
/// would mostly measure which samples were drawn).
fn final_loss(legs: &[TrainLeg]) -> f64 {
    mean(legs.iter().map(|l| {
        let fixed = l.fixed();
        mean(fixed[fixed.len() / 2..].iter().map(|o| f64::from(o.loss)))
    }))
}

fn resync_mb_per_s(b: &Built, churn: &ChurnStats) -> f64 {
    b.pool[0].len() as f64 / 1e6 / median(&churn.wave_join_s)
}

/// Verifies the outputs and books the operation counts into `out`.
fn finish(spec: &WorkloadSpec, b: &mut Built, p: &Phases, out: &mut Outcome) {
    let t = Instant::now();
    out.findings = verify(spec, b, p, final_loss(&b.legs));
    out.verify_s = t.elapsed().as_secs_f64();
    out.correct = out.findings.is_empty();
    count_ops(b, p, out);
    out.failed += out.findings.len() as u64;
}

fn count_ops(b: &Built, p: &Phases, out: &mut Outcome) {
    let rounds: u64 = b.legs.iter().map(|l| l.timed.len() as u64).sum();
    out.attempted =
        rounds + p.churn.rounds + p.churn.join_s.len() as u64 + p.churn.failed + p.serve.submitted;
    let bad_rounds = b
        .legs
        .iter()
        .flat_map(|l| &l.timed)
        .filter(|o| !o.loss.is_finite())
        .count() as u64;
    out.failed = bad_rounds + p.churn.failed + p.serve.submitted.saturating_sub(p.serve.completed);
}

/// The end-to-end run: tracing off, nothing wrapped.
pub fn run(spec: &WorkloadSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(spec, seed, None)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut b = built.expect("SETUP_REPS is at least one");

    let per_leg = seconds * spec.shares[0] / b.legs.len() as f64;
    for tl in &mut b.legs {
        let fixed = tl.fixed_rounds;
        run_rounds(tl, fixed, per_leg);
    }
    let churn = churn_phase(spec, &mut b, seconds * spec.shares[1]);
    let serve = serve_phase(spec, &mut b, seconds * spec.shares[2])?;
    let phases = Phases { churn, serve };

    let mut out = Outcome {
        input_digest: b.inputs.digest(),
        ..Outcome::default()
    };
    let m = &mut out.metrics;
    m.insert("setup_s".into(), median(&setups));
    m.insert("rounds_per_s".into(), rounds_per_s(&b.legs));
    m.insert("resync_mb_per_s".into(), resync_mb_per_s(&b, &phases.churn));
    m.insert("req_per_s".into(), median(&phases.serve.block_rate));
    m.insert(
        "latency_p99_ticks".into(),
        phases.serve.latency_percentile(0.99),
    );
    m.insert(
        "traffic_kb_per_worker_round".into(),
        mean(b.legs.iter().map(|l| kb_per_worker_round(spec, l))),
    );
    m.insert(
        "sim_comm_ms_per_round".into(),
        mean(
            b.legs
                .iter()
                .map(|l| 1e3 * mean(l.fixed().iter().map(|o| o.comm_s))),
        ),
    );
    m.insert("final_loss".into(), final_loss(&b.legs));

    finish(spec, &mut b, &phases, &mut out);
    out.metrics.insert("peak_rss_mb".into(), peak_rss_mb());
    Ok(out)
}

// ------------------------------------------------------------- traced run

/// Rounds of the in-memory / other-fabric twin timed per configuration.
const TWIN_ROUNDS: usize = 10;

fn twin_median(leg: &mut Leg, rounds: usize) -> f64 {
    median(&(0..rounds).map(|_| leg.step().wall_s).collect::<Vec<_>>())
}

/// Where `bench/out` is: next to the package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The traced run: every trainer and transport the constructors let us wrap
/// is wrapped, each leg runs half untraced and half traced, and the layer
/// probes replay the workload's shapes. Prints nothing; returns every
/// per-layer metric.
pub fn run_traced(spec: &WorkloadSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let tracer = Tracer::default();
    let mut b = setup(spec, seed, Some(&tracer))?;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for (name, _, _) in crate::metrics::per_layer() {
        m.insert(name, 0.0);
    }

    // Train: untraced then traced rounds on every leg.
    let budget = 0.4 * seconds * spec.shares[0] / b.legs.len() as f64 / 2.0;
    let mut traced_rounds = vec![0usize; b.legs.len()];
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    for (i, tl) in b.legs.iter_mut().enumerate() {
        let min = (tl.fixed_rounds / 4).max(3);
        run_rounds(tl, min, budget);
        let untraced = tl.timed.len();
        let first_span = tracer.span_count();
        tracer.set_enabled(true);
        let start = Instant::now();
        while traced_rounds[i] < min || start.elapsed().as_secs_f64() < budget {
            if tracer.span_count() - first_span > SPAN_BUDGET {
                break;
            }
            tl.step(true);
            traced_rounds[i] += 1;
        }
        tracer.set_enabled(false);
        if i == spec.focus {
            untraced_s = tl.round_s()[..untraced].to_vec();
            traced_s = tl.round_s()[untraced..].to_vec();
        }
        // The per-leg numbers come from the untraced rounds only.
        tl.timed.truncate(untraced);
        tl.fixed_rounds = untraced;
    }
    let train_spans = tracer.spans();

    // Churn and serve are traced whole, up to a span allowance each (their
    // metrics come from counters and call times, not from span counts).
    tracer.set_enabled(true);
    tracer.allow(SPAN_BUDGET);
    let churn = churn_phase(spec, &mut b, 0.4 * seconds * spec.shares[1]);
    tracer.allow(SPAN_BUDGET);
    let serve = serve_phase(spec, &mut b, 0.4 * seconds * spec.shares[2])?;
    tracer.set_enabled(false);
    let phases = Phases { churn, serve };

    // driver
    let focus = &b.legs[spec.focus];
    // Shares are taken of the mean round: planning is periodic, so the
    // median round is one without the bridge pass.
    let round_s = mean(untraced_s.iter().copied());
    m.insert("driver.round_ms_mean".into(), 1e3 * round_s);
    m.insert("driver.round_ms_p50".into(), 1e3 * median(&untraced_s));
    m.insert(
        "driver.round_ms_p95".into(),
        1e3 * percentile(&untraced_s, 0.95),
    );
    m.insert(
        "driver.samples_per_s".into(),
        (spec.workers * spec.batch) as f64 / round_s,
    );
    m.insert(
        "driver.tracing_overhead_ratio".into(),
        median(&traced_s) / median(&untraced_s),
    );

    // proto / cluster counters of the focus leg, per untraced round.
    let rounds = focus.timed.len().max(1) as f64;
    let frames = focus.timed.iter().map(|o| o.frames).sum::<u64>() as f64 / rounds;
    let bytes = focus.timed.iter().map(|o| o.bytes).sum::<u64>() as f64 / rounds;
    let wire = focus.leg.wire();
    if focus.leg.is_wire() {
        m.insert("proto.frames_per_round".into(), frames);
        m.insert("proto.bytes_per_round".into(), bytes);
        if wire.data > 0 {
            m.insert(
                "proto.overhead_ratio".into(),
                wire.total as f64 / wire.data as f64,
            );
        }
    }
    // Transport spans exist where a constructor took a transport (the SAPS
    // wire leg); elsewhere every frame is one send and one receive.
    let focus_traced = traced_rounds[spec.focus].max(1) as f64;
    let by_name = trace::self_time_by_name(&train_spans);
    let (send_ns, sends) = by_name.get("send").copied().unwrap_or((0, 0));
    let (recv_ns, recvs) = by_name.get("recv").copied().unwrap_or((0, 0));
    let busy_s = (send_ns + recv_ns) as f64 / 1e9 / focus_traced;
    if sends > 0 {
        m.insert("cluster.transport_busy_ms_per_round".into(), 1e3 * busy_s);
        m.insert(
            "cluster.send_calls_per_round".into(),
            sends as f64 / focus_traced,
        );
        m.insert(
            "cluster.recv_calls_per_round".into(),
            recvs as f64 / focus_traced,
        );
    } else if focus.leg.is_wire() {
        m.insert("cluster.send_calls_per_round".into(), frames);
        m.insert("cluster.recv_calls_per_round".into(), frames);
    }

    // baselines: every leg on its own, and against its twin on the other
    // fabric (same inputs), which is the wire tax per algorithm.
    let other = match spec.fabric {
        Fabric::Memory => Fabric::Wire,
        Fabric::Wire => Fabric::Memory,
    };
    let mut focus_twin = None;
    for (i, (tl, ls)) in b.legs.iter().zip(&spec.legs).enumerate() {
        let own = median(&tl.round_s());
        m.insert(algo_metric(tl.leg.key, "rounds_per_s"), 1.0 / own);
        m.insert(
            algo_metric(tl.leg.key, "traffic_kb_per_worker_round"),
            kb_per_worker_round(spec, tl),
        );
        let mut twin = adapter::build_leg(spec, &b.inputs.fleet(), other, &ls.algo, None)?;
        twin_median(&mut twin, 2);
        let theirs = twin_median(&mut twin, TWIN_ROUNDS);
        let tax = match spec.fabric {
            Fabric::Wire => own / theirs,
            Fabric::Memory => theirs / own,
        };
        m.insert(algo_metric(tl.leg.key, "wire_tax_ratio"), tax);
        if i == spec.focus {
            m.insert("cluster.wire_tax_ratio".into(), tax);
            focus_twin = Some(twin);
        }
    }

    // runtime / telemetry: the focus algorithm in memory, 2 threads against
    // 1, and with a live recorder against none.
    let mut mem = match (spec.fabric, focus_twin) {
        (Fabric::Wire, Some(twin)) => twin,
        _ => adapter::build_leg(
            spec,
            &b.inputs.fleet(),
            Fabric::Memory,
            &spec.legs[spec.focus].algo,
            None,
        )?,
    };
    twin_median(&mut mem, 2);
    let seq = twin_median(&mut mem, TWIN_ROUNDS);
    mem.threads = 2;
    m.insert(
        "runtime.par_speedup_2t".into(),
        seq / twin_median(&mut mem, TWIN_ROUNDS),
    );
    mem.threads = 1;
    mem.recorder = Some(adapter::live_recorder());
    m.insert(
        "telemetry.overhead_ratio".into(),
        twin_median(&mut mem, TWIN_ROUNDS) / seq,
    );

    // cluster: the chunk plane as the joins saw it.
    let blob = b.pool[0].len() as f64;
    let join_s = median(&phases.churn.join_s);
    m.insert("cluster.join_ms_p50".into(), 1e3 * join_s);
    let chunks = (blob / 65_536.0).ceil();
    m.insert("cluster.chunks_per_join".into(), chunks);
    m.insert("cluster.chunk_us".into(), 1e6 * join_s / chunks);
    let least = phases.churn.join_frames.iter().copied().min().unwrap_or(0);
    m.insert(
        "cluster.resync_retries".into(),
        phases
            .churn
            .join_frames
            .iter()
            .map(|f| f - least)
            .sum::<u64>() as f64,
    );
    m.insert(
        "cluster.resync_overhead_ratio".into(),
        phases.churn.model_bytes as f64 / (phases.churn.join_s.len() as f64 * blob),
    );

    // serve
    let totals = b.fleet.replica_totals();
    m.insert(
        "serve.latency_p50_ticks".into(),
        phases.serve.latency_percentile(0.5),
    );
    m.insert(
        "serve.batch_occupancy".into(),
        totals.batched_rows as f64 / totals.batches.max(1) as f64,
    );
    m.insert(
        "serve.swap_ms_p50".into(),
        1e3 * (median(&phases.serve.swap_s) - median(&phases.serve.tick_s)).max(0.0),
    );
    m.insert(
        "serve.rejected_requests".into(),
        totals.rejected_requests as f64,
    );

    // core.evaluate_ms on the focus leg, then the probes.
    let (_, eval_s) = b.legs[spec.focus].leg.evaluate(&b.inputs.val, 512);
    m.insert("core.evaluate_ms".into(), 1e3 * eval_s);
    m.insert("data.generate_ms".into(), 1e3 * b.inputs.generate_s);
    m.insert("data.partition_ms".into(), 1e3 * b.inputs.partition_s);
    for (name, v) in adapter::layer_probes(spec, &b.inputs) {
        m.insert(name.into(), v);
    }

    // Shares of the focus leg's round: per-op time x ops per round.
    let is_saps = b.legs[spec.focus].leg.key == "saps";
    let w = spec.workers as f64;
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let nn = get(&m, "nn.sgd_step_us") * 1e-6 * w / round_s;
    let (plan, compress, netsim) = if is_saps {
        let matched = 2.0 * get(&m, "core.plan_pairs_per_round");
        let regen = if b.legs[spec.focus].leg.is_wire() {
            w
        } else {
            1.0
        };
        let mask = regen * get(&m, "compress.mask_regenerate_us")
            + matched * (get(&m, "compress.mask_apply_us") + get(&m, "compress.mask_average_us"));
        (
            get(&m, "core.plan_ms") * 1e-3 / round_s,
            mask * 1e-6 / round_s,
            get(&m, "netsim.price_p2p_ms") * 1e-3 / round_s,
        )
    } else {
        (
            0.0,
            0.0,
            get(&m, "netsim.price_allreduce_ms") * 1e-3 / round_s,
        )
    };
    let proto = if b.legs[spec.focus].leg.is_wire() {
        let per_byte =
            1.0 / get(&m, "proto.encode_mb_per_s") + 1.0 / get(&m, "proto.decode_mb_per_s");
        bytes / 1e6 * per_byte / round_s
    } else {
        0.0
    };
    let cluster = busy_s / round_s;
    m.insert("nn.share".into(), nn);
    m.insert("core.plan_share".into(), plan);
    m.insert("compress.share".into(), compress);
    m.insert("netsim.share".into(), netsim);
    m.insert("proto.share".into(), proto);
    m.insert("cluster.share".into(), cluster);
    m.insert(
        "driver.unattributed_share".into(),
        1.0 - (nn + plan + compress + netsim + proto + cluster),
    );

    let spans = tracer.spans();
    trace::write_jsonl(
        &out_dir().join(format!("trace-{}.jsonl", spec.name)),
        &spans,
    )
    .map_err(|e| format!("writing the span log: {e}"))?;

    let mut out = Outcome {
        metrics: m,
        input_digest: b.inputs.digest(),
        ..Outcome::default()
    };
    finish(spec, &mut b, &phases, &mut out);
    Ok(out)
}
