//! Repeated inject → evaluate → restore fault-injection campaigns.
//!
//! Two stopping rules share one trial engine:
//!
//! * [`Campaign::run`] — the classic fixed-trial-count campaign (the paper's
//!   Figs. 5/6 protocol): uniform sites, one accuracy sample per trial,
//! * [`Campaign::run_until`] — the statistical campaign: trials are
//!   stratified by layer / bit class, each trial is classified as masked /
//!   tolerable SDC / critical SDC, and batches keep launching until the
//!   pooled critical-SDC Wilson interval is narrower than a target ε (or the
//!   trial budget runs out). Because the interval tightens fastest exactly
//!   when the answer is lopsided — which low fault rates make the common
//!   case — typical campaigns stop at a fraction of the fixed budget a
//!   worst-case-variance design would need.
//!
//! Under the default [`TrialEngine::CheckpointResumed`] engine both stopping
//! rules evaluate trials from cached clean layer activations
//! ([`CheckpointCache`]): the fault-free forward runs once per campaign and
//! each trial re-executes only the layers downstream of its faults,
//! bit-identically to the full-forward engine. Threads pull trials one at a
//! time from a shared counter and each point lands at its trial's index.
//!
//! # Determinism and resume
//!
//! A trial is a pure function of `(seed, stratum, index)` and the restored
//! parameters. Everything else a statistical campaign decides — each
//! round's plan, when a round is complete, when to stop, the final report —
//! is decided by one [`CampaignDriver`] from the merged pools alone. The
//! in-process loop ([`Campaign::run_until_resumable`]) and the distributed
//! coordinator both feed trial points into a driver, so their reports are
//! bit-identical. Resume rebuilds the driver from checkpointed pools: it
//! replays the rounds they complete and refuses pools holding a trial the
//! configuration has not scheduled.

use crate::checkpoint::{CheckpointCache, ResumePlan};
use crate::map::MemoryMap;
use crate::model::{FaultModel, TransientBitFlip, TrialContext};
use crate::stats::{
    stratified_half_width, stratum_sigma, z_for_confidence, StratumPool, TrialOutcome, TrialPoint,
    WilsonInterval,
};
use crate::strata::{StratifiedSampler, StratumSpec};
use crate::FaultError;
use fitact_nn::metrics::SampleStats;
use fitact_nn::{Network, NetworkSnapshot};
use fitact_tensor::matmul::serial_scope;
use fitact_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Identifies the per-trial RNG stream derivation this build uses.
///
/// Campaign checkpoints and the distributed work-unit protocol embed this tag
/// so that state written by one build is only ever resumed or extended by a
/// build that derives identical fault streams — a silent derivation change
/// would otherwise merge incompatible trials into one report.
pub const TRIAL_STREAM_PROVENANCE: &str = "splitmix64/(seed, stratum, trial) v1";

/// Derives the RNG-stream seed of one trial from the campaign seed, the
/// stratum index and the trial index (SplitMix64 finalisation).
///
/// A trial's faults depend only on this triple — never on which worker ran
/// the trial or what ran before it — which is what keeps campaigns
/// bit-identical across worker-thread counts. Stratum 0 reproduces the
/// pre-stratification derivation, so uniform campaigns draw the same fault
/// sites they always have.
pub(crate) fn trial_stream_seed(seed: u64, stratum: usize, trial: usize) -> u64 {
    let seed = seed ^ (stratum as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    let mut z = seed ^ (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of one fixed-trial-count campaign (one point in the paper's
/// Fig. 5 / Fig. 6 plots: one network, one fault rate, many trials).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Per-bit fault rate (the paper sweeps 1e-7 … 3e-5).
    pub fault_rate: f64,
    /// Number of independent fault-injection trials.
    pub trials: usize,
    /// Evaluation batch size.
    pub batch_size: usize,
    /// Seed for the fault-site sampler.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            fault_rate: 1e-6,
            trials: 20,
            batch_size: 64,
            seed: 0,
        }
    }
}

impl CampaignConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidConfig`] for zero trials/batch size or a
    /// negative fault rate.
    pub fn validate(&self) -> Result<(), FaultError> {
        if self.trials == 0 {
            return Err(FaultError::InvalidConfig("trials must be non-zero".into()));
        }
        if self.batch_size == 0 {
            return Err(FaultError::InvalidConfig(
                "batch_size must be non-zero".into(),
            ));
        }
        if self.fault_rate < 0.0 {
            return Err(FaultError::InvalidConfig(format!(
                "fault_rate must be non-negative, got {}",
                self.fault_rate
            )));
        }
        Ok(())
    }
}

/// How each round's trial budget is split across the strata.
///
/// Both policies are **deterministic functions of merged pool state** — the
/// scheduling determinism contract of `docs/distributed.md` holds for
/// either, so serial, threaded, checkpoint-resumed and distributed runs
/// stay bit-identical under both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocationPolicy {
    /// The classic round-robin split: every stratum receives
    /// `round_trials` fresh trials per round (within one of equal at a
    /// truncated final round). This is the legacy behaviour, byte-for-byte.
    #[default]
    Equal,
    /// Neyman (variance-proportional) allocation: the round budget goes to
    /// strata proportional to `w_h · σ̃_h` — population weight times the
    /// Wilson-centre standard-deviation estimate of the stratum's
    /// critical-SDC rate — with a per-stratum floor
    /// ([`StatCampaignConfig::floor_trials`]) so no stratum starves. High-
    /// variance strata (exponent bits, early layers) absorb the budget and
    /// the stratified estimator tightens in fewer trials.
    Neyman,
}

impl AllocationPolicy {
    /// Short lowercase name — the CLI `--allocation` value and the report's
    /// `allocation` field.
    pub fn name(self) -> &'static str {
        match self {
            AllocationPolicy::Equal => "equal",
            AllocationPolicy::Neyman => "neyman",
        }
    }

    /// Parses a policy name as `--allocation` accepts it.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "equal" => Some(AllocationPolicy::Equal),
            "neyman" => Some(AllocationPolicy::Neyman),
            _ => None,
        }
    }
}

/// Configuration of a statistical (stratified, sequentially-stopped)
/// campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct StatCampaignConfig {
    /// Per-bit fault rate applied within each stratum.
    pub fault_rate: f64,
    /// Evaluation batch size.
    pub batch_size: usize,
    /// Seed for the per-trial fault streams.
    pub seed: u64,
    /// Target half-width of the pooled critical-SDC Wilson interval: the
    /// campaign stops as soon as the interval is at least this tight.
    pub epsilon: f64,
    /// Two-sided confidence level of the reported intervals (e.g. `0.95`).
    pub confidence: f64,
    /// Top-1 accuracy drop beyond which a trial counts as critical SDC.
    pub critical_threshold: f32,
    /// Trials launched per stratum per round (one parallel batch).
    pub round_trials: usize,
    /// Minimum total trials before early stopping may trigger.
    pub min_trials: usize,
    /// Total-trial budget: the final round is truncated so the campaign
    /// never exceeds it, and stops (unconverged) once it is reached.
    pub max_trials: usize,
    /// The strata trials are drawn from. Defaults to the sign / exponent /
    /// mantissa bit-class split.
    pub strata: Vec<StratumSpec>,
    /// How each round's budget is split across the strata.
    pub allocation: AllocationPolicy,
    /// Minimum trials every stratum receives per round under
    /// [`AllocationPolicy::Neyman`] (ignored under `Equal`, where every
    /// stratum receives `round_trials`). A floor of at least 1 keeps every
    /// Wilson interval accumulating calibration trials no matter how small
    /// the stratum's estimated variance becomes.
    pub floor_trials: usize,
}

impl Default for StatCampaignConfig {
    fn default() -> Self {
        StatCampaignConfig {
            fault_rate: 1e-6,
            batch_size: 64,
            seed: 0,
            epsilon: 0.02,
            confidence: 0.95,
            critical_threshold: 0.05,
            round_trials: 8,
            min_trials: 24,
            max_trials: 512,
            strata: StratumSpec::by_bit_class(),
            allocation: AllocationPolicy::Equal,
            floor_trials: 1,
        }
    }
}

impl StatCampaignConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::NonPositiveEpsilon`] for ε ≤ 0,
    /// [`FaultError::EmptyStrata`] for an empty stratum list,
    /// [`FaultError::EmptyStratum`] for a stratum with no bit classes, and
    /// [`FaultError::InvalidConfig`] for the remaining range violations.
    pub fn validate(&self) -> Result<(), FaultError> {
        if self.epsilon <= 0.0 || !self.epsilon.is_finite() {
            return Err(FaultError::NonPositiveEpsilon(self.epsilon));
        }
        if self.strata.is_empty() {
            return Err(FaultError::EmptyStrata);
        }
        for spec in &self.strata {
            if spec.bit_classes.is_empty() {
                return Err(FaultError::EmptyStratum(spec.label.clone()));
            }
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(FaultError::InvalidConfig(format!(
                "confidence must be inside (0, 1), got {}",
                self.confidence
            )));
        }
        if !(0.0..=1.0).contains(&self.critical_threshold) {
            return Err(FaultError::InvalidConfig(format!(
                "critical_threshold must be in [0, 1], got {}",
                self.critical_threshold
            )));
        }
        if self.fault_rate < 0.0 {
            return Err(FaultError::InvalidConfig(format!(
                "fault_rate must be non-negative, got {}",
                self.fault_rate
            )));
        }
        if self.batch_size == 0 {
            return Err(FaultError::InvalidConfig(
                "batch_size must be non-zero".into(),
            ));
        }
        if self.round_trials == 0 {
            return Err(FaultError::InvalidConfig(
                "round_trials must be non-zero".into(),
            ));
        }
        if self.max_trials == 0 || self.max_trials < self.min_trials {
            return Err(FaultError::InvalidConfig(format!(
                "max_trials ({}) must be non-zero and at least min_trials ({})",
                self.max_trials, self.min_trials
            )));
        }
        if self.floor_trials == 0 || self.floor_trials > self.round_trials {
            return Err(FaultError::InvalidConfig(format!(
                "floor_trials ({}) must be in 1..=round_trials ({})",
                self.floor_trials, self.round_trials
            )));
        }
        Ok(())
    }
}

/// The outcome of a fixed-trial-count campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Per-trial top-1 accuracy (fraction in `[0, 1]`).
    pub accuracies: Vec<f32>,
    /// Summary statistics over the trials.
    pub stats: SampleStats,
    /// Accuracy of the (quantised) network without any injected fault.
    pub fault_free_accuracy: f32,
    /// Total number of bit flips injected across all trials.
    pub total_faults: u64,
    /// The fault rate the campaign was run at.
    pub fault_rate: f64,
}

impl CampaignResult {
    /// Mean accuracy over the trials, or `0.0` for an empty campaign (a
    /// zero-trial result must not poison downstream aggregation with NaN).
    pub fn mean_accuracy(&self) -> f32 {
        if self.stats.count == 0 {
            0.0
        } else {
            self.stats.mean
        }
    }
}

/// One stratum's share of a statistical campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumReport {
    /// The stratum's label (from its [`StratumSpec`]).
    pub label: String,
    /// Number of bits in the stratum's fault population.
    pub population_bits: u64,
    /// The stratum's share of the total fault-space population — the weight
    /// `w_h` of the stratified estimator (weights sum to 1).
    pub weight: f64,
    /// Per-trial top-1 accuracies, in trial order.
    pub accuracies: Vec<f32>,
    /// Trials whose accuracy did not drop below the fault-free baseline.
    pub masked: usize,
    /// Trials with an accuracy drop within the critical threshold.
    pub tolerable: usize,
    /// Trials with an accuracy drop beyond the critical threshold.
    pub critical: usize,
    /// Total faults injected across the stratum's trials.
    pub total_faults: u64,
    /// Wilson interval of the stratum's critical-SDC rate.
    pub critical_ci: WilsonInterval,
    /// Wilson interval of the stratum's overall SDC rate (tolerable +
    /// critical).
    pub sdc_ci: WilsonInterval,
}

impl StratumReport {
    /// Number of trials run in this stratum.
    pub fn trials(&self) -> usize {
        self.accuracies.len()
    }

    /// Mean accuracy over the stratum's trials (`0.0` when empty).
    pub fn mean_accuracy(&self) -> f32 {
        crate::stats::mean_or_zero(&self.accuracies)
    }

    /// Point estimate of the critical-SDC rate.
    pub fn critical_rate(&self) -> f64 {
        self.critical_ci.point()
    }

    /// Point estimate of the SDC rate (tolerable + critical).
    pub fn sdc_rate(&self) -> f64 {
        self.sdc_ci.point()
    }
}

/// The outcome of a statistical campaign: per-stratum outcome counts with
/// Wilson confidence intervals, plus the stopping diagnostics.
///
/// Reading the intervals: `critical_ci` brackets the probability that one
/// trial of this stratum (faults at the configured rate, sites uniform over
/// the stratum) degrades top-1 accuracy by more than the critical threshold.
/// The campaign stops once the *pooled* interval ([`CampaignReport::pooled_critical`])
/// has half-width ≤ ε, so `converged == true` means the pooled rate is known
/// to ±ε at the configured confidence.
///
/// Note that the pooled rate is the **equal-allocation stratified mean**
/// (every stratum contributes the same number of trials), *not* the rate a
/// uniform fault model over the whole memory would show — with the
/// bit-class strata, a sign-stratum trial counts as much as a mantissa
/// trial even though the mantissa population is 16× larger. The per-stratum
/// intervals are the population-faithful quantities; for a
/// population-weighted point estimate use
/// [`CampaignReport::population_weighted_critical_rate`], and for the plain
/// uniform rate run a single [`StratumSpec::all`] stratum.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Accuracy of the (quantised) network without any injected fault.
    pub fault_free_accuracy: f32,
    /// The per-bit fault rate the campaign ran at.
    pub fault_rate: f64,
    /// Name of the fault model that was injected.
    pub model: String,
    /// The configured confidence level of every interval in the report.
    pub confidence: f64,
    /// The configured target half-width.
    pub epsilon: f64,
    /// The configured critical-SDC accuracy-drop threshold.
    pub critical_threshold: f32,
    /// Number of trial rounds launched.
    pub rounds: usize,
    /// Whether the ε target was reached within the trial budget.
    pub converged: bool,
    /// The allocation policy the campaign planned its rounds with.
    pub allocation: AllocationPolicy,
    /// One report per stratum, in the order of the configured specs.
    pub strata: Vec<StratumReport>,
}

impl CampaignReport {
    /// Total trials across all strata.
    pub fn total_trials(&self) -> usize {
        self.strata.iter().map(StratumReport::trials).sum()
    }

    /// Total faults injected across all strata.
    pub fn total_faults(&self) -> u64 {
        self.strata.iter().map(|s| s.total_faults).sum()
    }

    /// Pooled Wilson interval of the critical-SDC rate over every trial of
    /// every stratum — the quantity the stopping rule tracks.
    ///
    /// This is the equal-allocation stratified proportion (see the type-level
    /// note on weighting); the round-robin scheduler keeps every stratum's
    /// trial count within one of the others, even at the truncated final
    /// round.
    pub fn pooled_critical(&self) -> WilsonInterval {
        let critical: u64 = self.strata.iter().map(|s| s.critical as u64).sum();
        WilsonInterval::new(
            critical,
            self.total_trials() as u64,
            z_for_confidence(self.confidence),
        )
    }

    /// Pooled Wilson interval of the SDC rate (tolerable + critical).
    pub fn pooled_sdc(&self) -> WilsonInterval {
        let sdc: u64 = self
            .strata
            .iter()
            .map(|s| (s.tolerable + s.critical) as u64)
            .sum();
        WilsonInterval::new(
            sdc,
            self.total_trials() as u64,
            z_for_confidence(self.confidence),
        )
    }

    /// Point estimate of the critical-SDC rate with each stratum weighted by
    /// its share of the fault-space population — the classical stratified
    /// estimator of the rate a uniform fault model over the union of the
    /// strata would show.
    ///
    /// Returns `0.0` for an empty report. No interval accompanies this
    /// estimate (a weighted combination of binomial proportions has no
    /// Wilson-form interval); the stopping rule operates on
    /// [`CampaignReport::pooled_critical`] instead.
    pub fn population_weighted_critical_rate(&self) -> f64 {
        let total_bits: u64 = self.strata.iter().map(|s| s.population_bits).sum();
        if total_bits == 0 {
            return 0.0;
        }
        self.strata
            .iter()
            .map(|s| s.critical_rate() * s.population_bits as f64 / total_bits as f64)
            .sum()
    }

    /// Half-width of the stratified critical-SDC estimator's interval —
    /// the convergence measure the [`AllocationPolicy::Neyman`] stopping
    /// rule tracks (`z · sqrt(Σ w_h² σ̃_h² / n_h)` with each stratum's
    /// variance taken at the Wilson centre).
    ///
    /// Vacuously `0.5` while any stratum has no trials.
    pub fn stratified_critical_half_width(&self) -> f64 {
        let per_stratum: Vec<(u64, u64)> = self
            .strata
            .iter()
            .map(|s| (s.critical as u64, s.trials() as u64))
            .collect();
        let weights: Vec<f64> = self.strata.iter().map(|s| s.weight).collect();
        stratified_half_width(z_for_confidence(self.confidence), &per_stratum, &weights)
    }

    /// Looks a stratum up by label.
    pub fn stratum(&self, label: &str) -> Option<&StratumReport> {
        self.strata.iter().find(|s| s.label == label)
    }
}

/// How campaign trials evaluate the faulted network.
///
/// Both engines produce **bit-identical** results for every fault model and
/// thread count (pinned by the `checkpoint_identity` suite); they differ only
/// in cost. The resumed engine is the default; the full-forward engine
/// remains for verification and as the baseline of the
/// `campaign_throughput` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrialEngine {
    /// Snapshot the clean activation at every top-level layer boundary once
    /// per campaign ([`CheckpointCache`]), then re-execute only the suffix of
    /// the network downstream of each trial's faults:
    /// `O(depth + trials × suffix)` layer executions.
    #[default]
    CheckpointResumed,
    /// Re-run the full forward pass over the evaluation set for every trial:
    /// `O(trials × depth)` layer executions.
    FullForward,
}

/// Identity of one trial: which stratum it samples and its index within that
/// stratum's stream.
///
/// Together with the campaign seed this triple fully determines the trial's
/// fault sites and therefore its result (see [`TRIAL_STREAM_PROVENANCE`]);
/// work units of the distributed campaign protocol are contiguous ranges of
/// these identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSpec {
    /// Index of the stratum the trial samples from.
    pub stratum: usize,
    /// The trial's index within the stratum's RNG stream.
    pub index: usize,
}

/// Plans the trial identities of one campaign round, given how many trials
/// each stratum has already been scheduled.
///
/// One round is `round_trials` fresh trials per stratum, interleaved
/// round-robin and truncated so the campaign total never exceeds
/// `max_trials` — truncation therefore keeps the per-stratum allocation
/// within one trial of equal. Returns an empty plan once the budget is
/// exhausted.
///
/// This is the **single** scheduling definition: [`CampaignDriver`], the
/// round loop of in-process and distributed campaigns alike, plans every
/// round through this function, which is what pins their reports
/// bit-identical to each other.
pub fn plan_round(config: &StatCampaignConfig, counts: &[usize]) -> Vec<TrialSpec> {
    let total_so_far: usize = counts.iter().sum();
    let round_size = config.round_trials * counts.len();
    let launch = round_size.min(config.max_trials.saturating_sub(total_so_far));
    let mut specs = Vec::with_capacity(launch);
    'fill: for offset in 0..config.round_trials {
        for (stratum, &done) in counts.iter().enumerate() {
            if specs.len() == launch {
                break 'fill;
            }
            specs.push(TrialSpec {
                stratum,
                index: done + offset,
            });
        }
    }
    specs
}

/// Counts one stratum's `(critical, trials)` among the scheduled points —
/// only indices below `count` enter, so replayed decisions match live ones
/// even when the pool already holds later-round trials.
fn counted_criticals(
    config: &StatCampaignConfig,
    fault_free_accuracy: f32,
    pool: &StratumPool,
    count: usize,
) -> (u64, u64) {
    let mut critical = 0u64;
    let mut trials = 0u64;
    for (_, point) in pool.iter_below(count as u64) {
        trials += 1;
        if TrialOutcome::classify(
            fault_free_accuracy,
            point.accuracy,
            config.critical_threshold,
        ) == TrialOutcome::CriticalSdc
        {
            critical += 1;
        }
    }
    (critical, trials)
}

/// The per-stratum population weights `w_h = population_h / Σ populations`.
fn population_weights(populations: &[u64]) -> Vec<f64> {
    let total: u64 = populations.iter().sum();
    populations
        .iter()
        .map(|&p| {
            if total == 0 {
                0.0
            } else {
                p as f64 / total as f64
            }
        })
        .collect()
}

/// Computes one Neyman round's per-stratum trial counts: `budget` trials
/// split proportional to `w_h · σ̃_h` (population weight × Wilson-centre σ
/// over the counted pool state), after granting every stratum the
/// configured floor.
///
/// The split is a pure function of `(config, fault_free_accuracy,
/// populations, counted pool state)`:
///
/// * fractional quotas resolve by **largest-remainder** apportionment with
///   ties broken toward the lower stratum index, so the result is exact,
///   integral, and invariant to stratum iteration order;
/// * when the budget cannot cover every floor (a truncated final round),
///   floors fill in stratum-index order;
/// * `σ̃_h` is never zero or NaN ([`stratum_sigma`]), so the shares are
///   always well defined — an all-masked stratum keeps its floor but no
///   more, a zero-trial stratum looks maximally uncertain.
///
/// The returned counts always sum to exactly `budget`.
pub fn neyman_allocations(
    config: &StatCampaignConfig,
    z: f64,
    fault_free_accuracy: f32,
    populations: &[u64],
    pools: &[StratumPool],
    counts: &[usize],
    budget: usize,
) -> Vec<usize> {
    let num_strata = counts.len();
    let mut allocations = vec![0usize; num_strata];
    if num_strata == 0 || budget == 0 {
        return allocations;
    }
    let floor = config.floor_trials.min(config.round_trials);
    let mut remaining = budget;
    for slot in allocations.iter_mut() {
        let grant = floor.min(remaining);
        *slot = grant;
        remaining -= grant;
    }
    if remaining == 0 {
        return allocations;
    }
    let weights = population_weights(populations);
    let scores: Vec<f64> = (0..num_strata)
        .map(|h| {
            let (critical, trials) =
                counted_criticals(config, fault_free_accuracy, &pools[h], counts[h]);
            weights[h] * stratum_sigma(critical, trials, z)
        })
        .collect();
    let score_sum: f64 = scores.iter().sum();
    debug_assert!(score_sum > 0.0, "σ̃ and weights are strictly positive");
    let mut assigned = 0usize;
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(num_strata);
    for (h, &score) in scores.iter().enumerate() {
        let quota = remaining as f64 * score / score_sum;
        // The float cap guards Σ floor(quota) against rounding past the
        // budget; mathematically Σ quota == remaining exactly.
        let base = (quota.floor() as usize).min(remaining - assigned);
        allocations[h] += base;
        assigned += base;
        remainders.push((quota - base as f64, h));
    }
    remainders.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    for &(_, h) in remainders.iter().take(remaining - assigned) {
        allocations[h] += 1;
    }
    allocations
}

/// Plans one round under the configured [`AllocationPolicy`].
///
/// Under [`AllocationPolicy::Equal`] this **is** [`plan_round`] — the legacy
/// round-robin plan, byte-for-byte. Under [`AllocationPolicy::Neyman`] the
/// round budget (`round_trials × strata`, truncated at the remaining
/// `max_trials` budget) is split by [`neyman_allocations`] and each
/// stratum's trials take the next indices of its stream.
///
/// Determinism: the plan depends only on the configuration and the *counted*
/// pool state — points with index at or above `counts[h]` are ignored
/// (`iter_below`), so a resume replay, whose pools already hold later-round
/// trials, derives exactly the plan the uninterrupted run derived at this
/// round boundary. Delivery timing can never influence the plan.
pub fn plan_round_allocated(
    config: &StatCampaignConfig,
    z: f64,
    fault_free_accuracy: f32,
    populations: &[u64],
    pools: &[StratumPool],
    counts: &[usize],
) -> Vec<TrialSpec> {
    if config.allocation == AllocationPolicy::Equal {
        return plan_round(config, counts);
    }
    let total_so_far: usize = counts.iter().sum();
    let budget =
        (config.round_trials * counts.len()).min(config.max_trials.saturating_sub(total_so_far));
    if budget == 0 {
        return Vec::new();
    }
    let allocations = neyman_allocations(
        config,
        z,
        fault_free_accuracy,
        populations,
        pools,
        counts,
        budget,
    );
    let mut specs = Vec::with_capacity(budget);
    for (stratum, &n) in allocations.iter().enumerate() {
        for offset in 0..n {
            specs.push(TrialSpec {
                stratum,
                index: counts[stratum] + offset,
            });
        }
    }
    specs
}

/// The pooled stopping decision after a completed round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundDecision {
    /// Trials counted by the decision (the scheduled trials of all completed
    /// rounds).
    pub total: usize,
    /// The convergence measure: the pooled critical-SDC Wilson half-width
    /// under [`AllocationPolicy::Equal`], the stratified estimator's
    /// half-width ([`stratified_half_width`]) under
    /// [`AllocationPolicy::Neyman`].
    pub half_width: f64,
    /// The ε target was reached with at least `min_trials` trials.
    pub converged: bool,
    /// The trial budget is spent.
    pub exhausted: bool,
}

/// Evaluates the sequential stopping rule over merged per-stratum pools.
///
/// Only trials *scheduled* so far (`counts[stratum]` per stratum) are
/// counted, so a pool holding a few early-delivered results from a later
/// round — as a mid-round distributed checkpoint may — makes exactly the
/// same decision the serial campaign made at this round boundary.
///
/// The convergence measure matches the allocation policy, because each
/// policy minimises a different variance: `Equal` tracks the legacy pooled
/// critical-SDC Wilson half-width (every trial weighted equally), `Neyman`
/// tracks the **stratified** estimator's half-width
/// `z · sqrt(Σ w_h² σ̃_h² / n_h)` — the quantity Neyman allocation is
/// optimal for (a raw pooled proportion would *widen* as the budget shifts
/// toward high-variance strata).
///
/// An **empty round state** (`counts` all zero) is explicitly defined: the
/// half-width is the vacuous `0.5` under both policies — the zero-trial
/// Wilson interval's half-width — so no sane ε can converge on no data.
pub fn stopping_decision(
    config: &StatCampaignConfig,
    z: f64,
    fault_free_accuracy: f32,
    populations: &[u64],
    pools: &[StratumPool],
    counts: &[usize],
) -> RoundDecision {
    let total: usize = counts.iter().sum();
    let half_width = match config.allocation {
        AllocationPolicy::Equal => {
            let critical: u64 = pools
                .iter()
                .zip(counts)
                .map(|(pool, &count)| counted_criticals(config, fault_free_accuracy, pool, count).0)
                .sum();
            WilsonInterval::new(critical, total as u64, z).half_width()
        }
        AllocationPolicy::Neyman => {
            let per_stratum: Vec<(u64, u64)> = pools
                .iter()
                .zip(counts)
                .map(|(pool, &count)| counted_criticals(config, fault_free_accuracy, pool, count))
                .collect();
            stratified_half_width(z, &per_stratum, &population_weights(populations))
        }
    };
    RoundDecision {
        total,
        half_width,
        converged: total >= config.min_trials && half_width <= config.epsilon,
        exhausted: total >= config.max_trials,
    }
}

/// The one round loop of a statistical campaign.
///
/// The driver holds the configuration, the fault-free baseline, the stratum
/// populations and one [`StratumPool`] per stratum. It plans each round
/// with [`plan_round_allocated`], closes the round once the pools hold all
/// of its trials, applies [`stopping_decision`] and assembles the final
/// [`CampaignReport`]. It never runs a trial itself:
/// [`Campaign::run_until_resumable`] feeds it from in-process threads and
/// the distributed coordinator from leased work units, so both paths plan,
/// stop, refuse bad input and report identically.
///
/// Every decision is a pure function of the merged pools, so a driver
/// rebuilt from an interrupted campaign's pools replays the rounds they
/// complete and stands exactly where the interrupted driver stood.
#[derive(Debug)]
pub struct CampaignDriver {
    config: StatCampaignConfig,
    model_name: String,
    fault_free_accuracy: f32,
    sampler: StratifiedSampler,
    z: f64,
    populations: Vec<u64>,
    pools: Vec<StratumPool>,
    /// Trials scheduled per stratum by the closed rounds.
    counts: Vec<usize>,
    /// Closed rounds, which is also the index of the open round.
    rounds: usize,
    /// The open round's plan; empty once the campaign is finished.
    open: Vec<TrialSpec>,
    converged: bool,
}

impl CampaignDriver {
    /// Starts a campaign over `sampler`'s strata, or resumes one from the
    /// pools of an earlier run.
    ///
    /// Resume trusts nothing but the trial points: it replays every round
    /// the pools complete, re-deriving each plan and stopping decision, and
    /// leaves the driver at the first round they do not complete.
    ///
    /// # Errors
    ///
    /// Configuration errors ([`StatCampaignConfig::validate`]), and
    /// [`FaultError::InvalidConfig`] for resume pools whose stratum count
    /// differs from `sampler`'s or that hold a trial outside the replayed
    /// rounds and the open round: a checkpoint of another configuration.
    pub fn new(
        config: &StatCampaignConfig,
        model_name: &str,
        fault_free_accuracy: f32,
        sampler: &StratifiedSampler,
        resume: Option<Vec<StratumPool>>,
    ) -> Result<Self, FaultError> {
        config.validate()?;
        let num_strata = sampler.num_strata();
        let pools = resume.unwrap_or_else(|| vec![StratumPool::new(); num_strata]);
        if pools.len() != num_strata {
            return Err(FaultError::InvalidConfig(format!(
                "resume state has {} strata, configuration has {num_strata}",
                pools.len()
            )));
        }
        let mut driver = CampaignDriver {
            config: config.clone(),
            model_name: model_name.to_owned(),
            fault_free_accuracy,
            sampler: sampler.clone(),
            z: z_for_confidence(config.confidence),
            populations: (0..num_strata).map(|s| sampler.population(s)).collect(),
            pools,
            counts: vec![0; num_strata],
            rounds: 0,
            open: Vec::new(),
            converged: false,
        };
        driver.open = driver.plan();
        driver.advance();
        for (stratum, pool) in driver.pools.iter().enumerate() {
            let scheduled = driver.open_trials(stratum).end;
            if pool.iter_below(scheduled as u64).count() != pool.len() {
                return Err(FaultError::InvalidConfig(format!(
                    "resume state holds trials of stratum {stratum} at or above index \
                     {scheduled}, which the configuration has not scheduled by round {}; was \
                     the checkpoint written with a different configuration?",
                    driver.rounds
                )));
            }
        }
        Ok(driver)
    }

    fn plan(&self) -> Vec<TrialSpec> {
        plan_round_allocated(
            &self.config,
            self.z,
            self.fault_free_accuracy,
            &self.populations,
            &self.pools,
            &self.counts,
        )
    }

    /// Closes the open round while the pools hold all of its trials: counts
    /// it, applies the stopping rule and plans the next round.
    fn advance(&mut self) {
        while !self.open.is_empty()
            && self
                .open
                .iter()
                .all(|t| self.pools[t.stratum].contains(t.index as u64))
        {
            for trial in &self.open {
                self.counts[trial.stratum] += 1;
            }
            self.rounds += 1;
            let decision = stopping_decision(
                &self.config,
                self.z,
                self.fault_free_accuracy,
                &self.populations,
                &self.pools,
                &self.counts,
            );
            self.converged = decision.converged;
            self.open = if decision.converged || decision.exhausted {
                Vec::new()
            } else {
                self.plan()
            };
        }
    }

    /// Merges the point of one trial and returns whether it was new. A
    /// point that completes the open round closes it.
    ///
    /// # Errors
    ///
    /// [`FaultError::InvalidConfig`] for a trial that is neither in a
    /// closed round nor in the open one, and [`FaultError::TrialConflict`]
    /// for a point that differs from the one already merged for its trial.
    /// A bit-identical duplicate is `Ok(false)`.
    pub fn merge(&mut self, trial: TrialSpec, point: TrialPoint) -> Result<bool, FaultError> {
        let closed = self
            .counts
            .get(trial.stratum)
            .is_some_and(|&count| trial.index < count);
        if !closed && !self.open.contains(&trial) {
            return Err(FaultError::InvalidConfig(format!(
                "trial {} of stratum {} is not scheduled by round {}",
                trial.index, trial.stratum, self.rounds
            )));
        }
        let fresh = self.pools[trial.stratum].insert(trial.index as u64, point)?;
        if fresh {
            self.advance();
        }
        Ok(fresh)
    }

    /// Whether the campaign converged or spent its budget.
    pub fn is_finished(&self) -> bool {
        self.open.is_empty()
    }

    /// Whether the ε target was reached (so far).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Closed rounds, which is also the index of the open round.
    pub fn round(&self) -> usize {
        self.rounds
    }

    /// The open round's trials in plan order; empty once finished.
    pub fn open_round(&self) -> &[TrialSpec] {
        &self.open
    }

    /// The open round's trial indices in `stratum`: every plan gives a
    /// stratum consecutive indices, starting where its closed rounds end.
    pub fn open_trials(&self, stratum: usize) -> std::ops::Range<usize> {
        let start = self.counts[stratum];
        start..start + self.open.iter().filter(|t| t.stratum == stratum).count()
    }

    /// The merged pools, one per stratum.
    pub fn pools(&self) -> &[StratumPool] {
        &self.pools
    }

    /// The merged pools and closed rounds, ready to checkpoint.
    pub fn progress(&self) -> CampaignProgress {
        CampaignProgress {
            pools: self.pools.clone(),
            rounds: self.rounds,
        }
    }

    /// The final report, once the campaign is finished.
    ///
    /// The pools are then index-contiguous, so ascending index order is the
    /// serial campaign's trial order, however the points arrived.
    pub fn report(&self) -> Option<CampaignReport> {
        if !self.is_finished() {
            return None;
        }
        let weights = population_weights(&self.populations);
        let strata = self
            .pools
            .iter()
            .enumerate()
            .map(|(stratum, pool)| {
                let accuracies = pool.accuracies();
                let mut masked = 0usize;
                let mut tolerable = 0usize;
                let mut critical = 0usize;
                for &a in &accuracies {
                    match TrialOutcome::classify(
                        self.fault_free_accuracy,
                        a,
                        self.config.critical_threshold,
                    ) {
                        TrialOutcome::Masked => masked += 1,
                        TrialOutcome::TolerableSdc => tolerable += 1,
                        TrialOutcome::CriticalSdc => critical += 1,
                    }
                }
                let n = accuracies.len() as u64;
                StratumReport {
                    label: self.sampler.specs()[stratum].label.clone(),
                    population_bits: self.populations[stratum],
                    weight: weights[stratum],
                    accuracies,
                    masked,
                    tolerable,
                    critical,
                    total_faults: pool.total_faults(),
                    critical_ci: WilsonInterval::new(critical as u64, n, self.z),
                    sdc_ci: WilsonInterval::new((tolerable + critical) as u64, n, self.z),
                }
            })
            .collect();
        Some(CampaignReport {
            fault_free_accuracy: self.fault_free_accuracy,
            fault_rate: self.config.fault_rate,
            model: self.model_name.clone(),
            confidence: self.config.confidence,
            epsilon: self.config.epsilon,
            critical_threshold: self.config.critical_threshold,
            rounds: self.rounds,
            converged: self.converged,
            allocation: self.config.allocation,
            strata,
        })
    }
}

/// Partial state of a statistical campaign: one mergeable pool of completed
/// trials per stratum, plus the number of completed rounds.
///
/// This is what a campaign checkpoint persists. Scheduling is deterministic,
/// so the pools alone are enough to resume: [`CampaignDriver::new`] replays
/// the rounds they complete and continues exactly where execution stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignProgress {
    /// One pool per stratum, in configured stratum order.
    pub pools: Vec<StratumPool>,
    /// Rounds completed when the progress was captured.
    pub rounds: usize,
}

impl CampaignProgress {
    /// Total completed trials across all strata.
    pub fn total_trials(&self) -> usize {
        self.pools.iter().map(StratumPool::len).sum()
    }
}

/// What a [`Campaign::run_until_resumable`] observer tells the campaign to do
/// after a round completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignControl {
    /// Keep launching rounds.
    Continue,
    /// Stop gracefully and return the merged progress for checkpointing.
    Stop,
}

/// How a resumable campaign ended.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum RunOutcome {
    /// The campaign converged or spent its budget; the report is final.
    Finished(CampaignReport),
    /// The observer requested a graceful stop; the progress resumes the
    /// campaign later, bit-identically.
    Interrupted(CampaignProgress),
}

/// Rejects strata a datapath fault model cannot honour.
///
/// Datapath models corrupt activation slots, whose labels are not parameter
/// paths: a layer-restricted stratum cannot be honoured, and silently running
/// whole-network corruption per "layer" would report a fictitious
/// layer-vulnerability ranking.
fn check_model_strata(
    model: &dyn FaultModel,
    config: &StatCampaignConfig,
) -> Result<(), FaultError> {
    if !model.uses_parameter_sites() {
        if let Some(spec) = config.strata.iter().find(|s| s.path_prefix.is_some()) {
            return Err(FaultError::InvalidConfig(format!(
                "fault model `{}` corrupts the datapath and cannot honour the layer \
                 restriction of stratum `{}`; use bit-class strata without path prefixes",
                model.name(),
                spec.label
            )));
        }
    }
    Ok(())
}

/// Runs fault-injection campaigns against a network and a fixed evaluation
/// set.
#[derive(Debug)]
pub struct Campaign<'a> {
    network: &'a mut Network,
    inputs: &'a Tensor,
    targets: &'a [usize],
    map: MemoryMap,
    engine: TrialEngine,
    /// The last baseline captured, reused by the next run with the same
    /// batch size and engine. The campaign holds the only reference to the
    /// network and every trial restores it, so the capture stays valid.
    baseline: Option<Baseline>,
}

impl<'a> Campaign<'a> {
    /// Creates a campaign over the full parameter memory of `network`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::EmptyMemoryMap`] if the network has no
    /// parameters.
    pub fn new(
        network: &'a mut Network,
        inputs: &'a Tensor,
        targets: &'a [usize],
    ) -> Result<Self, FaultError> {
        let map = MemoryMap::of_network(network);
        Self::with_map(network, inputs, targets, map)
    }

    /// Creates a campaign restricted to parameters whose path satisfies
    /// `filter` (the paper's Fig. 1 injects faults only into the input layer
    /// and the second convolutional layer).
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::EmptyMemoryMap`] if the filter matches nothing.
    pub fn with_layer_filter<F: Fn(&str) -> bool>(
        network: &'a mut Network,
        inputs: &'a Tensor,
        targets: &'a [usize],
        filter: F,
    ) -> Result<Self, FaultError> {
        let map = MemoryMap::of_network_filtered(network, filter);
        Self::with_map(network, inputs, targets, map)
    }

    fn with_map(
        network: &'a mut Network,
        inputs: &'a Tensor,
        targets: &'a [usize],
        map: MemoryMap,
    ) -> Result<Self, FaultError> {
        if map.is_empty() {
            return Err(FaultError::EmptyMemoryMap);
        }
        Ok(Campaign {
            network,
            inputs,
            targets,
            map,
            engine: TrialEngine::default(),
            baseline: None,
        })
    }

    /// The memory map the campaign injects into.
    pub fn memory_map(&self) -> &MemoryMap {
        &self.map
    }

    /// Selects the trial-evaluation engine (defaults to
    /// [`TrialEngine::CheckpointResumed`]); results are bit-identical either
    /// way.
    #[must_use]
    pub fn with_engine(mut self, engine: TrialEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The trial-evaluation engine the campaign will use.
    pub fn engine(&self) -> TrialEngine {
        self.engine
    }

    /// The fault-free accuracy of the evaluation set at `batch_size`, from
    /// the baseline forward every run starts with.
    ///
    /// The campaign keeps that baseline, and the next run with the same
    /// batch size and engine reuses it instead of evaluating the set again;
    /// its accuracy is bit-identical to [`Network::evaluate`] and to the
    /// report's `fault_free_accuracy`. A caller that checks a checkpoint
    /// against the baseline before resuming therefore pays one clean pass,
    /// not two.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidConfig`] for a zero `batch_size` or a
    /// target count that does not match the inputs, and propagates
    /// evaluation failures.
    pub fn fault_free_accuracy(&mut self, batch_size: usize) -> Result<f32, FaultError> {
        let baseline = self.take_baseline(batch_size)?;
        let accuracy = baseline.fault_free_accuracy;
        self.baseline = Some(baseline);
        Ok(accuracy)
    }

    /// The stored baseline if it matches `batch_size` and the engine, or a
    /// fresh capture.
    fn take_baseline(&mut self, batch_size: usize) -> Result<Baseline, FaultError> {
        match self.baseline.take() {
            Some(baseline)
                if baseline.batch_size == batch_size && baseline.engine == self.engine =>
            {
                Ok(baseline)
            }
            _ => Baseline::capture(
                self.network,
                self.inputs,
                self.targets,
                batch_size,
                self.engine,
            ),
        }
    }

    /// Runs the fixed-count campaign: `config.trials` times, sample faults at
    /// `config.fault_rate`, inject them, evaluate accuracy on the evaluation
    /// set, and restore the original parameters.
    ///
    /// Trials are independent, so they are spread across all available cores.
    /// Each trial draws its fault sites from a private RNG stream derived
    /// from `(config.seed, trial_index)` ([`crate::BitFlipInjector::for_trial`]), so
    /// the per-trial results — and therefore the whole campaign — are
    /// **bit-identical regardless of the number of worker threads**, including
    /// the fully serial path ([`Campaign::run_serial`]). This is pinned by the
    /// `parallel_campaign_matches_serial_bit_for_bit` test.
    ///
    /// The network is returned to its pre-campaign state afterwards (this is
    /// verified by the restore-snapshot test below).
    ///
    /// # Errors
    ///
    /// Returns configuration errors and propagates evaluation failures.
    pub fn run(&mut self, config: &CampaignConfig) -> Result<CampaignResult, FaultError> {
        self.run_with_threads(config, default_threads())
    }

    /// Runs the campaign on the calling thread only; produces exactly the
    /// same result as [`Campaign::run`].
    ///
    /// # Errors
    ///
    /// Returns configuration errors and propagates evaluation failures.
    pub fn run_serial(&mut self, config: &CampaignConfig) -> Result<CampaignResult, FaultError> {
        self.run_with_threads(config, 1)
    }

    /// Runs the campaign with an explicit worker-thread count (mainly for
    /// scaling experiments; results do not depend on `threads`).
    ///
    /// # Errors
    ///
    /// Returns configuration errors and propagates evaluation failures.
    pub fn run_with_threads(
        &mut self,
        config: &CampaignConfig,
        threads: usize,
    ) -> Result<CampaignResult, FaultError> {
        config.validate()?;
        let sampler = StratifiedSampler::uniform(&self.map)?;
        let baseline = self.take_baseline(config.batch_size)?;
        let mut executor = TrialExecutor::new(baseline, self.network, threads.min(config.trials));
        let trials: Vec<TrialSpec> = (0..config.trials)
            .map(|index| TrialSpec { stratum: 0, index })
            .collect();
        let job = TrialJob {
            sampler: &sampler,
            model: &TransientBitFlip,
            fault_rate: config.fault_rate,
            seed: config.seed,
            batch_size: config.batch_size,
            inputs: self.inputs,
            targets: self.targets,
        };
        let points = executor.run(self.network, &job, &trials)?;
        let fault_free_accuracy = executor.baseline.fault_free_accuracy;
        self.baseline = Some(executor.baseline);
        let accuracies: Vec<f32> = points.iter().map(|p| p.accuracy).collect();
        let total_faults = points.iter().map(|p| p.faults).sum();
        let stats = SampleStats::from_sample(&accuracies)
            .expect("trials is non-zero, so the sample is non-empty");
        Ok(CampaignResult {
            accuracies,
            stats,
            fault_free_accuracy,
            total_faults,
            fault_rate: config.fault_rate,
        })
    }

    /// Runs a statistical campaign with sequential early stopping: rounds of
    /// `config.round_trials` parallel trials per stratum keep launching until
    /// the pooled critical-SDC Wilson interval has half-width ≤ ε (converged)
    /// or the trial budget is exhausted (the final round is truncated, so
    /// `config.max_trials` is never exceeded).
    ///
    /// Like [`Campaign::run`], the report is bit-identical for a fixed seed
    /// regardless of the worker-thread count, and the network is restored to
    /// its pre-campaign state.
    ///
    /// # Example
    ///
    /// ```
    /// use fitact_faults::{Campaign, StatCampaignConfig, StratumSpec, TransientBitFlip};
    /// use fitact_nn::layers::{Linear, Sequential};
    /// use fitact_nn::Network;
    /// use fitact_tensor::init;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), fitact_faults::FaultError> {
    /// let mut rng = StdRng::seed_from_u64(0);
    /// let mut net = Network::new(
    ///     "mlp",
    ///     Sequential::new().with(Box::new(Linear::new(4, 2, &mut rng))),
    /// );
    /// let inputs = init::uniform(&[16, 4], -1.0, 1.0, &mut rng);
    /// let targets: Vec<usize> = (0..16).map(|i| i % 2).collect();
    /// let config = StatCampaignConfig {
    ///     fault_rate: 1e-3,
    ///     epsilon: 0.25, // loose target so the example stops in a few rounds
    ///     round_trials: 4,
    ///     min_trials: 8,
    ///     max_trials: 24,
    ///     strata: vec![StratumSpec::all()],
    ///     ..Default::default()
    /// };
    /// let report = Campaign::new(&mut net, &inputs, &targets)?
    ///     .run_until(&config, &TransientBitFlip)?;
    /// assert!(report.total_trials() <= 24);
    /// let pooled = report.pooled_critical();
    /// assert!(pooled.low <= pooled.high);
    /// if report.converged {
    ///     // The pooled critical-SDC rate is known to ±ε.
    ///     assert!((pooled.high - pooled.low) / 2.0 <= config.epsilon);
    /// }
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns configuration errors (including the typed
    /// [`FaultError::NonPositiveEpsilon`] / [`FaultError::EmptyStrata`] /
    /// [`FaultError::EmptyStratum`]) and propagates evaluation failures.
    pub fn run_until(
        &mut self,
        config: &StatCampaignConfig,
        model: &dyn FaultModel,
    ) -> Result<CampaignReport, FaultError> {
        self.run_until_with_threads(config, model, default_threads())
    }

    /// [`Campaign::run_until`] with an explicit worker-thread count.
    ///
    /// # Errors
    ///
    /// See [`Campaign::run_until`].
    pub fn run_until_with_threads(
        &mut self,
        config: &StatCampaignConfig,
        model: &dyn FaultModel,
        threads: usize,
    ) -> Result<CampaignReport, FaultError> {
        match self.run_until_resumable(config, model, threads, None, &mut |_| {
            CampaignControl::Continue
        })? {
            RunOutcome::Finished(report) => Ok(report),
            RunOutcome::Interrupted(_) => {
                unreachable!("the observer never requests a stop")
            }
        }
    }

    /// [`Campaign::run_until`] with graceful interruption and resume.
    ///
    /// After every round that executed fresh trials (and did not finish the
    /// campaign) the merged [`CampaignProgress`] is handed to `observer`,
    /// which either continues or requests a graceful stop — in which case the
    /// progress comes back as [`RunOutcome::Interrupted`], ready to be
    /// checkpointed.
    ///
    /// Passing previously captured pools as `resume` continues that campaign
    /// through [`CampaignDriver::new`]: it replays every round the pools
    /// complete and re-derives each past stopping decision instead of
    /// trusting the checkpoint, and only the open round's missing trials run
    /// — the resumed campaign is **bit-identical** to one that never stopped
    /// (pinned by the `checkpoint_resume` tests). Pools holding trials the
    /// configuration has not scheduled (a checkpoint from a different
    /// configuration) are a typed [`FaultError::InvalidConfig`].
    ///
    /// # Errors
    ///
    /// As [`Campaign::run_until`], plus [`FaultError::InvalidConfig`] for a
    /// resume state inconsistent with `config`.
    pub fn run_until_resumable(
        &mut self,
        config: &StatCampaignConfig,
        model: &dyn FaultModel,
        threads: usize,
        resume: Option<Vec<StratumPool>>,
        observer: &mut dyn FnMut(&CampaignProgress) -> CampaignControl,
    ) -> Result<RunOutcome, FaultError> {
        config.validate()?;
        check_model_strata(model, config)?;
        let sampler = StratifiedSampler::new(&self.map, &config.strata)?;
        let baseline = self.take_baseline(config.batch_size)?;
        let mut driver = CampaignDriver::new(
            config,
            model.name(),
            baseline.fault_free_accuracy,
            &sampler,
            resume,
        )?;
        let mut executor = TrialExecutor::new(
            baseline,
            self.network,
            threads.min(config.round_trials * sampler.num_strata()),
        );
        let job = TrialJob {
            sampler: &sampler,
            model,
            fault_rate: config.fault_rate,
            seed: config.seed,
            batch_size: config.batch_size,
            inputs: self.inputs,
            targets: self.targets,
        };
        while !driver.is_finished() {
            let missing: Vec<TrialSpec> = driver
                .open_round()
                .iter()
                .copied()
                .filter(|t| !driver.pools()[t.stratum].contains(t.index as u64))
                .collect();
            let points = executor.run(self.network, &job, &missing)?;
            for (trial, point) in missing.into_iter().zip(points) {
                driver.merge(trial, point)?;
            }
            if !driver.is_finished() {
                let progress = driver.progress();
                if observer(&progress) == CampaignControl::Stop {
                    self.baseline = Some(executor.baseline);
                    return Ok(RunOutcome::Interrupted(progress));
                }
            }
        }
        self.baseline = Some(executor.baseline);
        Ok(RunOutcome::Finished(
            driver.report().expect("the driver is finished"),
        ))
    }
}

/// Executes individual work units — contiguous per-stratum trial ranges — of
/// a statistical campaign: the execution half of a distributed worker (and of
/// the coordinator's own local executor).
///
/// A runner owns a warm network, the campaign baseline
/// ([`CheckpointCache`] under the default engine) and pre-spawned worker
/// clones, so successive units reuse all of it. Because a trial's result
/// depends only on `(seed, stratum, index)` and the network parameters,
/// [`UnitRunner::run_unit`] returns **bit-identical** points no matter which
/// process, machine or thread count runs the unit — the invariant the whole
/// distributed protocol rests on (pinned by the `distributed_identity` test).
#[derive(Debug)]
pub struct UnitRunner {
    network: Network,
    inputs: Tensor,
    targets: Vec<usize>,
    config: StatCampaignConfig,
    sampler: StratifiedSampler,
    executor: TrialExecutor,
}

impl UnitRunner {
    /// Prepares a runner: resolves the strata, snapshots the parameters,
    /// captures the checkpoint baseline and spawns `threads` worker clones.
    ///
    /// # Errors
    ///
    /// Returns configuration errors ([`StatCampaignConfig::validate`]),
    /// [`FaultError::EmptyMemoryMap`] for a parameterless network, and
    /// propagates baseline-evaluation failures.
    pub fn new(
        mut network: Network,
        inputs: Tensor,
        targets: Vec<usize>,
        config: &StatCampaignConfig,
        threads: usize,
    ) -> Result<Self, FaultError> {
        config.validate()?;
        let map = MemoryMap::of_network(&network);
        if map.is_empty() {
            return Err(FaultError::EmptyMemoryMap);
        }
        let sampler = StratifiedSampler::new(&map, &config.strata)?;
        let baseline = Baseline::capture(
            &mut network,
            &inputs,
            &targets,
            config.batch_size,
            TrialEngine::CheckpointResumed,
        )?;
        let executor = TrialExecutor::new(
            baseline,
            &network,
            threads.min(config.round_trials * sampler.num_strata()),
        );
        Ok(UnitRunner {
            network,
            inputs,
            targets,
            config: config.clone(),
            sampler,
            executor,
        })
    }

    /// The fault-free baseline accuracy — identical on every worker that
    /// loaded the same artifact, and verified by the coordinator before any
    /// unit result is merged.
    pub fn fault_free_accuracy(&self) -> f32 {
        self.executor.baseline.fault_free_accuracy
    }

    /// Number of strata the runner resolved.
    pub fn num_strata(&self) -> usize {
        self.sampler.num_strata()
    }

    /// The resolved stratified sampler (labels, populations).
    pub fn sampler(&self) -> &StratifiedSampler {
        &self.sampler
    }

    /// Runs trials `start .. start + count` of `stratum` and returns their
    /// points in index order.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidConfig`] for an out-of-range stratum or a
    /// stratum/model combination the campaign would reject, and propagates
    /// evaluation failures.
    pub fn run_unit(
        &mut self,
        model: &dyn FaultModel,
        stratum: usize,
        start: usize,
        count: usize,
    ) -> Result<Vec<TrialPoint>, FaultError> {
        check_model_strata(model, &self.config)?;
        if stratum >= self.sampler.num_strata() {
            return Err(FaultError::InvalidConfig(format!(
                "work unit names stratum {stratum}, campaign has {}",
                self.sampler.num_strata()
            )));
        }
        let trials: Vec<TrialSpec> = (start..start + count)
            .map(|index| TrialSpec { stratum, index })
            .collect();
        let job = TrialJob {
            sampler: &self.sampler,
            model,
            fault_rate: self.config.fault_rate,
            seed: self.config.seed,
            batch_size: self.config.batch_size,
            inputs: &self.inputs,
            targets: &self.targets,
        };
        self.executor.run(&mut self.network, &job, &trials)
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// What every trial of one campaign reads: the fault stream's parameters
/// and the evaluation set.
struct TrialJob<'a> {
    sampler: &'a StratifiedSampler,
    model: &'a dyn FaultModel,
    fault_rate: f64,
    seed: u64,
    batch_size: usize,
    inputs: &'a Tensor,
    targets: &'a [usize],
}

/// The fault-free state every trial of one campaign starts from and is
/// scored against, captured with one clean pass over the evaluation set.
#[derive(Debug)]
struct Baseline {
    batch_size: usize,
    engine: TrialEngine,
    /// The parameters every trial restores.
    snapshot: NetworkSnapshot,
    /// The clean layer-boundary activations and site→layer plan of the
    /// resumed engine; `None` selects full forwards.
    resume: Option<(CheckpointCache, ResumePlan)>,
    fault_free_accuracy: f32,
}

impl Baseline {
    /// Snapshots `network` and runs the one fault-free forward, which under
    /// the resumed engine also captures the layer-boundary checkpoints.
    fn capture(
        network: &mut Network,
        inputs: &Tensor,
        targets: &[usize],
        batch_size: usize,
        engine: TrialEngine,
    ) -> Result<Self, FaultError> {
        let snapshot = network.snapshot_full();
        let (resume, fault_free_accuracy) = match engine {
            TrialEngine::CheckpointResumed => {
                let plan = ResumePlan::of_network(network);
                let cache = CheckpointCache::capture(network, inputs, targets, batch_size)?;
                let fault_free = cache.fault_free_accuracy();
                (Some((cache, plan)), fault_free)
            }
            TrialEngine::FullForward => (None, network.evaluate(inputs, targets, batch_size)?),
        };
        Ok(Baseline {
            batch_size,
            engine,
            snapshot,
            resume,
            fault_free_accuracy,
        })
    }
}

/// The trial executor behind [`Campaign`] and [`UnitRunner`]: a baseline and
/// one network clone per extra thread, made once per campaign or runner.
#[derive(Debug)]
struct TrialExecutor {
    baseline: Baseline,
    /// Networks for the threads beyond the caller's, which runs trials on
    /// the network it passes to [`TrialExecutor::run`].
    workers: Vec<Network>,
}

impl TrialExecutor {
    /// Clones `threads - 1` workers of `network`, whose baseline is given.
    fn new(baseline: Baseline, network: &Network, threads: usize) -> Self {
        let workers = (1..threads).map(|_| network.clone()).collect();
        TrialExecutor { baseline, workers }
    }

    /// Runs `trials` on `network` and the worker clones and returns their
    /// points in `trials` order.
    ///
    /// Each thread pulls the next trial from a shared counter, so a thread
    /// that drew cheap trials runs more of them. A point lands at its
    /// trial's position, and a trial depends only on its identity and the
    /// restored parameters, so neither the thread count nor the pull order
    /// changes a bit.
    fn run(
        &mut self,
        network: &mut Network,
        job: &TrialJob<'_>,
        trials: &[TrialSpec],
    ) -> Result<Vec<TrialPoint>, FaultError> {
        // The counter only hands out indices; points travel back through the
        // joins, so `Relaxed` suffices.
        let next = AtomicUsize::new(0);
        let (snapshot, resume) = (&self.baseline.snapshot, self.baseline.resume.as_ref());
        let pull = |network: &mut Network| {
            let mut points = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&trial) = trials.get(i) else {
                    return points;
                };
                points.push((i, run_trial(network, snapshot, resume, job, trial)));
            }
        };
        let extra = self.workers.len().min(trials.len().saturating_sub(1));
        let mut points = if extra == 0 {
            pull(network)
        } else {
            // One campaign thread already occupies each core; nested matmul
            // fan-out would oversubscribe the machine (results are
            // thread-count-invariant either way).
            std::thread::scope(|scope| {
                let pull = &pull;
                let threads: Vec<_> = self.workers[..extra]
                    .iter_mut()
                    .map(|worker| scope.spawn(move || serial_scope(|| pull(worker))))
                    .collect();
                let mut points = serial_scope(|| pull(network));
                for thread in threads {
                    points.extend(
                        thread
                            .join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                    );
                }
                points
            })
        };
        points.sort_unstable_by_key(|&(i, _)| i);
        points.into_iter().map(|(_, point)| point).collect()
    }
}

/// Runs one trial on `network` and restores it.
///
/// The trial seeds its own stream from `(seed, stratum, index)` and consumes
/// it identically under both engines (site sampling and injection happen
/// before evaluation either way), so its point depends only on its identity
/// — never on which thread ran it, what ran before it on the same network
/// (the snapshot restore guarantees identical starting parameters), or which
/// engine evaluated it.
fn run_trial(
    network: &mut Network,
    snapshot: &NetworkSnapshot,
    resume: Option<&(CheckpointCache, ResumePlan)>,
    job: &TrialJob<'_>,
    trial: TrialSpec,
) -> Result<TrialPoint, FaultError> {
    let model = job.model;
    let mut rng = StdRng::seed_from_u64(trial_stream_seed(job.seed, trial.stratum, trial.index));
    let sites = if model.uses_parameter_sites() {
        job.sampler.sample(trial.stratum, job.fault_rate, &mut rng)
    } else {
        Vec::new()
    };
    // Datapath models wrap the activation slots; keep the originals so the
    // trial can put them back (the parameter snapshot cannot).
    let activation_backup = model.perturbs_activations().then(|| {
        network
            .activation_slots()
            .into_iter()
            .map(|slot| slot.activation().clone_box())
            .collect::<Vec<_>>()
    });
    let ctx = TrialContext {
        fault_rate: job.fault_rate,
        bit_positions: job.sampler.bit_positions(trial.stratum),
    };
    let injection = model.inject(network, &sites, &ctx, &mut rng);
    let result = match resume {
        Some((cache, plan)) => {
            let boundary = plan.resume_boundary(model, &sites);
            cache.evaluate_resumed(network, job.targets, boundary)
        }
        None => network
            .evaluate(job.inputs, job.targets, job.batch_size)
            .map_err(FaultError::from),
    };
    // Always restore, even if evaluation failed.
    if let Some(backup) = activation_backup {
        for (slot, original) in network.activation_slots().into_iter().zip(backup) {
            slot.replace_activation(original);
        }
    }
    network
        .restore_full(snapshot)
        .expect("snapshot taken from the same network always restores");
    result.map(|accuracy| TrialPoint {
        accuracy,
        faults: injection.total(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::quantize_network;
    use crate::model::{ActivationBitFlip, MultiBitBurst, StuckAtFaultModel};
    use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
    use fitact_nn::loss::CrossEntropyLoss;
    use fitact_nn::optim::Sgd;
    use fitact_tensor::init;

    /// A small trained MLP on a separable 2-D problem, plus its eval set.
    fn trained_setup() -> (Network, Tensor, Vec<usize>) {
        trained_behind(Sequential::new())
    }

    /// [`trained_setup`]'s MLP behind the layers of `front`.
    fn trained_behind(front: Sequential) -> (Network, Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(0);
        let root = front
            .with(Box::new(Linear::new(2, 16, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h", &[16])))
            .with(Box::new(Linear::new(16, 2, &mut rng)));
        let mut net = Network::new("mlp", root);
        let inputs = init::uniform(&[128, 2], -1.0, 1.0, &mut rng);
        let targets: Vec<usize> = (0..128)
            .map(|i| {
                let row = &inputs.as_slice()[i * 2..(i + 1) * 2];
                usize::from(row[0] > row[1])
            })
            .collect();
        let loss = CrossEntropyLoss::new();
        let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
        for _ in 0..40 {
            net.train_batch(&inputs, &targets, &loss, &mut opt).unwrap();
        }
        quantize_network(&mut net);
        (net, inputs, targets)
    }

    /// Counts the forwards that reach it. Placed before every parameterised
    /// layer, it sees only clean full passes: a resumed trial starts at its
    /// first faulted layer.
    #[derive(Debug, Clone)]
    struct ForwardCounter(std::sync::Arc<AtomicUsize>);

    impl fitact_nn::Layer for ForwardCounter {
        fn name(&self) -> String {
            "counter".into()
        }

        fn forward(
            &mut self,
            input: &Tensor,
            _mode: fitact_nn::Mode,
        ) -> Result<Tensor, fitact_nn::NnError> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(input.clone())
        }

        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, fitact_nn::NnError> {
            Ok(grad_output.clone())
        }

        fn clone_box(&self) -> Box<dyn fitact_nn::Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn a_stored_baseline_is_the_only_clean_pass_of_later_runs() {
        let passes = std::sync::Arc::new(AtomicUsize::new(0));
        let counter = ForwardCounter(passes.clone());
        let (mut net, inputs, targets) = trained_behind(Sequential::new().with(Box::new(counter)));
        passes.store(0, Ordering::SeqCst);
        let reference = net.evaluate(&inputs, &targets, 32).unwrap();
        // 128 rows at batch 32: one clean pass is four forwards.
        let pass = 4;
        assert_eq!(passes.swap(0, Ordering::SeqCst), pass);

        let config = StatCampaignConfig {
            fault_rate: 5e-3,
            batch_size: 32,
            round_trials: 4,
            min_trials: 8,
            max_trials: 16,
            ..Default::default()
        };
        let mut campaign = Campaign::new(&mut net, &inputs, &targets).unwrap();
        let fault_free = campaign.fault_free_accuracy(32).unwrap();
        assert_eq!(fault_free.to_bits(), reference.to_bits());
        assert_eq!(passes.load(Ordering::SeqCst), pass);
        let report = match campaign
            .run_until_resumable(&config, &TransientBitFlip, 2, None, &mut |_| {
                CampaignControl::Continue
            })
            .unwrap()
        {
            RunOutcome::Finished(report) => report,
            RunOutcome::Interrupted(_) => unreachable!("the observer never stops"),
        };
        assert!(report.total_faults() > 0);
        assert_eq!(report.fault_free_accuracy.to_bits(), reference.to_bits());
        assert_eq!(
            passes.load(Ordering::SeqCst),
            pass,
            "the run captured again"
        );

        // Later runs at the same batch size reuse it too; another batch size
        // captures its own.
        let fixed = CampaignConfig {
            trials: 4,
            batch_size: 32,
            fault_rate: 5e-3,
            seed: 3,
        };
        let result = campaign.run(&fixed).unwrap();
        assert_eq!(result.fault_free_accuracy.to_bits(), reference.to_bits());
        assert_eq!(passes.load(Ordering::SeqCst), pass);
        campaign.fault_free_accuracy(64).unwrap();
        assert_eq!(passes.load(Ordering::SeqCst), pass + 2);
    }

    #[test]
    fn config_validation() {
        assert!(CampaignConfig::default().validate().is_ok());
        assert!(CampaignConfig {
            trials: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CampaignConfig {
            batch_size: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CampaignConfig {
            fault_rate: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn stat_config_validation_uses_typed_errors() {
        assert!(StatCampaignConfig::default().validate().is_ok());
        assert!(matches!(
            StatCampaignConfig {
                epsilon: 0.0,
                ..Default::default()
            }
            .validate(),
            Err(FaultError::NonPositiveEpsilon(e)) if e == 0.0
        ));
        assert!(matches!(
            StatCampaignConfig {
                epsilon: -0.5,
                ..Default::default()
            }
            .validate(),
            Err(FaultError::NonPositiveEpsilon(_))
        ));
        assert!(matches!(
            StatCampaignConfig {
                epsilon: f64::NAN,
                ..Default::default()
            }
            .validate(),
            Err(FaultError::NonPositiveEpsilon(_))
        ));
        assert!(matches!(
            StatCampaignConfig {
                strata: vec![],
                ..Default::default()
            }
            .validate(),
            Err(FaultError::EmptyStrata)
        ));
        let no_bits = StratumSpec {
            label: "hollow".into(),
            bit_classes: vec![],
            path_prefix: None,
        };
        assert!(matches!(
            StatCampaignConfig {
                strata: vec![no_bits],
                ..Default::default()
            }
            .validate(),
            Err(FaultError::EmptyStratum(label)) if label == "hollow"
        ));
        for bad in [
            StatCampaignConfig {
                confidence: 1.0,
                ..Default::default()
            },
            StatCampaignConfig {
                critical_threshold: 2.0,
                ..Default::default()
            },
            StatCampaignConfig {
                fault_rate: -1.0,
                ..Default::default()
            },
            StatCampaignConfig {
                batch_size: 0,
                ..Default::default()
            },
            StatCampaignConfig {
                round_trials: 0,
                ..Default::default()
            },
            StatCampaignConfig {
                min_trials: 100,
                max_trials: 10,
                ..Default::default()
            },
        ] {
            assert!(matches!(bad.validate(), Err(FaultError::InvalidConfig(_))));
        }
    }

    #[test]
    fn zero_trial_result_reports_zero_mean_not_nan() {
        let empty = CampaignResult {
            accuracies: Vec::new(),
            stats: SampleStats {
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
                mean: 0.0,
                count: 0,
            },
            fault_free_accuracy: 0.9,
            total_faults: 0,
            fault_rate: 1e-6,
        };
        assert_eq!(empty.mean_accuracy(), 0.0);
        assert!(!empty.mean_accuracy().is_nan());
    }

    #[test]
    fn campaign_restores_network_after_running() {
        let (mut net, inputs, targets) = trained_setup();
        let before = net.snapshot();
        let mut campaign = Campaign::new(&mut net, &inputs, &targets).unwrap();
        campaign
            .run(&CampaignConfig {
                fault_rate: 1e-3,
                trials: 5,
                batch_size: 64,
                seed: 1,
            })
            .unwrap();
        assert_eq!(net.snapshot(), before);
    }

    #[test]
    fn zero_fault_rate_matches_fault_free_accuracy() {
        let (mut net, inputs, targets) = trained_setup();
        let mut campaign = Campaign::new(&mut net, &inputs, &targets).unwrap();
        let result = campaign
            .run(&CampaignConfig {
                fault_rate: 0.0,
                trials: 3,
                batch_size: 64,
                seed: 2,
            })
            .unwrap();
        assert_eq!(result.total_faults, 0);
        for acc in &result.accuracies {
            assert_eq!(*acc, result.fault_free_accuracy);
        }
    }

    #[test]
    fn high_fault_rate_degrades_accuracy() {
        let (mut net, inputs, targets) = trained_setup();
        let mut campaign = Campaign::new(&mut net, &inputs, &targets).unwrap();
        let clean = campaign
            .run(&CampaignConfig {
                fault_rate: 0.0,
                trials: 1,
                batch_size: 64,
                seed: 3,
            })
            .unwrap();
        let noisy = campaign
            .run(&CampaignConfig {
                fault_rate: 5e-2,
                trials: 10,
                batch_size: 64,
                seed: 3,
            })
            .unwrap();
        assert!(noisy.total_faults > 0);
        assert!(
            noisy.mean_accuracy() < clean.fault_free_accuracy,
            "noisy {} vs clean {}",
            noisy.mean_accuracy(),
            clean.fault_free_accuracy
        );
        assert_eq!(noisy.accuracies.len(), 10);
        assert_eq!(noisy.fault_rate, 5e-2);
        assert!(noisy.stats.min <= noisy.stats.median && noisy.stats.median <= noisy.stats.max);
    }

    #[test]
    fn layer_filter_limits_the_fault_space() {
        let (mut net, inputs, targets) = trained_setup();
        let full_bits = MemoryMap::of_network(&net).total_bits();
        let campaign =
            Campaign::with_layer_filter(&mut net, &inputs, &targets, |p| p.starts_with("0/"))
                .unwrap();
        assert!(campaign.memory_map().total_bits() < full_bits);
        drop(campaign);
        assert!(matches!(
            Campaign::with_layer_filter(&mut net, &inputs, &targets, |_| false),
            Err(FaultError::EmptyMemoryMap)
        ));
    }

    #[test]
    fn campaigns_are_reproducible_for_a_seed() {
        let (mut net, inputs, targets) = trained_setup();
        let config = CampaignConfig {
            fault_rate: 1e-3,
            trials: 4,
            batch_size: 64,
            seed: 9,
        };
        let a = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run(&config)
            .unwrap();
        let b = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run(&config)
            .unwrap();
        assert_eq!(a.accuracies, b.accuracies);
        assert_eq!(a.total_faults, b.total_faults);
    }

    #[test]
    fn parallel_campaign_matches_serial_bit_for_bit() {
        let (mut net, inputs, targets) = trained_setup();
        let config = CampaignConfig {
            fault_rate: 2e-3,
            trials: 9,
            batch_size: 64,
            seed: 11,
        };
        let serial = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run_serial(&config)
            .unwrap();
        // Force thread counts beyond what the machine reports, including ones
        // that split the 9 trials unevenly.
        for threads in [2, 3, 4, 16] {
            let parallel = Campaign::new(&mut net, &inputs, &targets)
                .unwrap()
                .run_with_threads(&config, threads)
                .unwrap();
            assert_eq!(
                parallel.accuracies, serial.accuracies,
                "threads = {threads}"
            );
            assert_eq!(
                parallel.total_faults, serial.total_faults,
                "threads = {threads}"
            );
            assert_eq!(parallel.stats, serial.stats, "threads = {threads}");
            assert_eq!(
                parallel.fault_free_accuracy, serial.fault_free_accuracy,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn trial_results_depend_only_on_seed_and_index() {
        let (mut net, inputs, targets) = trained_setup();
        // A 6-trial campaign's first three trials must match a 3-trial
        // campaign exactly: trial identity is (seed, index), not history.
        let long = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run(&CampaignConfig {
                fault_rate: 2e-3,
                trials: 6,
                batch_size: 64,
                seed: 7,
            })
            .unwrap();
        let short = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run(&CampaignConfig {
                fault_rate: 2e-3,
                trials: 3,
                batch_size: 64,
                seed: 7,
            })
            .unwrap();
        assert_eq!(&long.accuracies[..3], &short.accuracies[..]);
    }

    /// The statistical config used by the `run_until` tests: aggressive rate,
    /// small rounds, tight budget so the tests stay fast in debug builds.
    fn stat_config() -> StatCampaignConfig {
        StatCampaignConfig {
            fault_rate: 2e-3,
            batch_size: 64,
            seed: 21,
            epsilon: 0.08,
            confidence: 0.95,
            critical_threshold: 0.05,
            round_trials: 4,
            min_trials: 12,
            max_trials: 96,
            strata: StratumSpec::by_bit_class(),
            ..Default::default()
        }
    }

    #[test]
    fn run_until_is_bit_identical_across_thread_counts() {
        let (mut net, inputs, targets) = trained_setup();
        let config = stat_config();
        let serial = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run_until_with_threads(&config, &TransientBitFlip, 1)
            .unwrap();
        for threads in [2, 3, 5, 16] {
            let parallel = Campaign::new(&mut net, &inputs, &targets)
                .unwrap()
                .run_until_with_threads(&config, &TransientBitFlip, threads)
                .unwrap();
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn run_until_restores_the_network_and_reports_every_stratum() {
        let (mut net, inputs, targets) = trained_setup();
        let before = net.snapshot();
        let config = stat_config();
        let report = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run_until(&config, &TransientBitFlip)
            .unwrap();
        assert_eq!(net.snapshot(), before);
        assert_eq!(report.strata.len(), 3);
        assert_eq!(report.model, "bitflip");
        assert!(report.total_trials() >= config.min_trials);
        assert!(report.total_trials() <= config.max_trials);
        assert!(report.rounds >= 1);
        for stratum in &report.strata {
            assert_eq!(
                stratum.masked + stratum.tolerable + stratum.critical,
                stratum.trials()
            );
            assert!(stratum.critical_ci.low <= stratum.critical_ci.high);
            assert!(stratum.population_bits > 0);
        }
        assert!(report.stratum("exponent").is_some());
        assert!(report.stratum("nonexistent").is_none());
        // Pooled counts line up with the strata.
        let pooled = report.pooled_critical();
        assert_eq!(pooled.trials, report.total_trials() as u64);
        assert!(report.pooled_sdc().successes >= pooled.successes);
    }

    #[test]
    fn run_until_stops_early_when_the_answer_is_obvious() {
        let (mut net, inputs, targets) = trained_setup();
        // Zero fault rate: every trial is masked, the critical-SDC interval
        // collapses as fast as Wilson allows, and the campaign must stop
        // well short of the budget.
        let config = StatCampaignConfig {
            fault_rate: 0.0,
            max_trials: 600,
            ..stat_config()
        };
        let report = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run_until(&config, &TransientBitFlip)
            .unwrap();
        assert!(report.converged);
        assert!(
            report.total_trials() < 120,
            "expected early stop, ran {} trials",
            report.total_trials()
        );
        assert_eq!(report.pooled_critical().successes, 0);
        assert!(report.pooled_critical().half_width() <= config.epsilon);
        for stratum in &report.strata {
            assert_eq!(stratum.masked, stratum.trials());
        }
    }

    #[test]
    fn datapath_models_reject_layer_restricted_strata() {
        let (mut net, inputs, targets) = trained_setup();
        let map = MemoryMap::of_network(&net);
        let config = StatCampaignConfig {
            strata: StratumSpec::by_layer(&map),
            ..stat_config()
        };
        let result = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run_until(&config, &ActivationBitFlip);
        assert!(
            matches!(result, Err(FaultError::InvalidConfig(ref msg)) if msg.contains("datapath")),
            "per-layer strata cannot be honoured by activation corruption"
        );
        // Bit-class strata (no path prefixes) remain fine.
        let config = StatCampaignConfig {
            max_trials: 12,
            min_trials: 3,
            round_trials: 1,
            ..stat_config()
        };
        assert!(Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run_until(&config, &ActivationBitFlip)
            .is_ok());
    }

    #[test]
    fn population_weighted_rate_discounts_small_strata() {
        let (mut net, inputs, targets) = trained_setup();
        let report = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run_until(&stat_config(), &TransientBitFlip)
            .unwrap();
        let weighted = report.population_weighted_critical_rate();
        assert!((0.0..=1.0).contains(&weighted));
        // The weights are the strata's population shares: the estimate must
        // lie inside the convex hull of the per-stratum rates.
        let min = report
            .strata
            .iter()
            .map(StratumReport::critical_rate)
            .fold(f64::INFINITY, f64::min);
        let max = report
            .strata
            .iter()
            .map(StratumReport::critical_rate)
            .fold(0.0, f64::max);
        assert!(weighted >= min - 1e-12 && weighted <= max + 1e-12);
    }

    #[test]
    fn run_until_gives_up_at_the_trial_budget() {
        let (mut net, inputs, targets) = trained_setup();
        // An unreachable ε with a tiny budget: the campaign must stop at the
        // budget and say so.
        let config = StatCampaignConfig {
            epsilon: 1e-6,
            min_trials: 4,
            max_trials: 12,
            ..stat_config()
        };
        let report = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run_until(&config, &TransientBitFlip)
            .unwrap();
        assert!(!report.converged);
        assert_eq!(report.total_trials(), 12);

        // A budget that is not a multiple of the round size truncates the
        // final round instead of overshooting, and round-robin scheduling
        // keeps the per-stratum allocation within one trial of equal.
        let config = StatCampaignConfig {
            epsilon: 1e-6,
            min_trials: 4,
            max_trials: 10,
            ..stat_config()
        };
        let report = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run_until(&config, &TransientBitFlip)
            .unwrap();
        assert_eq!(report.total_trials(), 10);
        let counts: Vec<usize> = report.strata.iter().map(StratumReport::trials).collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "uneven stratum allocation: {counts:?}");
    }

    #[test]
    fn every_fault_model_runs_through_the_statistical_engine() {
        let (mut net, inputs, targets) = trained_setup();
        let before = net.snapshot();
        let config = StatCampaignConfig {
            max_trials: 24,
            min_trials: 6,
            round_trials: 2,
            ..stat_config()
        };
        let models: [&dyn FaultModel; 4] = [
            &TransientBitFlip,
            &MultiBitBurst { length: 4 },
            &StuckAtFaultModel,
            &ActivationBitFlip,
        ];
        for model in models {
            let report = Campaign::new(&mut net, &inputs, &targets)
                .unwrap()
                .run_until(&config, model)
                .unwrap();
            assert_eq!(report.model, model.name());
            assert!(report.total_trials() >= config.min_trials);
            assert_eq!(net.snapshot(), before, "model {}", model.name());
            for stratum in &report.strata {
                for &a in &stratum.accuracies {
                    assert!((0.0..=1.0).contains(&a), "model {}", model.name());
                }
            }
        }
    }
}
