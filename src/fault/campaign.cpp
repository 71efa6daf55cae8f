#include "fault/campaign.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "telemetry/json.hpp"

namespace m3xu::fault {

namespace {

/// splitmix64 finalizer: decorrelates the per-trial seeds drawn from
/// the campaign seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool bitwise_equal(const gemm::Matrix<float>& x, const gemm::Matrix<float>& y) {
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      if (std::bit_cast<std::uint32_t>(x(i, j)) !=
          std::bit_cast<std::uint32_t>(y(i, j))) {
        return false;
      }
    }
  }
  return true;
}

/// One single-tile SGEMM through a plan compiled for `engine_cfg`.
/// The guarded run uses the clean-recompute preset: a detected tile
/// goes straight to the fault-free scalar rung, so every correction is
/// bit-exact and a residual mismatch is a genuine escape.
gemm::TiledGemmStats plan_sgemm(const core::M3xuConfig& engine_cfg,
                                const CampaignConfig& cfg,
                                const gemm::AbftConfig& abft,
                                const gemm::Matrix<float>& a,
                                const gemm::Matrix<float>& b,
                                gemm::Matrix<float>& c) {
  gemm::PlanOptions options;
  options.tile = cfg.tile;
  options.abft = abft;
  options.policy.retries_per_route = 0;
  options.reuse_b_panels = false;  // one execute per plan
  const gemm::GemmPlan plan = gemm::GemmPlan::compile(
      engine_cfg, gemm::PlanKey{cfg.m, cfg.n, cfg.k, false}, options);
  return plan.execute(a, b, c);
}

struct TrialOutcome {
  long faults = 0;
  bool perturbed = false;
  bool corrupting = false;
  bool detected = false;
  bool corrected = false;
  bool abft_failure = false;
};

TrialOutcome run_trial(const CampaignConfig& cfg, Site site, double rate,
                       std::uint64_t trial_seed) {
  Rng rng(trial_seed);
  gemm::Matrix<float> a(cfg.m, cfg.k), b(cfg.k, cfg.n), c0(cfg.m, cfg.n);
  for (int i = 0; i < cfg.m; ++i) {
    for (int kk = 0; kk < cfg.k; ++kk) a(i, kk) = rng.scaled_float();
  }
  for (int kk = 0; kk < cfg.k; ++kk) {
    for (int j = 0; j < cfg.n; ++j) b(kk, j) = rng.scaled_float();
  }
  for (int i = 0; i < cfg.m; ++i) {
    for (int j = 0; j < cfg.n; ++j) c0(i, j) = rng.scaled_float();
  }

  const core::M3xuEngine clean{core::M3xuConfig{}};
  const std::uint64_t inj_seed = trial_seed ^ 0xabf7abf7abf7abf7ull;
  const SiteRates rates = SiteRates::only(site, rate);

  // Fault-free reference through the same tiled path.
  gemm::Matrix<float> ref = c0;
  plan_sgemm(clean.config(), cfg, gemm::AbftConfig{}, a, b, ref);

  TrialOutcome out;

  // Unguarded injected run: classifies the raw damage.
  const FaultInjector unguarded_inj(inj_seed, rates);
  core::M3xuConfig faulty_cfg;
  faulty_cfg.injector = &unguarded_inj;
  gemm::Matrix<float> raw = c0;
  plan_sgemm(faulty_cfg, cfg, gemm::AbftConfig{}, a, b, raw);
  out.faults = static_cast<long>(unguarded_inj.total_injected());
  out.perturbed = !bitwise_equal(raw, ref);
  for (int j = 0; j < cfg.n && !out.corrupting; ++j) {
    // > 2x the guard's tolerance: the residual the flip leaves in the
    // column checksum provably exceeds the tolerance, so a miss is a
    // genuine escape, not a rounding ambiguity.
    const double limit = 2.0 * gemm::abft_column_tolerance(
                                   clean, cfg.tile, cfg.abft, a, b, c0, 0,
                                   cfg.m, j);
    for (int i = 0; i < cfg.m; ++i) {
      const double dev = std::fabs(static_cast<double>(raw(i, j)) -
                                   static_cast<double>(ref(i, j)));
      if (dev > limit) {
        out.corrupting = true;
        break;
      }
    }
  }

  // Guarded run: a fresh injector with the same seed replays the exact
  // same flips, now under the ABFT checksums.
  const FaultInjector guarded_inj(inj_seed, rates);
  core::M3xuConfig guarded_cfg;
  guarded_cfg.injector = &guarded_inj;
  gemm::Matrix<float> fixed = c0;
  try {
    const gemm::TiledGemmStats stats =
        plan_sgemm(guarded_cfg, cfg, cfg.abft, a, b, fixed);
    out.detected = stats.abft_detected > 0;
    out.corrected = out.detected && bitwise_equal(fixed, ref);
  } catch (const gemm::AbftFailure&) {
    out.detected = true;  // the guard tripped; recovery budget ran out
    out.abft_failure = true;
  }
  return out;
}

}  // namespace

double CampaignCell::detection_rate() const {
  return corrupting == 0 ? 1.0
                         : 1.0 - static_cast<double>(escaped_sdc) /
                                     static_cast<double>(corrupting);
}

double CampaignCell::correction_rate() const {
  return detected == 0 ? 1.0
                       : static_cast<double>(corrected) /
                             static_cast<double>(detected);
}

long CampaignResult::total_faults() const {
  long total = 0;
  for (const CampaignCell& cell : cells) total += cell.faults_injected;
  return total;
}

int CampaignResult::total_corrupting() const {
  int total = 0;
  for (const CampaignCell& cell : cells) total += cell.corrupting;
  return total;
}

int CampaignResult::total_escaped_sdc() const {
  int total = 0;
  for (const CampaignCell& cell : cells) total += cell.escaped_sdc;
  return total;
}

double CampaignResult::overall_detection_rate() const {
  const int corrupting = total_corrupting();
  return corrupting == 0 ? 1.0
                         : 1.0 - static_cast<double>(total_escaped_sdc()) /
                                     static_cast<double>(corrupting);
}

CampaignResult run_campaign(const CampaignConfig& config) {
  M3XU_CHECK_MSG(config.m <= config.tile.block_m &&
                     config.n <= config.tile.block_n,
                 "fault campaign requires a single-tile geometry (m/n must "
                 "fit one threadblock tile) for deterministic fault replay");
  M3XU_CHECK_MSG(config.abft.enable,
                 "fault campaign measures the ABFT guard; abft.enable must "
                 "be set");
  gemm::validate_abft_config(config.abft);
  CampaignResult result;
  result.config = config;
  std::size_t cell_index = 0;
  for (Site site : config.sites) {
    for (double rate : config.rates) {
      CampaignCell cell;
      cell.site = site;
      cell.rate = rate;
      cell.trials = config.trials;
      for (int trial = 0; trial < config.trials; ++trial) {
        const std::uint64_t trial_seed = mix(
            config.seed + cell_index * 0x10001ull * config.trials + trial);
        const TrialOutcome out = run_trial(config, site, rate, trial_seed);
        cell.faults_injected += out.faults;
        cell.faulted += out.faults > 0 ? 1 : 0;
        cell.perturbed += out.perturbed ? 1 : 0;
        cell.corrupting += out.corrupting ? 1 : 0;
        cell.detected += out.detected ? 1 : 0;
        cell.corrected += out.corrected ? 1 : 0;
        cell.escaped_sdc += (out.corrupting && !out.detected) ? 1 : 0;
        cell.abft_failures += out.abft_failure ? 1 : 0;
      }
      result.cells.push_back(cell);
      ++cell_index;
    }
  }
  return result;
}

std::string to_json(const CampaignResult& result) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("config").begin_object();
  w.kv("m", result.config.m)
      .kv("n", result.config.n)
      .kv("k", result.config.k)
      .kv("trials", result.config.trials)
      .kv("seed", result.config.seed)
      .kv("tolerance_scale", result.config.abft.tolerance_scale)
      .end_object();
  w.key("cells").begin_array();
  for (const CampaignCell& cell : result.cells) {
    w.begin_object()
        .kv("site", site_name(cell.site))
        .kv("rate", cell.rate)
        .kv("trials", cell.trials)
        .kv("faults_injected", cell.faults_injected)
        .kv("faulted", cell.faulted)
        .kv("perturbed", cell.perturbed)
        .kv("corrupting", cell.corrupting)
        .kv("detected", cell.detected)
        .kv("corrected", cell.corrected)
        .kv("escaped_sdc", cell.escaped_sdc)
        .kv("abft_failures", cell.abft_failures)
        .kv("detection_rate", cell.detection_rate())
        .kv("correction_rate", cell.correction_rate())
        .end_object();
  }
  w.end_array();
  w.kv("total_faults", result.total_faults())
      .kv("total_corrupting", result.total_corrupting())
      .kv("total_escaped_sdc", result.total_escaped_sdc())
      .kv("overall_detection_rate", result.overall_detection_rate())
      .end_object();
  return w.str() + "\n";
}

}  // namespace m3xu::fault
