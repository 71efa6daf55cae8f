// Fault-injection campaign over the ABFT-guarded tiled SGEMM: sweeps
// single-bit flip rates across the four datapath sites and emits a
// JSON SDC-coverage table (detected / corrected / escaped counts per
// cell). The headline check: at per-opportunity rates >= 1e-4 the
// guard detects >= 99% of guaranteed-detectable corruptions and the
// clean-recompute recovery preset restores the fault-free result
// bitwise.
//
// Flags: --m/--n/--k geometry (must fit one tile), --trials per cell,
// --seed, --rates=comma,separated, --tolerance-scale (finite, >= 0),
// --json-only to suppress the human-readable summary.
//
// Exit status: nonzero when any campaign cell escaped an SDC, so CI
// can gate on coverage directly, and on an invalid --tolerance-scale.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "fault/campaign.hpp"

using namespace m3xu;

namespace {

std::vector<double> parse_rates(const std::string& spec) {
  std::vector<double> rates;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    try {
      std::size_t used = 0;
      const double rate = std::stod(item, &used);
      if (used != item.size() || rate < 0.0 || rate > 1.0) throw 0;
      rates.push_back(rate);
    } catch (...) {
      std::fprintf(stderr,
                   "bench_fault_campaign: bad --rates entry '%s' (want "
                   "comma-separated probabilities in [0,1])\n",
                   item.c_str());
      std::exit(2);
    }
    pos = comma + 1;
  }
  if (rates.empty()) {
    std::fprintf(stderr, "bench_fault_campaign: --rates must be non-empty\n");
    std::exit(2);
  }
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);

  fault::CampaignConfig config;
  config.m = static_cast<int>(cli.get_int("m", config.m));
  config.n = static_cast<int>(cli.get_int("n", config.n));
  config.k = static_cast<int>(cli.get_int("k", config.k));
  config.trials = static_cast<int>(cli.get_int("trials", config.trials));
  config.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(config.seed)));
  config.rates = parse_rates(cli.get("rates", "1e-5,1e-4,1e-3"));
  config.abft.tolerance_scale =
      cli.get_double("tolerance-scale", config.abft.tolerance_scale);
  // Grow the tile with the geometry so the campaign stays single-tile.
  config.tile.block_m = ((config.m + 15) / 16) * 16;
  config.tile.block_n = ((config.n + 15) / 16) * 16;

  const fault::CampaignResult result = fault::run_campaign(config);

  if (!cli.get_bool("json-only", false)) {
    std::printf("== Fault campaign: ABFT-guarded tiled SGEMM (%dx%dx%d, "
                "%d trials/cell) ==\n",
                config.m, config.n, config.k, config.trials);
    std::printf("%-16s %-9s %8s %9s %10s %9s %9s %8s\n", "site", "rate",
                "faults", "corrupt", "detected", "corrected", "escaped",
                "det%");
    for (const fault::CampaignCell& cell : result.cells) {
      std::printf("%-16s %-9.1e %8ld %9d %10d %9d %9d %7.1f%%\n",
                  fault::site_name(cell.site), cell.rate,
                  cell.faults_injected, cell.corrupting, cell.detected,
                  cell.corrected, cell.escaped_sdc,
                  100.0 * cell.detection_rate());
    }
    std::printf("\noverall: %ld faults, %d corrupting trials, %d escaped "
                "(detection %.2f%%)\n\n",
                result.total_faults(), result.total_corrupting(),
                result.total_escaped_sdc(),
                100.0 * result.overall_detection_rate());
  }
  std::printf("%s", fault::to_json(result).c_str());
  // CI gate: any silent-data-corruption escape fails the run.
  return result.total_escaped_sdc() > 0 ? 1 : 0;
}
