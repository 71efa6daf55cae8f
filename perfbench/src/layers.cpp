#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "core/microkernel.hpp"

namespace perfbench {

namespace {

// Self-time layers in report order (metric self.<layer>_ms).
const char* const kSelfLayers[] = {
    "load.generator",         "serve.admission",
    "serve.queue",            "serve.server",
    "gemm.tiled_driver.stage", "core.pack",
    "core.microkernel",       "core.edge",
    "gemm.tiled_driver.epilogue", "gemm.recovery.abft",
    "common.thread_pool",     "load.observer",
};

}  // namespace

void declare_layer_metrics(Metrics& m) {
  const std::pair<const char*, const char*> metrics[] = {
      {"plan.compile_us", "us"},
      {"plan.execute_ms", "ms"},
      {"driver.stage_s", "s"},
      {"driver.pack_s", "s"},
      {"driver.mainloop_s", "s"},
      {"driver.epilogue_s", "s"},
      {"driver.abft_s", "s"},
      {"driver.block_tiles", "count"},
      {"driver.mma_instructions", "count"},
      {"driver.staged_bytes", "bytes"},
      {"pool.utilization", "ratio"},
      {"core.mk_block_element_rate", "ratio"},
      {"core.microkernel_ns_per_mac.sgemm", "ns"},
      {"core.microkernel_ns_per_mac.cgemm", "ns"},
      {"core.pack_ns_per_elem.a", "ns"},
      {"core.pack_ns_per_elem.b", "ns"},
      {"core.edge_ns_per_mac", "ns"},
      {"core.replay_reconcile_ratio", "ratio"},
      {"core.replay_reconcile_ratio.p25", "ratio"},
      {"core.replay_reconcile_ratio.p75", "ratio"},
      {"serve.submit_us", "us"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.execute_ms", "ms"},
      {"serve.retry_backoff_ms", "ms"},
      {"serve.attempts_per_request", "count"},
      {"serve.shed_ratio", "ratio"},
      {"serve.queue_depth_max", "count"},
      {"serve.pack_cache_hit_ratio", "ratio"},
      {"serve.pack_cache_hits", "count"},
      {"serve.pack_cache_misses", "count"},
      {"serve.latency_p50_ms.shared", "ms"},
      {"serve.latency_p50_ms.fresh", "ms"},
      {"serve.generator_lag_ms.p99", "ms"},
      {"serve.generator_lag_ms.max", "ms"},
      {"serve.observer_lag_ms.p50", "ms"},
      {"serve.observer_lag_ms.p99", "ms"},
      {"abft.tile_checks", "count"},
      {"abft.detected", "count"},
      {"recovery.demotions", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.samples", "count"},
  };
  for (const auto& [name, unit] : metrics) m.set(name, 0.0, unit);
  for (const char* layer : kSelfLayers) {
    m.set(std::string("self.") + layer + "_ms", 0.0, "ms");
  }
}

void DriverTotals::add(const m3xu::gemm::TiledGemmStats& s) {
  ++calls;
  stage_s += s.stage_seconds;
  pack_s += s.pack_seconds;
  mainloop_s += s.mainloop_seconds;
  epilogue_s += s.epilogue_seconds;
  abft_s += s.abft_seconds;
  block_tiles += static_cast<double>(s.block_tiles);
  mma_instructions += static_cast<double>(s.mma_instructions);
  staged_bytes += s.staged_bytes;
  abft_tile_checks += static_cast<double>(s.abft_tile_checks);
  abft_detected += static_cast<double>(s.abft_detected);
  demotions += static_cast<double>(s.recovery.demotions);
}

void report_driver(Metrics& m, const DriverTotals& t) {
  if (t.calls == 0) return;
  const double n = static_cast<double>(t.calls);
  m.set("driver.stage_s", t.stage_s / n, "s");
  m.set("driver.pack_s", t.pack_s / n, "s");
  m.set("driver.mainloop_s", t.mainloop_s / n, "s");
  m.set("driver.epilogue_s", t.epilogue_s / n, "s");
  m.set("driver.abft_s", t.abft_s / n, "s");
  m.set("driver.block_tiles", t.block_tiles / n, "count");
  m.set("driver.mma_instructions", t.mma_instructions / n, "count");
  m.set("driver.staged_bytes", t.staged_bytes / n, "bytes");
  m.set("abft.tile_checks", t.abft_tile_checks, "count");
  m.set("abft.detected", t.abft_detected, "count");
  m.set("recovery.demotions", t.demotions, "count");
}

CounterDelta counter_delta(const m3xu::telemetry::Snapshot& before,
                           const m3xu::telemetry::Snapshot& after) {
  const auto d = [&](const char* name) {
    return static_cast<double>(after.counter_delta(before, name));
  };
  CounterDelta c;
  c.pool_busy_ns = d("threadpool.worker_busy_ns");
  c.mk_block_elements = d("mxu.fp32.microkernel.block_elements") +
                        d("mxu.fp32c.microkernel.block_elements");
  c.edge_elements = d("mxu.fp32.elements.edge") + d("mxu.fp32c.elements.edge");
  c.pack_a_elems_s = d("pack.fp32.a_elements");
  c.pack_b_elems_s = d("pack.fp32.b_elements");
  c.pack_a_elems_c = d("pack.fp32c.a_elements");
  c.pack_b_elems_c = d("pack.fp32c.b_elements");
  return c;
}

void report_counters(Metrics& m, const CounterDelta& d, double wall_s,
                     int pool_threads) {
  if (wall_s > 0 && pool_threads > 0) {
    m.set("pool.utilization", d.pool_busy_ns * 1e-9 / (wall_s * pool_threads),
          "ratio");
  }
  const double outputs = d.mk_block_elements + d.edge_elements;
  if (outputs > 0) {
    m.set("core.mk_block_element_rate", d.mk_block_elements / outputs, "ratio");
  }
}

void report_replay(Metrics& m, const ReplayRates& r, const CounterDelta& d,
                   const MacSplit& sgemm_macs, const MacSplit& cgemm_macs,
                   const std::vector<double>& reconcile_ratios) {
  m.set("core.microkernel_ns_per_mac.sgemm", r.sgemm.mk_ns_per_mac, "ns");
  m.set("core.microkernel_ns_per_mac.cgemm", r.cgemm.mk_ns_per_mac, "ns");
  const auto mix = [](double rs, double ws, double rc, double wc) {
    return ws + wc > 0 ? (rs * ws + rc * wc) / (ws + wc) : (rs + rc) / 2;
  };
  m.set("core.pack_ns_per_elem.a",
        mix(r.sgemm.pack_a_ns_per_elem, d.pack_a_elems_s,
            r.cgemm.pack_a_ns_per_elem, d.pack_a_elems_c),
        "ns");
  m.set("core.pack_ns_per_elem.b",
        mix(r.sgemm.pack_b_ns_per_elem, d.pack_b_elems_s,
            r.cgemm.pack_b_ns_per_elem, d.pack_b_elems_c),
        "ns");
  m.set("core.edge_ns_per_mac",
        mix(r.sgemm.edge_ns_per_mac, sgemm_macs.edge_macs,
            r.cgemm.edge_ns_per_mac, cgemm_macs.edge_macs),
        "ns");
  if (!reconcile_ratios.empty()) {
    m.set("core.replay_reconcile_ratio", median(reconcile_ratios), "ratio");
    m.set("core.replay_reconcile_ratio.p25",
          percentile(reconcile_ratios, 25.0), "ratio");
    m.set("core.replay_reconcile_ratio.p75",
          percentile(reconcile_ratios, 75.0), "ratio");
  }
}

ExecLedger::ExecLedger(const ReplayRates& rates, int pool_threads)
    : rates_(rates), pool_threads_(std::max(pool_threads, 1)) {
  const m3xu::core::M3xuConfig ecfg;
  const m3xu::core::MkBlockShape blk =
      m3xu::core::mk_block_resolve(ecfg.mk_mr, ecfg.mk_nr);
  mr_ = blk.mr;
  nr_ = blk.nr;
}

MacSplit ExecLedger::add(const m3xu::gemm::TiledGemmStats& s, int m, int n,
                         int k, bool cplx) {
  totals_.add(s);
  const MacSplit ms = mac_split(tile_, m, n, k, cplx, mr_, nr_);
  MacSplit& acc = cplx ? c_macs_ : s_macs_;
  acc.block_macs += ms.block_macs;
  acc.edge_macs += ms.edge_macs;
  const StageRates& sr = cplx ? rates_.cgemm : rates_.sgemm;
  const double mk_cpu = sr.mk_ns_per_mac * ms.block_macs;
  const double edge_cpu = sr.edge_ns_per_mac * ms.edge_macs;
  const double mk_share =
      mk_cpu + edge_cpu > 0 ? mk_cpu / (mk_cpu + edge_cpu) : 1.0;
  const long threads =
      std::max(1L, std::min<long>(pool_threads_, s.block_tiles));
  const double per_ms = 1e3 / static_cast<double>(threads);
  stage_ms_ += s.stage_seconds * per_ms;
  pack_ms_ += s.pack_seconds * per_ms;
  mk_ms_ += s.mainloop_seconds * per_ms * mk_share;
  edge_ms_ += s.mainloop_seconds * per_ms * (1.0 - mk_share);
  epilogue_ms_ += s.epilogue_seconds * per_ms;
  abft_ms_ += s.abft_seconds * per_ms;
  return ms;
}

double ExecLedger::attributed_ms() const {
  const double n = std::max(1.0, static_cast<double>(totals_.calls));
  return (stage_ms_ + pack_ms_ + mk_ms_ + edge_ms_ + epilogue_ms_ +
          abft_ms_) / n;
}

std::vector<SelfTimeRow> ExecLedger::attribute(double execute_ms) const {
  const double n = std::max(1.0, static_cast<double>(totals_.calls));
  const char* const src = "TiledGemmStats cpu / call threads";
  const char* const split = "mainloop cpu / call threads x replay share";
  return {
      {"gemm.tiled_driver.stage", stage_ms_ / n, src},
      {"core.pack", pack_ms_ / n, src},
      {"core.microkernel", mk_ms_ / n, split},
      {"core.edge", edge_ms_ / n, split},
      {"gemm.tiled_driver.epilogue", epilogue_ms_ / n, src},
      {"gemm.recovery.abft", abft_ms_ / n, src},
      {"common.thread_pool", execute_ms - attributed_ms(),
       "execute wall - phases (idle threads, dispatch)"},
  };
}

void print_attribution_check(const ExecLedger& ledger, double execute_ms) {
  const double phases = ledger.attributed_ms();
  std::printf("  execute %.4f ms/call: driver phases explain %.4f ms (%.1f%%), "
              "common.thread_pool is the remaining %.4f ms\n",
              execute_ms, phases,
              execute_ms > 0 ? 100.0 * phases / execute_ms : 0.0,
              execute_ms - phases);
  if (phases > 1.05 * execute_ms) {
    std::printf("  WARNING: phase CPU over call threads exceeds the execute "
                "wall by more than 5%%; the attribution over-counts\n");
  }
}

void report_self_times(Metrics& m, const std::vector<SelfTimeRow>& rows) {
  for (const SelfTimeRow& r : rows) {
    m.set("self." + r.layer + "_ms", r.ms_per_op, "ms");
  }
}

}  // namespace perfbench
