#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <map>

#include "telemetry/json.hpp"

namespace perfbench {

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

void Metrics::set(const std::string& name, double value,
                  const std::string& unit, long samples) {
  for (Metric& item : items_) {
    if (item.name == name) {
      item = {name, value, unit, samples};
      return;
    }
  }
  items_.push_back({name, value, unit, samples});
}

int SpanLog::add(const std::string& name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t id, int parent) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, std::max(start_ns, end_ns), parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::write_perfetto(const std::string& path,
                             const std::string& environment_json) const {
  const std::vector<Span> all = spans();
  std::uint64_t origin = UINT64_MAX;
  for (const Span& s : all) origin = std::min(origin, s.start_ns);
  m3xu::telemetry::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData").raw(environment_json);
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("pid", 1);
    // One track per join id keeps a request's or a call's spans
    // nested on one row.
    w.kv("tid", s.id);
    w.key("ts").value(static_cast<double>(s.start_ns - origin) * 1e-3, 15);
    w.key("dur").value(static_cast<double>(s.end_ns - s.start_ns) * 1e-3, 15);
    w.key("args").begin_object();
    w.kv("id", s.id);
    w.kv("span", static_cast<long>(i));
    w.kv("parent", static_cast<long>(s.parent));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string& doc = w.str();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

std::vector<std::pair<std::string, double>> self_time_ns(
    const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
    }
  }
  std::vector<std::pair<std::string, double>> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const int c : children[i]) {
      const Span& k = spans[static_cast<std::size_t>(c)];
      const std::uint64_t a = std::max(k.start_ns, s.start_ns);
      const std::uint64_t b = std::min(k.end_ns, s.end_ns);
      if (b > a) iv.push_back({a, b});
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    const double self = static_cast<double>(s.end_ns - s.start_ns) -
                        static_cast<double>(covered);
    auto it = index.find(s.name);
    if (it == index.end()) {
      index[s.name] = out.size();
      out.push_back({s.name, self});
    } else {
      out[it->second].second += self;
    }
  }
  return out;
}

void print_self_time_table(const std::string& title,
                           const std::vector<SelfTimeRow>& rows,
                           double total_ms_per_op) {
  std::printf("\n%s\n", title.c_str());
  std::printf("  %-34s %12s %8s  %s\n", "layer", "self ms/op", "share",
              "source");
  double sum = 0.0;
  for (const SelfTimeRow& r : rows) {
    sum += r.ms_per_op;
    std::printf("  %-34s %12.4f %7.1f%%  %s\n", r.layer.c_str(), r.ms_per_op,
                total_ms_per_op > 0 ? 100.0 * r.ms_per_op / total_ms_per_op
                                    : 0.0,
                r.source.c_str());
  }
  std::printf("  %-34s %12.4f %7.1f%%  (measured %.4f ms/op)\n", "sum", sum,
              total_ms_per_op > 0 ? 100.0 * sum / total_ms_per_op : 0.0,
              total_ms_per_op);
}

}  // namespace perfbench
