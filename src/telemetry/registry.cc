#include "telemetry/registry.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "telemetry/trace_log.h"

namespace hope::telemetry {

namespace {

/// JSON string-content escaping (quotes, backslash, control chars).
void AppendJsonEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
void AppendPromEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

/// `name{k="v",k2="v2"}` (bare name when no labels). `extra` appends one
/// more label pair (the summary quantile) inside the same brace set.
std::string RenderSeries(const std::string& name, const Labels& labels,
                         const char* extra_key = nullptr,
                         const char* extra_value = nullptr) {
  std::string out = name;
  if (labels.empty() && extra_key == nullptr) return out;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    AppendPromEscaped(out, v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  out += '}';
  return out;
}

void AppendDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Integral values (counters via callbacks, most gauges) render without
  // a fractional part so JSONL output stays grep-friendly.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  } else {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out += buf;
  }
}

void AppendU64(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "summary";
  }
  return "untyped";
}

}  // namespace

std::string RegistrySnapshot::ToJson() const {
  std::string out = "{\"ts_ns\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(ts_ns));
  out += buf;
  out += ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(out, RenderSeries(m.name, m.labels));
    out += "\":";
    if (m.kind == MetricKind::kHistogram) {
      out += "{\"count\":";
      AppendU64(out, m.hist.count);
      out += ",\"p50_ns\":";
      AppendU64(out, m.hist.p50);
      out += ",\"p99_ns\":";
      AppendU64(out, m.hist.p99);
      out += ",\"p999_ns\":";
      AppendU64(out, m.hist.p999);
      out += ",\"max_ns\":";
      AppendU64(out, m.hist.max);
      out += ",\"mean_ns\":";
      AppendDouble(out, m.hist.mean);
      out += '}';
    } else {
      AppendDouble(out, m.value);
    }
  }
  out += "}}";
  return out;
}

std::string RegistrySnapshot::ToPrometheus() const {
  std::string out;
  const std::string* prev_name = nullptr;
  for (const Metric& m : metrics) {
    if (prev_name == nullptr || *prev_name != m.name) {
      out += "# TYPE ";
      out += m.name;
      out += ' ';
      out += KindName(m.kind);
      out += '\n';
      prev_name = &m.name;
    }
    if (m.kind == MetricKind::kHistogram) {
      static constexpr struct {
        const char* label;
        double q;
      } kQuantiles[] = {{"0.5", 0.5}, {"0.99", 0.99}, {"0.999", 0.999}};
      const uint64_t qv[] = {m.hist.p50, m.hist.p99, m.hist.p999};
      for (size_t i = 0; i < 3; i++) {
        out += RenderSeries(m.name, m.labels, "quantile", kQuantiles[i].label);
        out += ' ';
        AppendU64(out, qv[i]);
        out += '\n';
        (void)kQuantiles[i].q;
      }
      out += RenderSeries(m.name + "_sum", m.labels);
      out += ' ';
      AppendDouble(out, m.hist.mean * static_cast<double>(m.hist.count));
      out += '\n';
      out += RenderSeries(m.name + "_count", m.labels);
      out += ' ';
      AppendU64(out, m.hist.count);
      out += '\n';
    } else {
      out += RenderSeries(m.name, m.labels);
      out += ' ';
      AppendDouble(out, m.value);
      out += '\n';
    }
  }
  return out;
}

void MetricRegistry::Registration::Release() {
  if (registry_ != nullptr) {
    registry_->Remove(id_);
    registry_ = nullptr;
  }
}

MetricRegistry::Registration MetricRegistry::RegisterCounter(
    std::string name, Labels labels, const Counter* counter) {
  Entry e;
  e.name = std::move(name);
  e.labels = std::move(labels);
  e.kind = MetricKind::kCounter;
  e.counter = counter;
  return Add(std::move(e));
}

MetricRegistry::Registration MetricRegistry::RegisterGauge(
    std::string name, Labels labels, const Gauge* gauge) {
  Entry e;
  e.name = std::move(name);
  e.labels = std::move(labels);
  e.kind = MetricKind::kGauge;
  e.gauge = gauge;
  return Add(std::move(e));
}

MetricRegistry::Registration MetricRegistry::RegisterHistogram(
    std::string name, Labels labels, const Histogram* histogram) {
  Entry e;
  e.name = std::move(name);
  e.labels = std::move(labels);
  e.kind = MetricKind::kHistogram;
  e.histogram = histogram;
  return Add(std::move(e));
}

MetricRegistry::Registration MetricRegistry::RegisterCallback(
    std::string name, Labels labels, MetricKind kind,
    std::function<double()> read) {
  Entry e;
  e.name = std::move(name);
  e.labels = std::move(labels);
  e.kind = kind;
  e.read = std::move(read);
  return Add(std::move(e));
}

MetricRegistry::Registration MetricRegistry::Add(Entry entry) {
  MutexLock lock(mu_);
  entry.id = next_id_++;
  const uint64_t id = entry.id;
  entries_.push_back(std::move(entry));
  return Registration(this, id);
}

void MetricRegistry::Remove(uint64_t id) {
  MutexLock lock(mu_);
  for (size_t i = 0; i < entries_.size(); i++) {
    if (entries_[i].id == id) {
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

RegistrySnapshot MetricRegistry::Snapshot() const {
  RegistrySnapshot snap;
  snap.ts_ns = TraceLog::NowNs();
  MutexLock lock(mu_);
  snap.metrics.reserve(entries_.size());
  for (const Entry& e : entries_) {
    RegistrySnapshot::Metric m;
    m.name = e.name;
    m.labels = e.labels;
    m.kind = e.kind;
    if (e.counter != nullptr) {
      m.value = static_cast<double>(e.counter->Value());
    } else if (e.gauge != nullptr) {
      m.value = static_cast<double>(e.gauge->Value());
    } else if (e.histogram != nullptr) {
      const HistogramSnapshot h = e.histogram->Snapshot();
      m.hist.count = h.count;
      m.hist.p50 = h.Percentile(0.50);
      m.hist.p99 = h.Percentile(0.99);
      m.hist.p999 = h.Percentile(0.999);
      m.hist.max = h.max;
      m.hist.mean = h.mean;
    } else if (e.read) {
      m.value = e.read();
    }
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const RegistrySnapshot::Metric& a,
               const RegistrySnapshot::Metric& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

}  // namespace hope::telemetry
