#include "common/metrics.h"

#include <cstdio>

#include "common/logging.h"
#include "common/serialize.h"

namespace cdb {

int Histogram::BucketFor(int64_t value) {
  if (value <= 0) return 0;
  int bucket = 0;
  uint64_t v = static_cast<uint64_t>(value);
  while (v != 0) {
    ++bucket;
    v >>= 1;
  }
  return bucket < kNumBuckets ? bucket : kNumBuckets - 1;
}

void Histogram::Observe(int64_t value) {
  count_.Increment();
  sum_.Increment(value < 0 ? 0 : value);
  buckets_[static_cast<size_t>(BucketFor(value))].Increment();
}

void Histogram::Reset(int64_t count, int64_t sum,
                      const std::array<int64_t, kNumBuckets>& buckets) {
  count_.Reset(count);
  sum_.Reset(sum);
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets_[static_cast<size_t>(b)].Reset(buckets[static_cast<size_t>(b)]);
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  MutexLock lock(mutex_);
  CDB_CHECK_MSG(gauges_.find(name) == gauges_.end() &&
                    histograms_.find(name) == histograms_.end(),
                "metric name registered with a different type");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  MutexLock lock(mutex_);
  CDB_CHECK_MSG(counters_.find(name) == counters_.end() &&
                    histograms_.find(name) == histograms_.end(),
                "metric name registered with a different type");
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  MutexLock lock(mutex_);
  CDB_CHECK_MSG(counters_.find(name) == counters_.end() &&
                    gauges_.find(name) == gauges_.end(),
                "metric name registered with a different type");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::map<std::string, int64_t> MetricsRegistry::Flatten() const {
  MutexLock lock(mutex_);
  std::map<std::string, int64_t> flat;
  for (const auto& [name, counter] : counters_) {
    flat[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    flat[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    flat[name + ".count"] = histogram->count();
    flat[name + ".sum"] = histogram->sum();
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      int64_t n = histogram->bucket(b);
      if (n == 0) continue;
      char suffix[24];
      std::snprintf(suffix, sizeof(suffix), ".bucket%02d", b);
      flat[name + suffix] = n;
    }
  }
  return flat;
}

std::string MetricsRegistry::Dump() const {
  std::string out;
  for (const auto& [name, value] : Flatten()) {
    out += name;
    out += '=';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [name, value] : Flatten()) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"";
    out += name;  // Metric names are repo-chosen identifiers; no escaping.
    out += "\": ";
    out += std::to_string(value);
  }
  out += "\n}\n";
  return out;
}

namespace {

// Magic "CDBM".
constexpr BlobFormat kMetricsBlob = {"metrics snapshot", 0x4342444dU, 1};

struct HistogramState {
  int64_t count = 0;
  int64_t sum = 0;
  std::array<int64_t, Histogram::kNumBuckets> buckets{};
};

// The registry's checkpoint layout: counters, gauges and histograms as three
// name-sorted lists, kept apart (a flattened name dump could not round-trip
// a histogram through its ".bucketNN" rendering).
struct RegistryState {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramState> histograms;
};

template <typename Io>
Status Walk(Io& io, CodecRef<Io, HistogramState> histogram) {
  return io(histogram.count, histogram.sum, histogram.buckets);
}

template <typename Io>
Status Walk(Io& io, CodecRef<Io, RegistryState> state) {
  return io(state.counters, state.gauges, state.histograms);
}

// The first key of `names` that any of `others` also holds, or null.
template <typename Names, typename... Others>
const std::string* SharedKey(const Names& names, const Others&... others) {
  for (const auto& entry : names) {
    if (((others.find(entry.first) != others.end()) || ...)) {
      return &entry.first;
    }
  }
  return nullptr;
}

}  // namespace

std::string MetricsRegistry::SerializeState() const {
  RegistryState state;
  {
    MutexLock lock(mutex_);
    for (const auto& [name, counter] : counters_) {
      state.counters.emplace(name, counter->Value());
    }
    for (const auto& [name, gauge] : gauges_) {
      state.gauges.emplace(name, gauge->Value());
    }
    for (const auto& [name, histogram] : histograms_) {
      HistogramState& h = state.histograms[name];
      h.count = histogram->count();
      h.sum = histogram->sum();
      for (int b = 0; b < Histogram::kNumBuckets; ++b) {
        h.buckets[static_cast<size_t>(b)] = histogram->bucket(b);
      }
    }
  }
  return SealBlob(kMetricsBlob, [&state](ByteWriter& writer) {
    (void)writer(state);  // Encoding never fails.
  });
}

Status MetricsRegistry::RestoreState(std::string_view blob) {
  CDB_ASSIGN_OR_RETURN(ByteReader reader, OpenBlob(blob, kMetricsBlob));
  // Parse fully before mutating, so a corrupt blob leaves the registry as it
  // was.
  RegistryState state;
  CDB_RETURN_IF_ERROR(reader(state));
  if (reader.remaining() != 0) {
    return Status::DataLoss("metrics snapshot has trailing bytes");
  }

  // Zero everything already registered (handles stay valid), then apply.
  // get-or-create outside the dump lock is fine: counter()/gauge()/
  // histogram() take the lock themselves and the restore path is quiescent.
  {
    MutexLock lock(mutex_);
    // Each name keeps one type, within the blob and against this registry;
    // the getters below abort on a clash, so refuse it before any change.
    for (const std::string* clash :
         {SharedKey(state.counters, state.gauges, state.histograms, gauges_,
                    histograms_),
          SharedKey(state.gauges, state.histograms, counters_, histograms_),
          SharedKey(state.histograms, counters_, gauges_)}) {
      if (clash != nullptr) {
        return Status::DataLoss("metrics snapshot: metric '" + *clash +
                                "' would get a second type");
      }
    }
    for (auto& [name, counter] : counters_) counter->Reset(0);
    for (auto& [name, gauge] : gauges_) gauge->Set(0);
    for (auto& [name, histogram] : histograms_) {
      histogram->Reset(0, 0, std::array<int64_t, Histogram::kNumBuckets>{});
    }
  }
  for (const auto& [name, value] : state.counters) counter(name).Reset(value);
  for (const auto& [name, value] : state.gauges) gauge(name).Set(value);
  for (const auto& [name, h] : state.histograms) {
    histogram(name).Reset(h.count, h.sum, h.buckets);
  }
  return Status::Ok();
}

std::string MetricsDump(const MetricsRegistry& registry) {
  return registry.Dump();
}

}  // namespace cdb
