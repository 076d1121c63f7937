#include "common/metrics.h"

#include <cstdio>
#include <vector>

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

// Registry snapshot framing: magic + version up front, FNV-1a 64 trailer.
constexpr uint32_t kMetricsSnapshotMagic = 0x4342444dU;  // "CDBM".
constexpr uint32_t kMetricsSnapshotVersion = 1;

}  // namespace

std::string MetricsRegistry::SerializeState() const {
  ByteWriter writer;
  writer.PutU32(kMetricsSnapshotMagic);
  writer.PutU32(kMetricsSnapshotVersion);
  {
    MutexLock lock(mutex_);
    writer.PutU32(static_cast<uint32_t>(counters_.size()));
    for (const auto& [name, counter] : counters_) {
      writer.PutString(name);
      writer.PutI64(counter->Value());
    }
    writer.PutU32(static_cast<uint32_t>(gauges_.size()));
    for (const auto& [name, gauge] : gauges_) {
      writer.PutString(name);
      writer.PutI64(gauge->Value());
    }
    writer.PutU32(static_cast<uint32_t>(histograms_.size()));
    for (const auto& [name, histogram] : histograms_) {
      writer.PutString(name);
      writer.PutI64(histogram->count());
      writer.PutI64(histogram->sum());
      for (int b = 0; b < Histogram::kNumBuckets; ++b) {
        writer.PutI64(histogram->bucket(b));
      }
    }
  }
  writer.PutU64(SnapshotChecksum(writer.data()));
  return writer.Take();
}

Status MetricsRegistry::RestoreState(std::string_view blob) {
  if (blob.size() < sizeof(uint64_t)) {
    return Status::DataLoss("metrics snapshot shorter than its checksum");
  }
  std::string_view payload = blob.substr(0, blob.size() - sizeof(uint64_t));
  ByteReader trailer(blob.substr(payload.size()));
  uint64_t checksum = 0;
  CDB_RETURN_IF_ERROR(trailer.GetU64(&checksum));
  if (checksum != SnapshotChecksum(payload)) {
    return Status::DataLoss("metrics snapshot checksum mismatch");
  }
  ByteReader reader(payload);
  uint32_t magic = 0;
  uint32_t version = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&magic));
  CDB_RETURN_IF_ERROR(reader.GetU32(&version));
  if (magic != kMetricsSnapshotMagic) {
    return Status::DataLoss("metrics snapshot magic mismatch");
  }
  if (version != kMetricsSnapshotVersion) {
    return Status::FailedPrecondition(
        "metrics snapshot version " + std::to_string(version) +
        " not supported (expected " +
        std::to_string(kMetricsSnapshotVersion) + ")");
  }

  // Parse fully before mutating, so a corrupt blob leaves the registry as it
  // was.
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  struct HistogramEntry {
    std::string name;
    int64_t count = 0;
    int64_t sum = 0;
    std::array<int64_t, Histogram::kNumBuckets> buckets{};
  };
  std::vector<HistogramEntry> histograms;
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    int64_t value = 0;
    CDB_RETURN_IF_ERROR(reader.GetString(&name));
    CDB_RETURN_IF_ERROR(reader.GetI64(&value));
    counters.emplace_back(std::move(name), value);
  }
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    int64_t value = 0;
    CDB_RETURN_IF_ERROR(reader.GetString(&name));
    CDB_RETURN_IF_ERROR(reader.GetI64(&value));
    gauges.emplace_back(std::move(name), value);
  }
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    HistogramEntry entry;
    CDB_RETURN_IF_ERROR(reader.GetString(&entry.name));
    CDB_RETURN_IF_ERROR(reader.GetI64(&entry.count));
    CDB_RETURN_IF_ERROR(reader.GetI64(&entry.sum));
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      CDB_RETURN_IF_ERROR(reader.GetI64(&entry.buckets[static_cast<size_t>(b)]));
    }
    histograms.push_back(std::move(entry));
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss("metrics snapshot has trailing bytes");
  }

  // Zero everything already registered (handles stay valid), then apply.
  // get-or-create outside the dump lock is fine: counter()/gauge()/
  // histogram() take the lock themselves and the restore path is quiescent.
  {
    MutexLock lock(mutex_);
    for (auto& [name, counter] : counters_) counter->Reset(0);
    for (auto& [name, gauge] : gauges_) gauge->Set(0);
    for (auto& [name, histogram] : histograms_) {
      histogram->Reset(0, 0, std::array<int64_t, Histogram::kNumBuckets>{});
    }
  }
  for (const auto& [name, value] : counters) counter(name).Reset(value);
  for (const auto& [name, value] : gauges) gauge(name).Set(value);
  for (const HistogramEntry& entry : histograms) {
    histogram(entry.name).Reset(entry.count, entry.sum, entry.buckets);
  }
  return Status::Ok();
}

std::string MetricsDump(const MetricsRegistry& registry) {
  return registry.Dump();
}

}  // namespace cdb
