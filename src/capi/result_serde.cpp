#include "capi/result_serde.hpp"

#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

namespace capi::serde {

namespace {

constexpr std::uint32_t kMagic = 0x63525331;  // "cRS1"

// Smallest encoding of each counted element (every string empty). A count
// the bytes left cannot hold at this size is corrupt.
constexpr std::size_t kStrBytes = 8;
constexpr std::size_t kMetricBytes = kStrBytes + 8;
constexpr std::size_t kAccessBytes = 4 + 1 + kStrBytes + 1 + 8 + kStrBytes;
constexpr std::size_t kRaceBytes = 8 + 8 + 2 * kAccessBytes;
constexpr std::size_t kReportBytes = 1 + 2 * kStrBytes;
constexpr std::size_t kDiagnosticBytes = kStrBytes + 1 + 4 + kStrBytes + 8;
constexpr std::size_t kFiredBytes = 1 + 1 + 3 * 4 + 1;
constexpr std::size_t kEventBytes = 3 * 8 + 4 + 4 + 2 + kStrBytes;
constexpr std::size_t kDecisionBytes = 4 + 8 + 1 + 4 + 4;

class Writer {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  /// Fixed-layout structs travel as size-prefixed raw bytes; the size check
  /// at decode catches a parent/child layout mismatch (impossible for a
  /// fork, cheap to keep honest).
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(sizeof(T));
    raw(&v, sizeof(T));
  }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  std::vector<std::byte> bytes_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t* v) { return raw(v, sizeof *v); }
  bool u16(std::uint16_t* v) { return raw(v, sizeof *v); }
  bool u32(std::uint32_t* v) { return raw(v, sizeof *v); }
  bool u64(std::uint64_t* v) { return raw(v, sizeof *v); }
  bool i32(std::int32_t* v) { return raw(v, sizeof *v); }
  bool str(std::string* s) {
    std::uint64_t n = 0;
    if (!u64(&n) || n > bytes_.size() - pos_) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  /// An element count, rejected unless the bytes left could hold that many
  /// elements of at least `min_bytes` each: a corrupt count must fail the
  /// decode, not drive a huge allocation.
  bool count(std::uint64_t* n, std::size_t min_bytes) {
    return u64(n) && *n <= (bytes_.size() - pos_) / min_bytes;
  }
  template <typename T>
  bool pod(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t n = 0;
    if (!u64(&n) || n != sizeof(T)) {
      return false;
    }
    return raw(v, sizeof(T));
  }

 private:
  bool raw(void* out, std::size_t n) {
    if (bytes_.size() - pos_ < n) {
      return false;
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::span<const std::byte> bytes_;
  std::size_t pos_{0};
};

void write_metrics(Writer& w, const obs::MetricsSnapshot& metrics) {
  w.u64(metrics.size());
  for (const auto& [name, value] : metrics) {
    w.str(name);
    w.u64(value);
  }
}

bool read_metrics(Reader& r, obs::MetricsSnapshot* out) {
  std::uint64_t count = 0;
  if (!r.count(&count, kMetricBytes)) {
    return false;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name;
    std::uint64_t value = 0;
    if (!r.str(&name) || !r.u64(&value)) {
      return false;
    }
    out->emplace(std::move(name), value);
  }
  return true;
}

/// A rank's flat counts travel name-keyed, like the deltas: schema names land
/// in their slots (listed when zero, so the key survives), others in `extra`.
bool read_counts(Reader& r, obs::MetricCounts* out) {
  obs::MetricsSnapshot named;
  if (!read_metrics(r, &named)) {
    return false;
  }
  for (auto& [name, value] : named) {
    if (const std::optional<obs::MetricId> id = obs::MetricId::find(name)) {
      (*out)[*id] = value;
      if (value == 0) {
        out->listed.set(id->index());
      }
    } else {
      out->extra.emplace(name, value);
    }
  }
  return true;
}

void write_access(Writer& w, const rsan::RaceAccess& a) {
  w.u32(a.ctx);
  w.u8(static_cast<std::uint8_t>(a.kind));
  w.str(a.ctx_name);
  w.u8(a.is_write ? 1 : 0);
  w.u64(a.clock);
  w.str(a.label);
}

bool read_access(Reader& r, rsan::RaceAccess* a) {
  std::uint8_t kind = 0;
  std::uint8_t is_write = 0;
  const bool ok = r.u32(&a->ctx) && r.u8(&kind) && r.str(&a->ctx_name) && r.u8(&is_write) &&
                  r.u64(&a->clock) && r.str(&a->label);
  a->kind = static_cast<rsan::CtxKind>(kind);
  a->is_write = is_write != 0;
  return ok;
}

}  // namespace

std::vector<std::byte> encode(const RankPayload& payload) {
  Writer w;
  w.u32(kMagic);
  const RankResult& res = payload.result;
  w.i32(res.rank);
  w.u64(res.races.size());
  for (const rsan::RaceReport& race : res.races) {
    w.u64(static_cast<std::uint64_t>(race.addr));
    w.u64(race.access_size);
    write_access(w, race.current);
    write_access(w, race.previous);
  }
  w.u64(res.must_reports.size());
  for (const must::MustReport& report : res.must_reports) {
    w.u8(static_cast<std::uint8_t>(report.kind));
    w.str(report.mpi_call);
    w.str(report.detail);
  }
  write_metrics(w, res.metrics.snapshot());
  w.u64(res.shadow_bytes);
  w.u64(res.device_live_bytes);
  w.u64(res.sticky_errors);

  write_metrics(w, payload.metric_deltas);
  w.u64(payload.diagnostics.size());
  for (const obs::Diagnostic& d : payload.diagnostics) {
    w.str(d.id);
    w.u8(static_cast<std::uint8_t>(d.severity));
    w.i32(d.rank);
    w.str(d.message);
    w.u64(d.ts_ns);
  }
  w.u64(payload.events.size());
  for (const obs::Event& e : payload.events) {
    w.u64(e.ts_ns);
    w.u64(e.dur_ns);
    w.u64(e.arg);
    w.i32(e.rank);
    w.u32(e.track);
    w.u16(static_cast<std::uint16_t>(e.kind));
    w.str(e.name);
  }
  w.u64(payload.sched_decisions.size());
  for (const schedsim::TraceEntry& d : payload.sched_decisions) {
    w.i32(d.rank);
    w.u64(d.seq);
    w.u8(static_cast<std::uint8_t>(d.site));
    w.i32(d.candidates);
    w.i32(d.chosen);
  }
  w.pod(payload.sched_stats);
  w.u8(payload.sched_divergence.has_value() ? 1 : 0);
  if (payload.sched_divergence.has_value()) {
    w.pod(*payload.sched_divergence);
  }
  w.u64(payload.fired_faults.size());
  for (const faultsim::FiredFault& f : payload.fired_faults) {
    w.u8(static_cast<std::uint8_t>(f.site));
    w.u8(static_cast<std::uint8_t>(f.action));
    w.i32(f.where.device);
    w.i32(f.where.rank);
    w.i32(f.where.stream);
    w.u8(static_cast<std::uint8_t>(f.surfaced));
  }
  return w.take();
}

bool decode(std::span<const std::byte> bytes, RankPayload* out) {
  Reader r(bytes);
  std::uint32_t magic = 0;
  if (!r.u32(&magic) || magic != kMagic) {
    return false;
  }
  RankResult& res = out->result;
  std::int32_t rank = -1;
  if (!r.i32(&rank)) {
    return false;
  }
  res.rank = rank;
  std::uint64_t count = 0;
  if (!r.count(&count, kRaceBytes)) {
    return false;
  }
  res.races.resize(count);
  for (rsan::RaceReport& race : res.races) {
    std::uint64_t addr = 0;
    std::uint64_t size = 0;
    if (!r.u64(&addr) || !r.u64(&size) || !read_access(r, &race.current) ||
        !read_access(r, &race.previous)) {
      return false;
    }
    race.addr = static_cast<std::uintptr_t>(addr);
    race.access_size = static_cast<std::size_t>(size);
  }
  if (!r.count(&count, kReportBytes)) {
    return false;
  }
  res.must_reports.resize(count);
  for (must::MustReport& report : res.must_reports) {
    std::uint8_t kind = 0;
    if (!r.u8(&kind) || !r.str(&report.mpi_call) || !r.str(&report.detail)) {
      return false;
    }
    report.kind = static_cast<must::ReportKind>(kind);
  }
  std::uint64_t shadow = 0;
  std::uint64_t device_live = 0;
  std::uint64_t sticky = 0;
  if (!read_counts(r, &res.metrics) || !r.u64(&shadow) || !r.u64(&device_live) ||
      !r.u64(&sticky)) {
    return false;
  }
  res.shadow_bytes = static_cast<std::size_t>(shadow);
  res.device_live_bytes = static_cast<std::size_t>(device_live);
  res.sticky_errors = static_cast<std::size_t>(sticky);

  if (!read_metrics(r, &out->metric_deltas) || !r.count(&count, kDiagnosticBytes)) {
    return false;
  }
  out->diagnostics.resize(count);
  for (obs::Diagnostic& d : out->diagnostics) {
    std::uint8_t severity = 0;
    std::int32_t drank = -1;
    if (!r.str(&d.id) || !r.u8(&severity) || !r.i32(&drank) || !r.str(&d.message) ||
        !r.u64(&d.ts_ns)) {
      return false;
    }
    d.severity = static_cast<obs::Severity>(severity);
    d.rank = drank;
  }
  if (!r.count(&count, kEventBytes)) {
    return false;
  }
  out->events.resize(count);
  for (obs::Event& e : out->events) {
    std::uint16_t kind = 0;
    std::string name;
    // The exporter prints kinds by name and names as NUL-terminated labels.
    if (!r.u64(&e.ts_ns) || !r.u64(&e.dur_ns) || !r.u64(&e.arg) || !r.i32(&e.rank) ||
        !r.u32(&e.track) || !r.u16(&kind) ||
        kind > static_cast<std::uint16_t>(obs::EventKind::kSchedule) || !r.str(&name) ||
        name.size() >= sizeof(e.name) || name.find('\0') != std::string::npos) {
      return false;
    }
    e.kind = static_cast<obs::EventKind>(kind);
    name.copy(e.name, name.size());
  }
  if (!r.count(&count, kDecisionBytes)) {
    return false;
  }
  out->sched_decisions.resize(count);
  for (schedsim::TraceEntry& d : out->sched_decisions) {
    std::uint8_t site = 0;
    // A decision the parent appends to its log must be one parse_log accepts.
    if (!r.i32(&d.rank) || d.rank < -1 || d.rank == std::numeric_limits<int>::max() ||
        !r.u64(&d.seq) || !r.u8(&site) ||
        site > static_cast<std::uint8_t>(schedsim::Site::kWaitany) ||
        !r.i32(&d.candidates) || d.candidates < 1 || !r.i32(&d.chosen) || d.chosen < 0 ||
        d.chosen >= d.candidates) {
      return false;
    }
    d.site = static_cast<schedsim::Site>(site);
  }
  std::uint8_t has_divergence = 0;
  if (!r.pod(&out->sched_stats) || !r.u8(&has_divergence)) {
    return false;
  }
  if (has_divergence != 0) {
    schedsim::Divergence divergence;
    if (!r.pod(&divergence)) {
      return false;
    }
    out->sched_divergence = divergence;
  }
  if (!r.count(&count, kFiredBytes)) {
    return false;
  }
  out->fired_faults.resize(count);
  for (faultsim::FiredFault& f : out->fired_faults) {
    std::uint8_t site = 0;
    std::uint8_t action = 0;
    std::uint8_t surfaced = 0;
    // Enum bytes out of range are corrupt: the sweep prints them by name.
    if (!r.u8(&site) || site > static_cast<std::uint8_t>(faultsim::Site::kRankKill) ||
        !r.u8(&action) || action > static_cast<std::uint8_t>(faultsim::Action::kHang) ||
        !r.i32(&f.where.device) || !r.i32(&f.where.rank) || !r.i32(&f.where.stream) ||
        !r.u8(&surfaced) ||
        surfaced > static_cast<std::uint8_t>(faultsim::Channel::kFailureReport)) {
      return false;
    }
    f.site = static_cast<faultsim::Site>(site);
    f.action = static_cast<faultsim::Action>(action);
    f.surfaced = static_cast<faultsim::Channel>(surfaced);
  }
  return true;
}

}  // namespace capi::serde
