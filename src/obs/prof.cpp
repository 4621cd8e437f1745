#include "obs/prof.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "device/thread_pool.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

// The sampling engine needs POSIX profiling timers (setitimer/SIGPROF) and
// glibc/macOS backtrace(). Everywhere else the module degrades to the
// resource-utilization layer only: start() returns false, exports are empty.
#if (defined(__linux__) || defined(__APPLE__)) && __has_include(<execinfo.h>)
#define DSX_PROF_SUPPORTED 1
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#endif

// Static-symbol fallback (Linux): dladdr resolves only the dynamic symbol
// table, and the hottest serving frames are internal-linkage kernel loops
// (anonymous-namespace / file-static) that exist in .symtab alone. Parsing
// the main executable's own ELF once at export time lifts symbolization
// from ~30% of serving leaves to near-total.
#if defined(DSX_PROF_SUPPORTED) && defined(__linux__) && \
    __has_include(<elf.h>) && __has_include(<link.h>)
#define DSX_PROF_ELF_SYMTAB 1
#include <elf.h>
#include <link.h>
#endif

namespace dsx::obs::prof {

namespace {

constexpr int kMaxDepth = 32;      // frames kept per sample
constexpr int kRingCapacity = 512; // samples retained per thread
constexpr int kMaxThreads = 64;    // threads that can own a ring
// backtrace() captured from inside the handler sees [handler,
// signal-trampoline, interrupted-frame, ...]; exports drop the first two.
constexpr int kSkipFrames = 2;

struct Sample {
  int32_t depth = 0;
  void* pcs[kMaxDepth];
};

// Single-writer (the owning thread's signal handler) / multi-reader ring.
// `head` counts samples ever written; slot = head % kRingCapacity. `floor`
// is only ever advanced by clear_samples() on the control plane - the
// handler ignores it, readers snapshot [max(floor, head-cap), head).
struct SampleRing {
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> floor{0};
  Sample slots[kRingCapacity];
};

// Preallocated BSS: no allocation ever happens on the signal path. Pages
// are only touched once a thread actually samples.
SampleRing g_rings[kMaxThreads];
std::atomic<int> g_next_ring{0};
std::atomic<int64_t> g_captured{0};
std::atomic<int64_t> g_dropped{0};

#if DSX_PROF_SUPPORTED

// Ring slot owned by this thread: -1 = unclaimed, -2 = ring table full
// (samples from this thread are dropped). Plain int thread_local with
// constant initialization - safe to touch from the handler (initial-exec
// TLS, no lazy allocation).
thread_local int t_ring_slot = -1;

extern "C" void dsx_prof_sigprof_handler(int, siginfo_t*, void*) {
  int slot = t_ring_slot;
  if (slot == -1) {
    const int idx = g_next_ring.fetch_add(1, std::memory_order_relaxed);
    slot = idx < kMaxThreads ? idx : -2;
    t_ring_slot = slot;
  }
  if (slot < 0) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SampleRing& ring = g_rings[slot];
  const uint64_t h = ring.head.load(std::memory_order_relaxed);
  Sample& s = ring.slots[h % kRingCapacity];
  s.depth = backtrace(s.pcs, kMaxDepth);
  ring.head.store(h + 1, std::memory_order_release);
  g_captured.fetch_add(1, std::memory_order_relaxed);
}

std::mutex g_ctl_mu;          // serializes start()/stop()
struct sigaction g_old_sa;    // handler to restore on stop()
bool g_old_sa_valid = false;

#endif  // DSX_PROF_SUPPORTED

/// Copies every retained, non-torn sample out of the rings. A slot
/// overwritten while being copied is detected by re-reading head (the
/// writer wrapped past it) and dropped; the depth bounds check rejects any
/// remaining garbage.
std::vector<Sample> snapshot_samples() {
  std::vector<Sample> out;
  const int rings =
      std::min(g_next_ring.load(std::memory_order_relaxed), kMaxThreads);
  for (int i = 0; i < rings; ++i) {
    SampleRing& ring = g_rings[i];
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    const uint64_t floor = ring.floor.load(std::memory_order_relaxed);
    uint64_t lo = head > kRingCapacity ? head - kRingCapacity : 0;
    lo = std::max(lo, floor);
    for (uint64_t u = lo; u < head; ++u) {
      Sample s = ring.slots[u % kRingCapacity];
      const uint64_t head2 = ring.head.load(std::memory_order_acquire);
      if (head2 > u + kRingCapacity) continue;  // overwritten mid-copy
      if (s.depth <= kSkipFrames || s.depth > kMaxDepth) continue;
      out.push_back(s);
    }
  }
  return out;
}

#if DSX_PROF_SUPPORTED
/// Demangle + sanitize one mangled name (';' would corrupt the folded
/// stack format).
std::string demangle_sym(const char* sym) {
  int status = -1;
  char* dem = abi::__cxa_demangle(sym, nullptr, nullptr, &status);
  std::string name = (status == 0 && dem != nullptr) ? dem : sym;
  std::free(dem);
  std::replace(name.begin(), name.end(), ';', ',');
  return name;
}
#endif

#if DSX_PROF_ELF_SYMTAB
/// The main executable's .symtab as a sorted runtime-address table. Loaded
/// lazily from /proc/self/exe on first lookup (export path only, under the
/// export mutex - never from the signal handler). Covers only the main
/// executable; shared-library internals without dynamic symbols stay as
/// raw addresses, which is acceptable: the serving stack links statically.
struct ExeSymtab {
  struct Fn {
    uintptr_t lo;
    uintptr_t hi;
    const char* name;  // points into `image`
  };
  std::vector<char> image;  // the raw ELF file, owns the name strings
  std::vector<Fn> fns;      // sorted by lo
  bool loaded = false;

  void load() {
    loaded = true;
    // dl_iterate_phdr visits the main executable first; dlpi_addr is its
    // relocation bias (0 for non-PIE), turning link-time st_value into a
    // runtime address.
    uintptr_t bias = 0;
    dl_iterate_phdr(
        [](struct dl_phdr_info* info, size_t, void* out) {
          *static_cast<uintptr_t*>(out) = info->dlpi_addr;
          return 1;
        },
        &bias);
    std::FILE* f = std::fopen("/proc/self/exe", "rb");
    if (f == nullptr) return;
    std::fseek(f, 0, SEEK_END);
    const long sz = std::ftell(f);
    if (sz <= 0) {
      std::fclose(f);
      return;
    }
    image.resize(static_cast<size_t>(sz));
    std::fseek(f, 0, SEEK_SET);
    const size_t got = std::fread(image.data(), 1, image.size(), f);
    std::fclose(f);
    if (got != image.size()) {
      image.clear();
      return;
    }
    const char* base = image.data();
    const auto* eh = reinterpret_cast<const ElfW(Ehdr)*>(base);
    if (image.size() < sizeof(*eh) ||
        std::memcmp(eh->e_ident, ELFMAG, SELFMAG) != 0) {
      return;
    }
    if (eh->e_shoff + uint64_t{eh->e_shnum} * sizeof(ElfW(Shdr)) >
        image.size()) {
      return;
    }
    const auto* sh = reinterpret_cast<const ElfW(Shdr)*>(base + eh->e_shoff);
    for (int i = 0; i < eh->e_shnum; ++i) {
      if (sh[i].sh_type != SHT_SYMTAB || sh[i].sh_link >= eh->e_shnum) {
        continue;
      }
      const ElfW(Shdr)& str = sh[sh[i].sh_link];
      if (sh[i].sh_offset + sh[i].sh_size > image.size() ||
          str.sh_offset + str.sh_size > image.size()) {
        continue;
      }
      const auto* syms =
          reinterpret_cast<const ElfW(Sym)*>(base + sh[i].sh_offset);
      const size_t n = sh[i].sh_size / sizeof(ElfW(Sym));
      const char* strs = base + str.sh_offset;
      for (size_t s = 0; s < n; ++s) {
        // ELF32_ST_TYPE and ELF64_ST_TYPE are the same bit extraction;
        // ElfW(Sym) already picked the right struct width.
        if (ELF64_ST_TYPE(syms[s].st_info) != STT_FUNC) continue;
        if (syms[s].st_size == 0 || syms[s].st_name >= str.sh_size) continue;
        const char* nm = strs + syms[s].st_name;
        if (*nm == '\0') continue;
        fns.push_back({bias + syms[s].st_value,
                       bias + syms[s].st_value + syms[s].st_size, nm});
      }
    }
    std::sort(fns.begin(), fns.end(),
              [](const Fn& a, const Fn& b) { return a.lo < b.lo; });
  }

  const char* lookup(uintptr_t pc) {
    if (!loaded) load();
    auto it = std::upper_bound(
        fns.begin(), fns.end(), pc,
        [](uintptr_t v, const Fn& f) { return v < f.lo; });
    if (it == fns.begin()) return nullptr;
    --it;
    return pc < it->hi ? it->name : nullptr;
  }
};

ExeSymtab& exe_symtab() {
  static ExeSymtab tab;  // every caller holds the export mutex
  return tab;
}
#endif  // DSX_PROF_ELF_SYMTAB

/// dladdr + demangle first (covers -rdynamic-exported and shared-library
/// symbols); on a miss, the executable's own .symtab (internal-linkage
/// frames). Frames neither table names come back as raw addresses, false
/// in .second.
std::pair<std::string, bool> symbolize_pc(void* pc) {
#if DSX_PROF_SUPPORTED
  Dl_info info;
  if (dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    return {demangle_sym(info.dli_sname), true};
  }
#endif
#if DSX_PROF_ELF_SYMTAB
  if (const char* nm =
          exe_symtab().lookup(reinterpret_cast<uintptr_t>(pc))) {
    return {demangle_sym(nm), true};
  }
#endif
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(
                    reinterpret_cast<uintptr_t>(pc)));
  return {buf, false};
}

/// Export-time symbol cache; one process-wide map behind the export mutex.
struct Symbolizer {
  std::map<void*, std::pair<std::string, bool>> cache;
  const std::pair<std::string, bool>& at(void* pc) {
    auto it = cache.find(pc);
    if (it == cache.end()) it = cache.emplace(pc, symbolize_pc(pc)).first;
    return it->second;
  }
};

std::mutex& export_mu() {
  static std::mutex mu;
  return mu;
}
Symbolizer& symbolizer() {
  static Symbolizer sym;
  return sym;
}

}  // namespace

bool start(int hz) {
#if DSX_PROF_SUPPORTED
  std::lock_guard<std::mutex> lock(g_ctl_mu);
  if (detail::g_prof_hz.load(std::memory_order_relaxed) != 0) return true;
  if (hz <= 0) hz = kDefaultHz;
  hz = std::min(hz, 1000);

  // Warm up backtrace() outside signal context: glibc's first call may
  // dlopen libgcc, which must never happen inside the handler.
  {
    void* warm[4];
    (void)backtrace(warm, 4);
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = dsx_prof_sigprof_handler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &g_old_sa) != 0) return false;
  g_old_sa_valid = true;

  struct itimerval it;
  std::memset(&it, 0, sizeof(it));
  it.it_interval.tv_usec = static_cast<suseconds_t>(1000000 / hz);
  it.it_value = it.it_interval;
  if (setitimer(ITIMER_PROF, &it, nullptr) != 0) {
    sigaction(SIGPROF, &g_old_sa, nullptr);
    g_old_sa_valid = false;
    return false;
  }

  detail::g_prof_hz.store(hz, std::memory_order_relaxed);
  device::set_pool_accounting(true);
  Journal::global().record(EventKind::kProfile, "prof",
                           "started at " + std::to_string(hz) + " Hz");
  return true;
#else
  (void)hz;
  return false;
#endif
}

void stop() {
#if DSX_PROF_SUPPORTED
  std::lock_guard<std::mutex> lock(g_ctl_mu);
  const int hz = detail::g_prof_hz.load(std::memory_order_relaxed);
  if (hz == 0) return;
  struct itimerval zero;
  std::memset(&zero, 0, sizeof(zero));
  setitimer(ITIMER_PROF, &zero, nullptr);
  detail::g_prof_hz.store(0, std::memory_order_relaxed);
  if (g_old_sa_valid) {
    sigaction(SIGPROF, &g_old_sa, nullptr);
    g_old_sa_valid = false;
  }
  device::set_pool_accounting(false);
  Journal::global().record(
      EventKind::kProfile, "prof",
      "stopped (" +
          std::to_string(g_captured.load(std::memory_order_relaxed)) +
          " samples captured)");
#endif
}

void clear_samples() {
  const int rings =
      std::min(g_next_ring.load(std::memory_order_relaxed), kMaxThreads);
  for (int i = 0; i < rings; ++i) {
    g_rings[i].floor.store(g_rings[i].head.load(std::memory_order_acquire),
                           std::memory_order_relaxed);
  }
}

ProfileStats profile_stats() {
  ProfileStats st;
  st.captured = g_captured.load(std::memory_order_relaxed);
  st.dropped = g_dropped.load(std::memory_order_relaxed);
  st.threads = std::min(g_next_ring.load(std::memory_order_relaxed),
                        kMaxThreads);
  for (int i = 0; i < st.threads; ++i) {
    const uint64_t head = g_rings[i].head.load(std::memory_order_acquire);
    const uint64_t floor = g_rings[i].floor.load(std::memory_order_relaxed);
    uint64_t lo = head > kRingCapacity ? head - kRingCapacity : 0;
    lo = std::max(lo, floor);
    st.retained += static_cast<int64_t>(head - lo);
  }
  return st;
}

std::string folded_stacks() {
  const std::vector<Sample> samples = snapshot_samples();
  if (samples.empty()) return "";
  std::lock_guard<std::mutex> lock(export_mu());
  Symbolizer& sym = symbolizer();
  std::map<std::string, int64_t> folded;
  std::string key;
  for (const Sample& s : samples) {
    key.clear();
    // backtrace() is innermost-first; folded stacks are root-first.
    for (int f = s.depth - 1; f >= kSkipFrames; --f) {
      if (!key.empty()) key.push_back(';');
      key += sym.at(s.pcs[f]).first;
    }
    ++folded[key];
  }
  std::string out;
  for (const auto& [stack, count] : folded) {
    out += stack;
    out.push_back(' ');
    out += std::to_string(count);
    out.push_back('\n');
  }
  return out;
}

std::string profile_json(int top_n) {
  const std::vector<Sample> samples = snapshot_samples();
  std::lock_guard<std::mutex> lock(export_mu());
  Symbolizer& sym = symbolizer();

  struct FrameAgg {
    int64_t self = 0;
    int64_t total = 0;
  };
  std::map<std::string, FrameAgg> agg;
  int64_t leaf_symbolized = 0;
  std::set<std::string> in_stack;
  for (const Sample& s : samples) {
    const auto& leaf = sym.at(s.pcs[kSkipFrames]);
    if (leaf.second) ++leaf_symbolized;
    ++agg[leaf.first].self;
    in_stack.clear();
    for (int f = kSkipFrames; f < s.depth; ++f) {
      in_stack.insert(sym.at(s.pcs[f]).first);
    }
    for (const std::string& frame : in_stack) ++agg[frame].total;
  }

  std::vector<std::pair<std::string, FrameAgg>> rows(agg.begin(), agg.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.self != b.second.self) return a.second.self > b.second.self;
    if (a.second.total != b.second.total) return a.second.total > b.second.total;
    return a.first < b.first;
  });
  if (top_n > 0 && rows.size() > static_cast<size_t>(top_n)) {
    rows.resize(static_cast<size_t>(top_n));
  }

  const int64_t n = static_cast<int64_t>(samples.size());
  char pct[32];
  std::snprintf(pct, sizeof(pct), "%.1f",
                n > 0 ? 100.0 * static_cast<double>(leaf_symbolized) /
                            static_cast<double>(n)
                      : 0.0);
  std::string out = "{\"hz\":" + std::to_string(sampling_hz()) +
                    ",\"samples\":" + std::to_string(n) +
                    ",\"symbolized_pct\":" + pct + ",\"frames\":[";
  bool first = true;
  for (const auto& [frame, a] : rows) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"frame\":\"" + json_escape(frame) +
           "\",\"self\":" + std::to_string(a.self) +
           ",\"total\":" + std::to_string(a.total) + "}";
  }
  out += "]}";
  return out;
}

double symbolized_fraction() {
  const std::vector<Sample> samples = snapshot_samples();
  if (samples.empty()) return 0.0;
  std::lock_guard<std::mutex> lock(export_mu());
  Symbolizer& sym = symbolizer();
  int64_t leaf_symbolized = 0;
  for (const Sample& s : samples) {
    if (sym.at(s.pcs[kSkipFrames]).second) ++leaf_symbolized;
  }
  return static_cast<double>(leaf_symbolized) /
         static_cast<double>(samples.size());
}

std::string collect_window(int seconds, bool json, int top_n) {
  seconds = std::clamp(seconds, 1, 30);
  // One window at a time: concurrent scrapers would clear each other's
  // samples mid-window.
  static std::mutex window_mu;
  std::lock_guard<std::mutex> lock(window_mu);
  const bool was_on = prof_enabled();
  if (!was_on && !start()) {
    return json ? std::string(
                      "{\"error\":\"sampling profiler unavailable\"}")
                : std::string("");
  }
  clear_samples();
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  std::string out = json ? profile_json(top_n) : folded_stacks();
  if (!was_on) stop();
  return out;
}

void publish_resource_stats() {
  // Scrape-time delta publication (the publish_trace_stats idiom): raw
  // counters live in the pools; the registry series advance by positive
  // deltas so a pool dying and a same-named successor appearing never moves
  // a counter backwards.
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  Registry& reg = Registry::global();

  struct PoolPub {
    Counter busy;
    Counter idle;
    Gauge util;
    int64_t last_busy = 0;
    int64_t last_idle = 0;
    int64_t last_wall = 0;
  };
  static std::map<std::string, PoolPub> pubs;
  const int64_t wall =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  for (const auto& st : device::ThreadPool::pool_stats()) {
    auto it = pubs.find(st.name);
    if (it == pubs.end()) {
      PoolPub p;
      p.busy = reg.counter(
          "dsx_device_pool_busy_ns_total", {{"pool", st.name}},
          "Nanoseconds pool threads spent executing chunks (accumulates "
          "while the profiler has pool accounting armed)");
      p.idle = reg.counter(
          "dsx_device_pool_idle_ns_total", {{"pool", st.name}},
          "Nanoseconds pool workers spent parked waiting for work");
      p.util = reg.gauge(
          "dsx_device_pool_utilization_permille", {{"pool", st.name}},
          "busy_ns delta over (threads x wall) between the last two "
          "scrapes, 0-1000");
      it = pubs.emplace(st.name, std::move(p)).first;
    }
    PoolPub& p = it->second;
    int64_t busy_delta = st.busy_ns - p.last_busy;
    if (busy_delta < 0) busy_delta = st.busy_ns;  // fresh pool reused the name
    int64_t idle_delta = st.idle_ns - p.last_idle;
    if (idle_delta < 0) idle_delta = st.idle_ns;
    if (busy_delta > 0) p.busy.inc(busy_delta);
    if (idle_delta > 0) p.idle.inc(idle_delta);
    if (p.last_wall != 0 && wall > p.last_wall && st.threads > 0) {
      const int64_t denom =
          (wall - p.last_wall) * static_cast<int64_t>(st.threads);
      const int64_t permille =
          std::clamp<int64_t>(busy_delta * 1000 / denom, 0, 1000);
      p.util.set(permille);
    }
    p.last_busy = st.busy_ns;
    p.last_idle = st.idle_ns;
    p.last_wall = wall;
  }

  static Counter samples_total = reg.counter(
      "dsx_obs_prof_samples_total", {},
      "Backtrace samples the SIGPROF handler captured");
  static Counter dropped_total = reg.counter(
      "dsx_obs_prof_dropped_total", {},
      "SIGPROF deliveries dropped (per-thread ring table full)");
  static Gauge hz_gauge = reg.gauge(
      "dsx_obs_prof_sampling_hz", {},
      "Current profiler sampling rate (0 = off)");
  static int64_t last_captured = 0;
  static int64_t last_dropped = 0;
  const ProfileStats ps = profile_stats();
  if (ps.captured > last_captured) {
    samples_total.inc(ps.captured - last_captured);
    last_captured = ps.captured;
  }
  if (ps.dropped > last_dropped) {
    dropped_total.inc(ps.dropped - last_dropped);
    last_dropped = ps.dropped;
  }
  hz_gauge.set(sampling_hz());
}

}  // namespace dsx::obs::prof
