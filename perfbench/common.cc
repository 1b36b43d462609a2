#include "perfbench/common.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t RandomBelow(uint64_t* state, uint64_t n) {
  return n == 0 ? 0 : NextRandom(state) % n;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(uint64_t* state) const {
  const double u =
      static_cast<double>(NextRandom(state) >> 11) * (1.0 / 9007199254740992.0);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<size_t>(it - cdf_.begin());
}

std::vector<bool> FastWindows(const std::vector<Window>& windows) {
  // Speed per window, higher is faster.
  std::vector<double> speed;
  const bool by_op = !windows.empty() && !windows[0].op.empty();
  if (by_op) {
    std::vector<std::vector<double>> per_op;
    for (const Window& w : windows) {
      for (size_t i = 0; i < w.op.size(); ++i) {
        if (w.op[i] >= per_op.size()) per_op.resize(w.op[i] + 1);
        per_op[w.op[i]].push_back(w.latency_us[i]);
      }
    }
    std::vector<double> reference;
    for (auto& times : per_op) reference.push_back(Median(times));
    for (const Window& w : windows) {
      double log_ratio = 0;
      for (size_t i = 0; i < w.op.size(); ++i) {
        log_ratio += std::log(w.latency_us[i] / reference[w.op[i]]);
      }
      speed.push_back(w.op.empty() ? 0 : -log_ratio / w.op.size());
    }
  } else {
    for (const Window& w : windows) {
      speed.push_back(w.seconds > 0
                          ? static_cast<double>(w.latency_us.size()) / w.seconds
                          : 0);
    }
  }
  const double cut = Quantile(speed, 0.9);
  std::vector<bool> keep;
  for (double v : speed) keep.push_back(v >= cut);
  return keep;
}

WindowSummary Summarize(const std::vector<Window>& windows,
                        const std::vector<bool>& keep) {
  WindowSummary out;
  double seconds = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (!keep[i]) continue;
    seconds += windows[i].seconds;
    out.latency_us.insert(out.latency_us.end(), windows[i].latency_us.begin(),
                          windows[i].latency_us.end());
  }
  out.ops_per_s =
      seconds > 0 ? static_cast<double>(out.latency_us.size()) / seconds : 0;
  return out;
}

void PrintWindowsLine(const std::vector<Window>& windows,
                      const std::vector<bool>& keep) {
  std::vector<double> all_probes, kept_probes;
  std::vector<int> kept_cpus;
  size_t kept = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    all_probes.push_back(windows[i].probe_us);
    if (!keep[i]) continue;
    ++kept;
    kept_probes.push_back(windows[i].probe_us);
    kept_cpus.push_back(windows[i].cpu);
  }
  std::sort(kept_cpus.begin(), kept_cpus.end());
  std::string cpus;  // "cpu:windows", e.g. "0:3,2:5"
  for (size_t i = 0; i < kept_cpus.size();) {
    size_t j = i;
    while (j < kept_cpus.size() && kept_cpus[j] == kept_cpus[i]) ++j;
    if (!cpus.empty()) cpus += ",";
    cpus += (kept_cpus[i] < 0 ? std::string("unpinned")
                              : std::to_string(kept_cpus[i])) +
            ":" + std::to_string(j - i);
    i = j;
  }
  printf("{\"windows\": {\"total\": %zu, \"kept\": %zu, \"kept_cpus\": \"%s\", "
         "\"probe_median_us\": %.1f, \"kept_probe_median_us\": %.1f}}\n",
         windows.size(), kept, cpus.c_str(), Median(all_probes),
         Median(kept_probes));
  fflush(stdout);
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double PeakRssMbOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& why) {
  ++failed_;
  // Only the first few reasons: a systematic failure would flood stderr.
  if (failed_ <= 5) fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void Report::Print() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics_) {
    char num[64];
    const double v = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    snprintf(num, sizeof(num), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           value_unit.second + "\"}";
  }
  out += "}}";
  printf("%s\n", out.c_str());
  fflush(stdout);
}

namespace {

/// The CPUs the process may use, read once before any thread is pinned.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
    for (int i = 0; i < CPU_SETSIZE; ++i) {
      if (CPU_ISSET(i, &set)) out.push_back(i);
    }
    return out;
  }();
  return cpus;
}

void SetAffinity(pid_t pid, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(pid, sizeof(set), &set);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

std::string CpuListString(const std::vector<int>& cpus) {
  if (cpus.empty()) return "unpinned";
  std::string out;
  for (int c : cpus) {
    if (!out.empty()) out += ",";
    out += std::to_string(c);
  }
  return out;
}

namespace {

/// Keeps the probe's work observable, so it cannot be optimized away.
volatile uint64_t g_probe_sink = 0;

/// A fixed probe of integer work, hashing, sorting and allocation, the mix
/// relspec's own passes spend their time on. Returns its time in µs.
double ProbeUs() {
  const auto start = Clock::now();
  uint64_t state = 1;
  std::unordered_map<uint64_t, uint64_t> counts;
  std::vector<uint64_t> values;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t v = NextRandom(&state);
    counts[v % 10007] += 1;
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  const double us = UsSince(start);
  g_probe_sink = values[0] + counts.size();
  return us;
}

}  // namespace

CoreSets ChooseCoreSets() {
  CoreSets sets;
  std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 4) return sets;  // too few cores: run unpinned
  // The daemon does the serving work: give it the half of the CPUs that
  // run the probe fastest right now, and the clients the other half.
  std::vector<std::pair<double, int>> speed;
  for (int cpu : cpus) {
    SetAffinity(0, {cpu});
    speed.push_back({std::min(ProbeUs(), ProbeUs()), cpu});
  }
  SetAffinity(0, cpus);
  std::sort(speed.begin(), speed.end());
  const size_t half = cpus.size() / 2;
  for (size_t i = 0; i < speed.size(); ++i) {
    (i < half ? sets.daemon : sets.client).push_back(speed[i].second);
  }
  std::sort(sets.daemon.begin(), sets.daemon.end());
  std::sort(sets.client.begin(), sets.client.end());
  return sets;
}

void PinCurrentThread(const std::vector<int>& cpus) { SetAffinity(0, cpus); }

CpuChoice PinToFastestCpu() {
  CpuChoice best;
  if (AllowedCpus().size() < 4) {  // too few cores: run unpinned
    best.probe_us = std::min(ProbeUs(), ProbeUs());
    return best;
  }
  for (int cpu : AllowedCpus()) {
    SetAffinity(0, {cpu});
    const double us = std::min(ProbeUs(), ProbeUs());
    if (best.cpu < 0 || us < best.probe_us) {
      best.cpu = cpu;
      best.probe_us = us;
    }
  }
  SetAffinity(0, {best.cpu});
  best.probe_us = std::min(best.probe_us, ProbeUs());
  return best;
}

std::string SingleThreadPinning() {
  if (AllowedCpus().size() < 4) return "unpinned (fewer than 4 CPUs)";
  return "each window and set-up pinned to the fastest probed of " +
         CpuListString(AllowedCpus()) + " (see the windows line)";
}

pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path,
            const std::vector<int>& cpus) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  fflush(stdout);
  fflush(stderr);
  pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: affinity first (inherited by every daemon thread), then exec.
  SetAffinity(0, cpus);
  int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    dup2(fd, 1);
    dup2(fd, 2);
    close(fd);
  }
  execv(args[0], args.data());
  _exit(127);
}

int WaitExit(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

void PrintConfigLine(
    const Options& options, const std::string& client_cpus,
    const std::string& daemon_cpus,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  utsname uts{};
  uname(&uts);
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream out;
  out << "{\"config\": {\"workload\": \"" << options.workload
      << "\", \"seed\": " << options.seed << ", \"seconds\": " << options.seconds
      << ", \"trace\": " << (options.trace ? "true" : "false")
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
      << JsonEscape(compiler) << "\", \"nproc\": "
      << sysconf(_SC_NPROCESSORS_ONLN) << ", \"allowed_cpus\": "
      << AllowedCpus().size() << ", \"cpu_model\": \"" << JsonEscape(CpuModel())
      << "\", \"kernel\": \"" << JsonEscape(std::string(uts.sysname) + " " +
                                            uts.release)
      << "\", \"client_cpus\": \"" << JsonEscape(client_cpus)
      << "\", \"daemon_cpus\": \"" << JsonEscape(daemon_cpus) << "\"";
  for (const auto& [key, value] : extra) {
    out << ", \"" << key << "\": \"" << JsonEscape(value) << "\"";
  }
  out << "}}";
  printf("%s\n", out.str().c_str());
  fflush(stdout);
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool CheckTraceFile(const Options& options, const std::string& path,
                    Report* report) {
  const std::string log = path + ".check.log";
  std::remove(log.c_str());
  const pid_t pid = Spawn({options.trace_check, path}, log, {});
  const int code = pid < 0 ? -1 : WaitExit(pid);
  std::string summary = ReadFileOrEmpty(log);
  fprintf(stderr, "perfbench: trace_check %s: %s", path.c_str(),
          summary.empty() ? "(no output)\n" : summary.c_str());
  if (code != 0) {
    report->Fail("trace_check rejected " + path);
    return false;
  }
  return true;
}

}  // namespace perfbench
