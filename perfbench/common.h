// Shared plumbing for the relspec benchmark driver: command-line options,
// timing and summary statistics, the result line, process spawning and CPU
// pinning. Every workload reports through a Report, which prints the one
// JSON object the benchmark contract asks for as the last line of stdout.

#ifndef RELSPEC_PERFBENCH_COMMON_H_
#define RELSPEC_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Short run for the benchmark's own tests: tiny inputs, one set-up.
  bool smoke = false;
  /// Built tools, passed in by run.py.
  std::string relspecd;
  std::string trace_check;
  /// Scratch directory for sockets, logs and traces (inside the checkout).
  std::string run_dir;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Quantile by linear interpolation between closest ranks (sorts a copy).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// SplitMix64: the seed-derived stream every generator draws from.
uint64_t NextRandom(uint64_t* state);
/// Uniform in [0, n).
uint64_t RandomBelow(uint64_t* state, uint64_t n);
/// Fisher-Yates shuffle driven by `state`.
template <typename T>
void Shuffle(std::vector<T>* items, uint64_t* state) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[RandomBelow(state, i)]);
  }
}

/// Zipf(s) over [0, n) through a precomputed CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(uint64_t* state) const;

 private:
  std::vector<double> cdf_;
};

/// A stretch of one run: the time it covers and the latency of each
/// operation that completed in it.
struct Window {
  double seconds = 0;
  std::vector<double> latency_us;
  /// For runs of repeated passes: the index within the pass of each
  /// operation. Windows are then ranked by each operation's time relative
  /// to that operation's median, so cheap and costly operations weigh
  /// alike; otherwise by throughput.
  std::vector<size_t> op;
  /// For single-threaded runs: the CPU the window ran on (-1 when unpinned)
  /// and that CPU's probe time in µs, measured just before the window (see
  /// PinToFastestCpu). Recorded in the windows line, never used to scale.
  int cpu = -1;
  double probe_us = 0;
};

/// The host this runs on is shared: it slows the container down by 1.3-1.6x
/// in stretches that last from a fraction of a second to several seconds.
/// Runs therefore split their measurement into short windows and compute
/// every metric over the fastest tenth of them (throughput at or above the
/// windows' 90th percentile), which drops the slow stretches as long as
/// they cover less than nine tenths of a run. Returns that keep-mask.
/// Windows of passes hold whole passes, so a slowdown of any one operation
/// lands in every window, the kept ones included.
std::vector<bool> FastWindows(const std::vector<Window>& windows);

/// Measured throughput and pooled latencies over the windows `keep` marks.
struct WindowSummary {
  double ops_per_s = 0;
  std::vector<double> latency_us;
};
WindowSummary Summarize(const std::vector<Window>& windows,
                        const std::vector<bool>& keep);

/// Prints one "windows" line on stdout: how many windows were kept, the
/// CPUs the kept windows ran on, and the median probe time of all and of
/// the kept windows, so host drift stays visible beside the figures.
void PrintWindowsLine(const std::vector<Window>& windows,
                      const std::vector<bool>& keep);

/// Peak resident set of this process, in MiB.
double SelfPeakRssMb();
/// Peak resident set (VmHWM) of a live process, in MiB; 0 if unreadable.
double PeakRssMbOf(pid_t pid);

/// The collected result of one run. Metrics keep insertion order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why);
  /// Prints the result object as one line on stdout.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// CPU sets for the serve workloads: clients and daemon on disjoint halves
/// of the allowed CPUs, the daemon on the half that runs a short probe
/// fastest (see PinToFastestCpu); both unpinned (empty) when fewer than four
/// CPUs are available.
struct CoreSets {
  std::vector<int> client;
  std::vector<int> daemon;
  bool pinned() const { return !client.empty(); }
};
CoreSets ChooseCoreSets();
/// Restricts the calling thread to `cpus` (no-op when empty).
void PinCurrentThread(const std::vector<int>& cpus);

/// The host's slow stretches hit one virtual CPU at a time, mostly
/// independently of the others. Single-threaded workloads therefore run
/// each window on the allowed CPU that runs a short fixed probe (hashing,
/// sorting, allocation; about 3 ms in all) fastest right now. With fewer
/// than four allowed CPUs they stay unpinned and only probe where they run.
struct CpuChoice {
  int cpu = -1;  // -1: unpinned
  double probe_us = 0;
};
CpuChoice PinToFastestCpu();
/// How single-threaded workloads pin, for the config line.
std::string SingleThreadPinning();

/// "0,2,3", or "unpinned" for an empty list.
std::string CpuListString(const std::vector<int>& cpus);

/// Starts `argv` with stdout/stderr sent to `log_path`, restricted to
/// `cpus` when nonempty. Returns the pid, or -1.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path,
            const std::vector<int>& cpus);
/// Waits for `pid`; returns its exit code, or 128 + signal.
int WaitExit(pid_t pid);

/// Prints one "config" line on stdout describing the run: workload, seed,
/// build type, compiler, cores, CPU model, kernel and the CPUs the client
/// (or the single benchmark thread) and the daemon are pinned to.
void PrintConfigLine(const Options& options, const std::string& client_cpus,
                     const std::string& daemon_cpus,
                     const std::vector<std::pair<std::string, std::string>>&
                         extra = {});

std::string ReadFileOrEmpty(const std::string& path);

/// Runs the repository's trace checker on `path`. On failure records it in
/// `report` and returns false.
bool CheckTraceFile(const Options& options, const std::string& path,
                    Report* report);

/// The largest share, in percent, of an untraced pass that the timed calls
/// may leave unexplained (build.residue_pct, answers.residue_pct; defined
/// with each workload) before a traced run counts a failed check.
inline constexpr double kMaxResiduePct = 10;

/// End-to-end (untraced) runs of each workload; each returns the exit code.
int RunBuild(const Options& options);
int RunAnswers(const Options& options);
int RunServeRead(const Options& options);
int RunServeWrite(const Options& options);

/// Per-layer measurement of one workload for `seconds`, added to `report`.
/// `named` marks the workload the traced run was started for; only it
/// reports trace.overhead_pct.
void BuildLayers(const Options& options, double seconds, bool named,
                 Report* report);
void AnswersLayers(const Options& options, double seconds, bool named,
                   Report* report);
void ServeLayers(const Options& options, bool write, double seconds,
                 bool named, Report* report);

}  // namespace perfbench

#endif  // RELSPEC_PERFBENCH_COMMON_H_
