// Tests for the concurrency that remains: the Submit-only TaskPool that
// executes served requests, and the shared QueryCache under contention.
// Evaluation itself is single-threaded (docs/ARCHITECTURE.md).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/task_pool.h"
#include "src/base/trace.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/parser/parser.h"

namespace relspec {
namespace {

// ---------------------------------------------------------------------------
// TaskPool
// ---------------------------------------------------------------------------

// Counts finished tasks; Submit is fire-and-forget, so tests wait here.
class Countdown {
 public:
  explicit Countdown(size_t n) : remaining_(n) {}
  void Done() {
    std::lock_guard<std::mutex> lk(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;
};

TEST(TaskPool, SingleThreadedRunsInlineOverFullRange) {
  TaskPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  for (size_t i = 0; i < 17; ++i) {
    pool.Submit([&, i] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    // Inline: the task has finished before Submit returns.
    ASSERT_EQ(order.size(), i + 1);
  }
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskPool, AllWorkExecutesExactlyOnce) {
  constexpr size_t kSubmitters = 4;
  constexpr size_t kPerSubmitter = 2500;
  std::vector<std::atomic<int>> hits(kSubmitters * kPerSubmitter);
  Countdown done(hits.size());
  std::mutex ids_mu;
  std::set<std::thread::id> submitter_ids, runner_ids;
  TaskPool pool(4);  // declared last: joins its workers before the above die
  std::vector<std::thread> submitters;
  for (size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      {
        std::lock_guard<std::mutex> lk(ids_mu);
        submitter_ids.insert(std::this_thread::get_id());
      }
      for (size_t i = 0; i < kPerSubmitter; ++i) {
        pool.Submit([&, slot = s * kPerSubmitter + i] {
          hits[slot].fetch_add(1);
          {
            std::lock_guard<std::mutex> lk(ids_mu);
            runner_ids.insert(std::this_thread::get_id());
          }
          done.Done();
        });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  done.Wait();
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // A multi-lane pool runs tasks on its workers only, never on a submitter.
  EXPECT_LE(runner_ids.size(), 3u);
  for (const std::thread::id& id : runner_ids) {
    EXPECT_EQ(submitter_ids.count(id), 0u);
  }
}

// Thread names keyed by lane id, and the lanes that emitted `event`, parsed
// from the one-event-per-line Chrome JSON export.
void ParseLanes(const std::string& json, const std::string& event,
                std::map<std::string, std::string>* names,
                std::set<std::string>* emitters) {
  auto field = [](const std::string& line, const std::string& key,
                  char end) -> std::string {
    size_t at = line.find(key);
    if (at == std::string::npos) return "";
    at += key.size();
    return line.substr(at, line.find(end, at) - at);
  };
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    std::string tid = field(line, "\"tid\":", ',');
    if (line.find("\"name\":\"thread_name\"") != std::string::npos) {
      (*names)[tid] = field(line, "\"args\":{\"name\":\"", '"');
    } else if (line.find("\"name\":\"" + event + "\"") != std::string::npos) {
      emitters->insert(tid);
    }
  }
}

TEST(TaskPool, WorkersRegisterNamedTraceLanes) {
  Tracer::Global().Reset();
  EnableEventTrace(true);
  {
    // Each task waits until both have started, so the two tasks must run
    // on the two distinct workers.
    std::mutex mu;
    std::condition_variable cv;
    int started = 0;
    Countdown done(2);
    TaskPool pool(3);
    for (int i = 0; i < 2; ++i) {
      pool.Submit([&] {
        RELSPEC_TRACE_INSTANT("test", "pool_task");
        std::unique_lock<std::mutex> lk(mu);
        ++started;
        cv.notify_all();
        cv.wait(lk, [&] { return started == 2; });
        lk.unlock();
        done.Done();
      });
    }
    done.Wait();
  }
  EnableEventTrace(false);
  std::string json = Tracer::Global().ExportChromeJson();
  Tracer::Global().Reset();

  std::map<std::string, std::string> names;
  std::set<std::string> emitters;
  ParseLanes(json, "pool_task", &names, &emitters);
  std::set<std::string> emitter_names;
  for (const std::string& tid : emitters) emitter_names.insert(names[tid]);
  EXPECT_EQ(emitter_names, (std::set<std::string>{"worker-1", "worker-2"}))
      << json;
}

// --- shared QueryCache under contention (relspecd's serving cache) ----------

// Counter-reading fixture: the registry is process-global, so start clean
// and leave metrics disabled for the next suite.
class CacheStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    EnableMetrics(true);
  }
  void TearDown() override {
    EnableMetrics(false);
    MetricsRegistry::Global().Reset();
  }
};

TEST_F(CacheStressTest, SharedCacheHoldsBudgetsAndCountersUnderContention) {
  // Real answers up front (the cache charges QueryAnswer::ApproxBytes), so
  // the threads exercise only the cache itself: Lookup / Insert / Clear /
  // size / bytes racing across four threads, with max_entries far below the
  // key population to keep the LRU eviction path hot.
  auto db = FunctionalDatabase::FromSource(
      "OnCall(0, alice).\n"
      "Rotate(alice, bob).\n"
      "Rotate(bob, alice).\n"
      "OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).\n");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  QueryCache warmup;
  std::vector<std::shared_ptr<const QueryAnswer>> answers;
  for (const char* text :
       {"?(t, x1) OnCall(t, x1).", "?(t) OnCall(t, alice).",
        "?(t) OnCall(t, bob).", "?(x1) Rotate(alice, x1)."}) {
    auto q = ParseQuery(text, (*db)->mutable_program());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto a = AnswerQueryCached(db->get(), *q, &warmup);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    answers.push_back(*a);
  }
  // The warmup misses are not part of the ledger under test.
  MetricsRegistry::Global().Reset();

  QueryCache::Options copt;
  copt.max_entries = 4;
  QueryCache cache(copt);
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  constexpr int kKeys = 16;
  std::atomic<uint64_t> lookups{0};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) * 7919u + 3u);
      for (int i = 0; i < kRounds; ++i) {
        std::string key = "q";
        key += std::to_string(rng() % kKeys);
        auto hit = cache.Lookup(1, key);
        lookups.fetch_add(1, std::memory_order_relaxed);
        if (hit != nullptr) {
          hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.Insert(1, key, answers[rng() % answers.size()]);
        }
        // The budgets are invariants, not end states: every concurrent
        // observer must see them hold mid-flight.
        EXPECT_LE(cache.size(), copt.max_entries);
        EXPECT_LE(cache.bytes(), copt.max_bytes);
        if (t == 0 && i % 501 == 500) cache.Clear();
      }
    });
  }
  for (auto& w : workers) w.join();

  // Counter ledger: every Lookup incremented exactly one of hit/miss, and
  // every eviction traces back to a missed insert.
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("cache.hit"), hits.load());
  EXPECT_EQ(snap.counter("cache.hit") + snap.counter("cache.miss"),
            lookups.load());
  EXPECT_GT(snap.counter("cache.evict"), 0u)
      << "max_entries = 4 over 16 keys never evicted";
  EXPECT_LE(snap.counter("cache.evict"), snap.counter("cache.miss"));

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

}  // namespace
}  // namespace relspec
