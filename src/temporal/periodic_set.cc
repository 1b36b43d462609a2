#include "src/temporal/periodic_set.h"

#include <algorithm>
#include <set>

#include "src/base/str_util.h"

namespace relspec {

void PeriodicSet::AddPoint(uint64_t n) {
  if (!Contains(n)) points_.push_back(n);
}

void PeriodicSet::AddProgression(uint64_t start, uint64_t period) {
  if (period == 0) {
    AddPoint(start);
    return;
  }
  progressions_.emplace_back(start, period);
  // Drop points the new progression covers.
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [&](uint64_t p) {
                                 return p >= start && (p - start) % period == 0;
                               }),
                points_.end());
}

bool PeriodicSet::Contains(uint64_t n) const {
  for (uint64_t p : points_) {
    if (p == n) return true;
  }
  for (const auto& [start, period] : progressions_) {
    if (n >= start && (n - start) % period == 0) return true;
  }
  return false;
}

void PeriodicSet::UnionWith(const PeriodicSet& other) {
  for (uint64_t p : other.points_) AddPoint(p);
  for (const auto& [s, p] : other.progressions_) AddProgression(s, p);
}

std::vector<uint64_t> PeriodicSet::Enumerate(uint64_t limit) const {
  std::set<uint64_t> out;
  for (uint64_t p : points_) {
    if (p <= limit) out.insert(p);
  }
  for (const auto& [start, period] : progressions_) {
    for (uint64_t n = start; n <= limit; n += period) out.insert(n);
  }
  return std::vector<uint64_t>(out.begin(), out.end());
}

std::string PeriodicSet::ToString() const {
  std::vector<std::string> parts;
  std::vector<uint64_t> pts = points_;
  std::sort(pts.begin(), pts.end());
  for (uint64_t p : pts) parts.push_back(StrFormat("%llu", (unsigned long long)p));
  auto progs = progressions_;
  std::sort(progs.begin(), progs.end());
  for (const auto& [s, p] : progs) {
    parts.push_back(
        StrFormat("%llu+%llui", (unsigned long long)s, (unsigned long long)p));
  }
  std::string out = "{";
  out += Join(parts, ", ");
  out += "}";
  return out;
}

}  // namespace relspec
