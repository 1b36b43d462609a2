#include "src/cc/congruence_closure.h"

#include "src/base/metrics.h"

namespace relspec {

void CongruenceClosure::AddTerm(TermId t) {
  if (t < known_bits_.size() && known_bits_[t]) return;
  // Walk down to the first known subterm, then add bottom-up.
  std::vector<TermId> chain;
  TermId cur = t;
  while (true) {
    bool is_known = cur < known_bits_.size() && known_bits_[cur];
    if (is_known) break;
    chain.push_back(cur);
    if (cur == kZeroTerm) break;
    cur = arena_->node(cur).child;
  }
  RELSPEC_COUNTER_ADD("cc.terms_added", chain.size());
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    TermId u = *it;
    if (known_bits_.size() <= u) known_bits_.resize(u + 1, false);
    known_bits_[u] = true;
    known_.push_back(u);
    uf_.EnsureSize(u + 1);
    if (u == kZeroTerm) continue;
    // Register u under its signature; if an equal-signature term exists,
    // u joins its class immediately.
    Signature sig = SignatureOf(u);
    parents_[sig.child_root].push_back(u);
    auto [sit, inserted] = signatures_.emplace(sig, u);
    if (!inserted && !uf_.Same(sit->second, u)) {
      pending_.push_back(Pending{sit->second, u});
      DrainPending();
    }
  }
}

CongruenceClosure::Signature CongruenceClosure::SignatureOf(TermId t) {
  TermNode n = arena_->node(t);
  return Signature{n.fn, uf_.Find(n.child),
                   std::vector<ConstId>(n.args.begin(), n.args.end())};
}

void CongruenceClosure::Merge(TermId a, TermId b) {
  RELSPEC_COUNTER("cc.merges");
  AddTerm(a);
  AddTerm(b);
  pending_.push_back(Pending{a, b});
  DrainPending();
}

bool CongruenceClosure::AreCongruent(TermId a, TermId b) {
  RELSPEC_COUNTER("cc.congruence_checks");
  AddTerm(a);
  AddTerm(b);
  return uf_.Same(a, b);
}

TermId CongruenceClosure::Find(TermId t) {
  AddTerm(t);
  return uf_.Find(t);
}

size_t CongruenceClosure::NumClasses() {
  size_t n = 0;
  for (TermId t : known_) {
    if (uf_.Find(t) == t) ++n;
  }
  return n;
}

void CongruenceClosure::DrainPending() {
  if (pending_.empty()) return;  // keep no-op calls out of the event trace
  RELSPEC_PHASE("cc.drain");
  RELSPEC_GAUGE_MAX("cc.pending_peak", pending_.size());
  while (!pending_.empty()) {
    RELSPEC_COUNTER("cc.pending_processed");
    Pending p = pending_.back();
    TermId a = p.a;
    TermId b = p.b;
    pending_.pop_back();
    uint32_t ra = uf_.Find(a);
    uint32_t rb = uf_.Find(b);
    if (ra == rb) continue;
    uint32_t merged = uf_.Union(ra, rb);
    ++num_unions_;
    uint32_t absorbed = merged == ra ? rb : ra;
    // Every parent of the absorbed class gets a new signature rooted at the
    // merged class; collisions detected there queue further merges.
    PropagateFrom(absorbed);
    parents_.erase(absorbed);
    RELSPEC_GAUGE_MAX("cc.pending_peak", pending_.size());
  }
}

void CongruenceClosure::PropagateFrom(uint32_t root) {
  // Re-hash every application whose child class just changed; collisions in
  // the signature table are exactly the congruence consequences.
  auto it = parents_.find(root);
  if (it == parents_.end()) return;
  std::vector<TermId> apps = it->second;  // copy: the map mutates below
  for (TermId app : apps) {
    Signature sig = SignatureOf(app);
    if (sig.child_root != root) {
      // The class was absorbed elsewhere; re-file the parent.
      parents_[sig.child_root].push_back(app);
    }
    auto [sit, inserted] = signatures_.emplace(sig, app);
    if (!inserted && !uf_.Same(sit->second, app)) {
      pending_.push_back(Pending{sit->second, app});
    }
  }
}

}  // namespace relspec
