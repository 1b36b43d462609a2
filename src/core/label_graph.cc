#include "src/core/label_graph.h"

#include <algorithm>
#include <unordered_map>

#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/id_index.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"

namespace relspec {

uint32_t LabelGraph::ClusterOf(std::span<const FuncId> path) const {
  uint32_t cur = 0;
  for (FuncId f : path) {
    const SymIdx s = SymIndexOf(f);
    if (s == kInvalidId) return kInvalidId;
    cur = SuccessorOf(cur, s);
  }
  return cur;
}

void LabelGraph::SetNumAtoms(size_t num_atoms) {
  RELSPEC_CHECK(parent_.empty()) << "label universe set on a built graph";
  num_atoms_ = num_atoms;
  label_stride_ = DynamicBitset::NumWords(num_atoms);
}

uint32_t LabelGraph::AddCluster(uint32_t parent, FuncId symbol, bool trunk) {
  const uint32_t id = static_cast<uint32_t>(parent_.size());
  parent_.push_back(parent);
  symbol_.push_back(symbol);
  trunk_.push_back(trunk ? 1 : 0);
  label_words_.resize(label_words_.size() + label_stride_, 0);
  successors_.resize(successors_.size() + alphabet_.size(), kInvalidId);
  return id;
}

size_t LabelGraph::ApproxBytes() const {
  return parent_.size() * sizeof(uint32_t) + symbol_.size() * sizeof(FuncId) +
         trunk_.size() + label_words_.size() * sizeof(uint64_t) +
         successors_.size() * sizeof(uint32_t) +
         alphabet_.size() * sizeof(FuncId);
}

Path LabelGraph::Representative(uint32_t cluster) const {
  std::vector<FuncId> syms;
  for (uint32_t c = cluster; parent_[c] != kInvalidId; c = parent_[c]) {
    syms.push_back(symbol_[c]);
  }
  std::reverse(syms.begin(), syms.end());
  return Path(std::move(syms));
}

Status LabelGraph::LinkRepresentatives(const std::vector<Path>& reps) {
  // First occurrence wins: a truncated graph's sink repeats the root's 0.
  std::unordered_map<Path, uint32_t, PathHash> index;
  for (uint32_t i = 0; i < reps.size(); ++i) {
    const Path& rep = reps[i];
    parent_[i] = kInvalidId;
    symbol_[i] = 0;
    if (!rep.empty()) {
      auto it = index.find(rep.Parent());
      if (it == index.end()) {
        return Status::InvalidArgument(StrFormat(
            "representative of cluster %u extends no earlier representative",
            i));
      }
      if (SymIndexOf(rep.Outermost()) == kInvalidId) {
        return Status::InvalidArgument(StrFormat(
            "representative of cluster %u ends in a symbol outside the "
            "alphabet",
            i));
      }
      parent_[i] = it->second;
      symbol_[i] = rep.Outermost();
    }
    index.emplace(rep, i);
  }
  return Status::OK();
}

size_t LabelGraph::EquivalenceScope() const {
  IdIndex labels;
  for (uint32_t i = 0; i < num_clusters(); ++i) {
    const BitView l = label(i);
    const uint64_t hash = l.Hash();
    if (labels.Find(hash, [&](uint32_t j) { return label(j) == l; }) ==
        IdIndex::kNone) {
      labels.Insert(hash, i);
    }
  }
  return labels.size();
}

StatusOr<LabelGraph> BuildLabelGraph(Labeling* labeling,
                                     const LabelGraphOptions& options) {
  RELSPEC_PHASE("algorithm_q");
  LabelGraph out;
  const GroundProgram& ground = labeling->ground();
  const int c = ground.trunk_depth();
  const int frontier = options.merge_trunk_frontier ? c : c + 1;
  out.trunk_depth_ = c;
  out.frontier_depth_ = frontier;
  out.alphabet_ = ground.alphabet();
  out.SetNumAtoms(ground.num_atoms());
  const size_t k = ground.num_symbols();

  // Trunk clusters: one singleton per path of depth < frontier. The trunk
  // paths come in shortlex order, a heap: path i's parent is (i-1)/k and its
  // f_s child k*i+1+s, which is a trunk cluster while it is above the
  // frontier and a frontier item's parent edge otherwise.
  const std::vector<Path>& trunk = labeling->trunk_paths();
  size_t num_trunk = 0;
  while (num_trunk < trunk.size() && trunk[num_trunk].depth() < frontier) {
    ++num_trunk;
  }
  auto set_label = [&](uint32_t cluster, BitView label) {
    std::copy(label.words().begin(), label.words().end(),
              out.MutableLabel(cluster));
  };
  for (size_t i = 0; i < num_trunk; ++i) {
    const uint32_t id =
        i == 0 ? out.AddCluster(kInvalidId, 0, /*trunk=*/true)
               : out.AddCluster(static_cast<uint32_t>((i - 1) / k),
                                trunk[i].Outermost(), /*trunk=*/true);
    set_label(id, labeling->TrunkLabel(trunk[i]));
    uint32_t* successors = out.MutableSuccessors(id);
    for (SymIdx s = 0; s < k && k * i + 1 + s < num_trunk; ++s) {
      successors[s] = static_cast<uint32_t>(k * i + 1 + s);
    }
  }

  // Algorithm Q: breadth-first over states from the frontier layer. An item
  // carries its term's chi entry, whose value is the term's label. Beyond
  // the boundary a child's entry is the recorded children[f] of its parent's
  // entry (Theorem 3.1), so no term is looked up and nothing is closed.
  // Every item is f_sym(representative of parent) and sets that edge when it
  // resolves. A depth-c frontier term (merge_trunk_frontier) has no entry
  // and reads its trunk label by its trunk-path index; the depth-0 one has
  // no parent at all.
  struct Item {
    uint32_t entry = kInvalidId;
    uint32_t parent = kInvalidId;
    SymIdx sym = 0;
    uint32_t trunk_path = kInvalidId;  // merged-frontier items only
  };
  ChiEngine& chi = labeling->chi();
  auto label_of = [&](const Item& item) -> BitView {
    return item.entry == kInvalidId
               ? BitView(labeling->TrunkLabel(trunk[item.trunk_path]))
               : chi.Value(item.entry);
  };
  // The cluster of an item's state, or kInvalidId when no Active term has
  // it yet. A state is looked up by its label once per chi entry: the
  // entry's cluster is remembered in `entry_cluster`, which grows when a
  // frozen engine's lazy close creates entries during the traversal. Two
  // entries with different seeds and equal values reach one cluster through
  // `label_to_cluster`, an index over the BFS clusters' own labels. A
  // converged table has a value per entry, so the traversal's clusters
  // number at most the entries plus the merged-frontier items.
  IdIndex label_to_cluster;
  label_to_cluster.Reserve(chi.num_entries() + trunk.size() - num_trunk);
  std::vector<uint32_t> entry_cluster(chi.num_entries(), kInvalidId);
  auto remember = [&](const Item& item, uint32_t cluster) {
    if (item.entry == kInvalidId || cluster == kInvalidId) return;
    if (item.entry >= entry_cluster.size()) {
      entry_cluster.resize(chi.num_entries(), kInvalidId);
    }
    entry_cluster[item.entry] = cluster;
  };
  static_assert(IdIndex::kNone == kInvalidId);
  auto cluster_of = [&](const Item& item) -> uint32_t {
    if (item.entry < entry_cluster.size() &&
        entry_cluster[item.entry] != kInvalidId) {
      return entry_cluster[item.entry];
    }
    const BitView label = label_of(item);
    const uint32_t id = label_to_cluster.Find(
        label.Hash(), [&](uint32_t cl) { return out.label(cl) == label; });
    remember(item, id);
    return id;
  };
  // The BFS queue is items [head, size) of one vector. Popping drops the
  // consumed prefix once it is half the vector, which moves no more items
  // than were popped since the last drop, so the queue keeps one block
  // where a deque takes a block per few dozen items.
  std::vector<Item> queue;
  size_t head = 0;
  auto pop_front = [&] {
    if (2 * ++head < queue.size()) return;
    queue.erase(queue.begin(), queue.begin() + static_cast<ptrdiff_t>(head));
    head = 0;
  };
  if (frontier <= c) {
    for (size_t i = num_trunk; i < trunk.size(); ++i) {
      const uint32_t parent =
          i == 0 ? kInvalidId : static_cast<uint32_t>((i - 1) / k);
      const SymIdx sym = i == 0 ? 0 : static_cast<SymIdx>((i - 1) % k);
      queue.push_back({kInvalidId, parent, sym, static_cast<uint32_t>(i)});
    }
  } else {
    for (size_t i = LabelGraph::LastTrunkLayer(num_trunk, k); i < num_trunk;
         ++i) {
      for (SymIdx s = 0; s < k; ++s) {
        Path child = trunk[i].Extend(ground.alphabet()[s]);
        uint32_t entry = labeling->BoundaryEntry(child.symbols());
        queue.push_back({entry, static_cast<uint32_t>(i), s});
      }
    }
  }
  // As in the fixpoint: a resource breach under allow_partial keeps the
  // clusters found so far and marks the graph truncated instead of failing.
  auto degrade = [&](Status st) -> Status {
    if (!options.allow_partial || !st.IsResourceBreach()) return st;
    out.truncated_ = true;
    out.breach_ = std::move(st);
    return Status::OK();
  };

  // A truncated input labeling already makes the graph partial: its labels
  // under-approximate the fixpoint, so clusters reflect that truncation.
  if (labeling->truncated()) {
    RELSPEC_RETURN_NOT_OK(degrade(labeling->breach()));
  }

  while (head < queue.size()) {
    {
      Status st;
      if (failpoint::Active()) st = failpoint::Evaluate("algorithm_q.visit");
      if (st.ok() && options.governor != nullptr) {
        st = options.governor->CheckNodes(out.num_clusters());
      }
      if (!st.ok()) {
        RELSPEC_RETURN_NOT_OK(degrade(std::move(st)));
        break;
      }
    }
    Item& item = queue[head];
    ++out.num_potential_;
    const uint32_t found = cluster_of(item);
    if (found != kInvalidId) {
      // Inactive: subsumed by an earlier Active term; branch not extended.
      if (item.parent != kInvalidId) {
        out.MutableSuccessors(item.parent)[item.sym] = found;
      }
      pop_front();
      continue;
    }
    // Active: the item's term is the representative of a new cluster.
    if (out.num_clusters() >= options.max_clusters) {
      RELSPEC_RETURN_NOT_OK(
          degrade(Status::ResourceExhausted(StrFormat(
              "label graph exceeded max_clusters=%zu", options.max_clusters))));
      break;
    }
    const uint32_t id =
        item.parent == kInvalidId
            ? out.AddCluster(kInvalidId, 0, /*trunk=*/false)
            : out.AddCluster(item.parent, ground.alphabet()[item.sym],
                             /*trunk=*/false);
    const BitView label = label_of(item);
    set_label(id, label);
    if (item.parent != kInvalidId) {
      out.MutableSuccessors(item.parent)[item.sym] = id;
    }
    label_to_cluster.Insert(label.Hash(), id);
    remember(item, id);
    const Item active = item;
    pop_front();
    ++out.num_active_;
    if (active.entry != kInvalidId) {
      const std::span<const uint32_t> kids = chi.Children(active.entry);
      for (SymIdx s = 0; s < k; ++s) queue.push_back({kids[s], id, s});
    } else {
      // A depth-c cluster (merge_trunk_frontier): its children are
      // boundary terms, whose labels are the boundary chi entries.
      const Path& rep = trunk[active.trunk_path];
      for (SymIdx s = 0; s < k; ++s) {
        uint32_t kid =
            labeling->BoundaryEntry(rep.Extend(ground.alphabet()[s]).symbols());
        queue.push_back({kid, id, s});
      }
    }
  }

  // An interrupted BFS leaves dangling edges (frontier terms never visited,
  // successor labels never clustered). The synthetic unknown cluster — empty
  // label, every successor a self-loop — absorbs them so the graph stays
  // structurally well-formed. An unvisited frontier term goes to the sink;
  // an unvisited deeper child whose state did get a cluster still points at
  // that cluster.
  if (out.truncated_) {
    out.unknown_cluster_ = out.AddCluster(kInvalidId, 0, /*trunk=*/false);
    std::fill_n(out.MutableSuccessors(out.unknown_cluster_), k,
                out.unknown_cluster_);
    for (size_t i = head; i < queue.size(); ++i) {
      const Item& item = queue[i];
      if (item.parent == kInvalidId) continue;
      const uint32_t found =
          item.parent < num_trunk ? kInvalidId : cluster_of(item);
      out.MutableSuccessors(item.parent)[item.sym] =
          found != kInvalidId ? found : out.unknown_cluster_;
    }
  }

  if (out.truncated_) {
    RELSPEC_COUNTER("labelgraph.truncated");
    RELSPEC_LOG(kWarning) << "label graph truncated at "
                          << out.num_clusters()
                          << " clusters: " << out.breach_.ToString();
  }
  RELSPEC_GAUGE_SET("labelgraph.clusters", out.num_clusters());
  RELSPEC_GAUGE_SET("labelgraph.active", out.num_active_);
  RELSPEC_GAUGE_SET("labelgraph.potential", out.num_potential_);
  return out;
}

}  // namespace relspec
