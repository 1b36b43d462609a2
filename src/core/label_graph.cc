#include "src/core/label_graph.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/id_index.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"

namespace relspec {
namespace {

// The first cluster of the trunk's last layer, the frontier terms' parents:
// in heap order, the first trunk cluster i whose first child k*i+1 lies past
// the `num_trunk` trunk clusters.
size_t LastTrunkLayer(size_t num_trunk, size_t k) {
  return num_trunk == 0 || k == 0 ? 0 : (num_trunk - 1 + k - 1) / k;
}

}  // namespace

uint32_t LabelGraph::ClusterOf(const Path& path) const {
  uint32_t cur = 0;
  for (FuncId f : path.symbols()) {
    const SymIdx s = SymIndexOf(f);
    if (s == kInvalidId) return kInvalidId;
    cur = clusters_[cur].successors[s];
  }
  return cur;
}

std::vector<std::pair<Path, uint32_t>> LabelGraph::BoundaryEntries() const {
  std::vector<std::pair<Path, uint32_t>> out;
  auto keep = [&](Path path, uint32_t cluster) {
    if (cluster != unknown_cluster_) out.emplace_back(std::move(path), cluster);
  };
  if (frontier_depth_ == 0) {
    if (!clusters_.empty()) keep(Path::Zero(), 0);
    return out;
  }
  const size_t k = alphabet_.size();
  size_t num_trunk = 0;
  while (num_trunk < clusters_.size() && clusters_[num_trunk].trunk) {
    ++num_trunk;
  }
  for (size_t i = LastTrunkLayer(num_trunk, k); i < num_trunk; ++i) {
    const Path rep = Representative(static_cast<uint32_t>(i));
    for (SymIdx s = 0; s < k; ++s) {
      keep(rep.Extend(alphabet_[s]), clusters_[i].successors[s]);
    }
  }
  return out;
}

Path RepresentativePath(const std::vector<Cluster>& clusters, uint32_t idx) {
  std::vector<FuncId> syms;
  for (uint32_t c = idx; clusters[c].parent != kInvalidId;
       c = clusters[c].parent) {
    syms.push_back(clusters[c].symbol);
  }
  std::reverse(syms.begin(), syms.end());
  return Path(std::move(syms));
}

Status LinkRepresentatives(const std::vector<Path>& reps,
                           const std::vector<FuncId>& alphabet,
                           std::vector<Cluster>* clusters) {
  // First occurrence wins: a truncated graph's sink repeats the root's 0.
  std::unordered_map<Path, uint32_t, PathHash> index;
  for (uint32_t i = 0; i < reps.size(); ++i) {
    Cluster& c = (*clusters)[i];
    const Path& rep = reps[i];
    c.parent = kInvalidId;
    c.symbol = 0;
    if (!rep.empty()) {
      auto it = index.find(rep.Parent());
      if (it == index.end()) {
        return Status::InvalidArgument(StrFormat(
            "representative of cluster %u extends no earlier representative",
            i));
      }
      if (AlphabetIndex(alphabet, rep.Outermost()) == kInvalidId) {
        return Status::InvalidArgument(StrFormat(
            "representative of cluster %u ends in a symbol outside the "
            "alphabet",
            i));
      }
      c.parent = it->second;
      c.symbol = rep.Outermost();
    }
    index.emplace(rep, i);
  }
  return Status::OK();
}

size_t LabelGraph::EquivalenceScope() const {
  IdIndex labels;
  for (uint32_t i = 0; i < clusters_.size(); ++i) {
    const DynamicBitset& label = clusters_[i].label;
    const uint64_t hash = label.Hash();
    if (labels.Find(hash, [&](uint32_t j) {
          return clusters_[j].label == label;
        }) == IdIndex::kNone) {
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
  for (size_t i = 0; i < num_trunk; ++i) {
    Cluster cl;
    if (i > 0) {
      cl.parent = static_cast<uint32_t>((i - 1) / k);
      cl.symbol = trunk[i].Outermost();
    }
    cl.label = labeling->TrunkLabel(trunk[i]);
    cl.trunk = true;
    cl.successors.assign(k, kInvalidId);
    for (SymIdx s = 0; s < k && k * i + 1 + s < num_trunk; ++s) {
      cl.successors[s] = static_cast<uint32_t>(k * i + 1 + s);
    }
    out.clusters_.push_back(std::move(cl));
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
  auto label_of = [&](const Item& item) -> const DynamicBitset& {
    return item.entry == kInvalidId
               ? labeling->TrunkLabel(trunk[item.trunk_path])
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
    const DynamicBitset& label = label_of(item);
    const uint32_t id = label_to_cluster.Find(label.Hash(), [&](uint32_t cl) {
      return out.clusters_[cl].label == label;
    });
    remember(item, id);
    return id;
  };
  std::deque<Item> queue;
  if (frontier <= c) {
    for (size_t i = num_trunk; i < trunk.size(); ++i) {
      const uint32_t parent =
          i == 0 ? kInvalidId : static_cast<uint32_t>((i - 1) / k);
      const SymIdx sym = i == 0 ? 0 : static_cast<SymIdx>((i - 1) % k);
      queue.push_back({kInvalidId, parent, sym, static_cast<uint32_t>(i)});
    }
  } else {
    for (size_t i = LastTrunkLayer(num_trunk, k); i < num_trunk; ++i) {
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

  while (!queue.empty()) {
    {
      Status st;
      if (failpoint::Active()) st = failpoint::Evaluate("algorithm_q.visit");
      if (st.ok() && options.governor != nullptr) {
        st = options.governor->CheckNodes(out.clusters_.size());
      }
      if (!st.ok()) {
        RELSPEC_RETURN_NOT_OK(degrade(std::move(st)));
        break;
      }
    }
    Item& item = queue.front();
    ++out.num_potential_;
    const uint32_t found = cluster_of(item);
    if (found != kInvalidId) {
      // Inactive: subsumed by an earlier Active term; branch not extended.
      if (item.parent != kInvalidId) {
        out.clusters_[item.parent].successors[item.sym] = found;
      }
      queue.pop_front();
      continue;
    }
    // Active: the item's term is the representative of a new cluster.
    uint32_t id = static_cast<uint32_t>(out.clusters_.size());
    if (out.clusters_.size() >= options.max_clusters) {
      RELSPEC_RETURN_NOT_OK(
          degrade(Status::ResourceExhausted(StrFormat(
              "label graph exceeded max_clusters=%zu", options.max_clusters))));
      break;
    }
    Cluster cl;
    cl.label = label_of(item);
    if (item.parent != kInvalidId) {
      cl.parent = item.parent;
      cl.symbol = ground.alphabet()[item.sym];
      out.clusters_[item.parent].successors[item.sym] = id;
    }
    cl.successors.assign(k, kInvalidId);
    label_to_cluster.Insert(cl.label.Hash(), id);
    remember(item, id);
    const Item active = item;
    queue.pop_front();
    out.clusters_.push_back(std::move(cl));
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
    out.unknown_cluster_ = static_cast<uint32_t>(out.clusters_.size());
    Cluster unknown;
    unknown.label = DynamicBitset(ground.num_atoms());
    unknown.successors.assign(k, out.unknown_cluster_);
    out.clusters_.push_back(std::move(unknown));
    for (const Item& item : queue) {
      if (item.parent == kInvalidId) continue;
      const uint32_t found =
          item.parent < num_trunk ? kInvalidId : cluster_of(item);
      out.clusters_[item.parent].successors[item.sym] =
          found != kInvalidId ? found : out.unknown_cluster_;
    }
  }

  if (out.truncated_) {
    RELSPEC_COUNTER("labelgraph.truncated");
    RELSPEC_LOG(kWarning) << "label graph truncated at "
                          << out.clusters_.size()
                          << " clusters: " << out.breach_.ToString();
  }
  RELSPEC_GAUGE_SET("labelgraph.clusters", out.clusters_.size());
  RELSPEC_GAUGE_SET("labelgraph.active", out.num_active_);
  RELSPEC_GAUGE_SET("labelgraph.potential", out.num_potential_);
  return out;
}

}  // namespace relspec
