#include "src/core/label_graph.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"

namespace relspec {

uint32_t LabelGraph::ClusterOf(const Path& path) const {
  for (FuncId f : path.symbols()) {
    if (sym_index_.count(f) == 0) return kInvalidId;
  }
  if (path.depth() < frontier_depth_) return trunk_cluster_.at(path);
  // A truncated graph may be missing frontier entry points the BFS never
  // reached; they resolve to the unknown sink (kInvalidId when complete).
  auto it = boundary_cluster_.find(path.Prefix(frontier_depth_));
  if (it == boundary_cluster_.end()) return unknown_cluster_;
  uint32_t cur = it->second;
  for (int i = frontier_depth_; i < path.depth(); ++i) {
    cur = clusters_[cur].successors[sym_index_.at(path.at(i))];
  }
  return cur;
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
      if (std::find(alphabet.begin(), alphabet.end(), rep.Outermost()) ==
          alphabet.end()) {
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
  std::unordered_set<DynamicBitset, DynamicBitsetHash> labels;
  for (const Cluster& c : clusters_) labels.insert(c.label);
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
  out.num_symbols_ = ground.num_symbols();
  for (SymIdx i = 0; i < ground.num_symbols(); ++i) {
    out.sym_index_.emplace(ground.alphabet()[i], i);
  }

  // Trunk clusters: one singleton per path of depth < frontier, shortlex.
  for (const Path& w : labeling->trunk_paths()) {
    if (w.depth() >= frontier) continue;
    uint32_t id = static_cast<uint32_t>(out.clusters_.size());
    Cluster cl;
    if (!w.empty()) {
      cl.parent = out.trunk_cluster_.at(w.Parent());
      cl.symbol = w.Outermost();
    }
    cl.label = labeling->TrunkLabel(w);
    cl.trunk = true;
    out.clusters_.push_back(std::move(cl));
    out.trunk_cluster_.emplace(w, id);
  }

  // Algorithm Q: breadth-first over states from the frontier layer. An item
  // carries its term's chi entry, whose value is the term's label. Beyond
  // the boundary a child's entry is the recorded children[f] of its parent's
  // entry (Theorem 3.1), so no term is looked up and nothing is closed.
  // Every item is f_sym(representative of parent): frontier items hang
  // off the trunk and also carry their path, the key of the boundary index;
  // a depth-c frontier term (merge_trunk_frontier) has no entry and reads
  // its trunk label, and the depth-0 one has no parent at all.
  struct Item {
    Path path;  // frontier items only
    uint32_t entry = kInvalidId;
    uint32_t parent = kInvalidId;
    SymIdx sym = 0;
    bool frontier = false;
  };
  ChiEngine& chi = labeling->chi();
  auto label_of = [&](const Item& item) -> const DynamicBitset& {
    return item.entry == kInvalidId ? labeling->TrunkLabel(item.path)
                                    : chi.Value(item.entry);
  };
  std::unordered_map<DynamicBitset, uint32_t, DynamicBitsetHash> label_to_cluster;
  std::deque<Item> queue;
  for (const Path& w : labeling->trunk_paths()) {
    if (frontier <= c) {
      if (w.depth() != frontier) continue;
      Item item{w};
      item.frontier = true;
      if (!w.empty()) {
        item.parent = out.trunk_cluster_.at(w.Parent());
        item.sym = out.sym_index_.at(w.Outermost());
      }
      queue.push_back(std::move(item));
    } else if (w.depth() == c) {
      const uint32_t parent = out.trunk_cluster_.at(w);
      for (SymIdx s = 0; s < ground.num_symbols(); ++s) {
        Path child = w.Extend(ground.alphabet()[s]);
        uint32_t entry = labeling->BoundaryEntry(child.symbols());
        queue.push_back({std::move(child), entry, parent, s, true});
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
    auto it = label_to_cluster.find(label_of(item));
    if (it != label_to_cluster.end()) {
      // Inactive: subsumed by an earlier Active term; branch not extended.
      if (item.frontier) {
        out.boundary_cluster_.emplace(std::move(item.path), it->second);
      } else {
        out.clusters_[item.parent].successors[item.sym] = it->second;
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
    }
    if (item.frontier) {
      out.boundary_cluster_.emplace(std::move(item.path), id);
    } else {
      out.clusters_[item.parent].successors[item.sym] = id;
    }
    cl.successors.assign(ground.num_symbols(), kInvalidId);
    label_to_cluster.emplace(cl.label, id);
    uint32_t entry = item.entry;
    queue.pop_front();
    out.clusters_.push_back(std::move(cl));
    ++out.num_active_;
    if (entry != kInvalidId) {
      const std::vector<uint32_t>& kids = chi.Children(entry);
      for (SymIdx s = 0; s < ground.num_symbols(); ++s) {
        queue.push_back({Path(), kids[s], id, s});
      }
    } else {
      // A depth-c cluster (merge_trunk_frontier): its children are
      // boundary terms, whose labels are the boundary chi entries.
      const Path rep = out.Representative(id);
      for (SymIdx s = 0; s < ground.num_symbols(); ++s) {
        uint32_t kid =
            labeling->BoundaryEntry(rep.Extend(ground.alphabet()[s]).symbols());
        queue.push_back({Path(), kid, id, s});
      }
    }
  }

  // An interrupted BFS leaves dangling edges (frontier paths never visited,
  // successor labels never clustered). The synthetic unknown cluster — empty
  // label, every successor a self-loop — absorbs them so the graph stays
  // structurally well-formed. An unvisited child whose state did get a
  // cluster still points at that cluster.
  if (out.truncated_) {
    out.unknown_cluster_ = static_cast<uint32_t>(out.clusters_.size());
    Cluster unknown;
    unknown.label = DynamicBitset(ground.num_atoms());
    unknown.successors.assign(ground.num_symbols(), out.unknown_cluster_);
    out.clusters_.push_back(std::move(unknown));
    for (const Item& item : queue) {
      if (item.frontier) continue;
      auto it = label_to_cluster.find(label_of(item));
      out.clusters_[item.parent].successors[item.sym] =
          it != label_to_cluster.end() ? it->second : out.unknown_cluster_;
    }
  }

  // Trunk successors: trunk children, then the frontier entry points.
  for (uint32_t id = 0; id < out.clusters_.size(); ++id) {
    Cluster& cl = out.clusters_[id];
    if (!cl.trunk) continue;
    cl.successors.assign(ground.num_symbols(), kInvalidId);
    const Path rep = out.Representative(id);
    for (SymIdx s = 0; s < ground.num_symbols(); ++s) {
      Path child = rep.Extend(ground.alphabet()[s]);
      if (child.depth() < frontier) {
        cl.successors[s] = out.trunk_cluster_.at(child);
        continue;
      }
      auto bit = out.boundary_cluster_.find(child);
      if (bit != out.boundary_cluster_.end()) {
        cl.successors[s] = bit->second;
      } else if (out.truncated_) {
        cl.successors[s] = out.unknown_cluster_;
      } else {
        return Status::Internal(
            "frontier path missing from the boundary index");
      }
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
