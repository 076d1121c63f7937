#include "cost/known_color.h"

#include <algorithm>
#include <limits>

namespace cdb {

StarCache BuildStarCache(const QueryGraph& graph, const RelGraph& rel_graph,
                         int center_rel) {
  StarCache cache;
  cache.center_rel = center_rel;
  cache.num_groups =
      static_cast<int>(rel_graph.adjacent_groups[center_rel].size());
  for (int g : rel_graph.adjacent_groups[center_rel]) {
    cache.group_pred_counts.push_back(
        static_cast<int32_t>(rel_graph.groups[g].preds.size()));
  }
  cache.bucket_offsets.push_back(0);
  cache.unit_offsets.push_back(0);
  // Per center tuple t and adjacent group: one unit per neighbor w reached
  // through the group's first predicate (w's edge for every predicate, or
  // kNoEdge), and a bucket of all of t's edges in the group, parallel-
  // predicate edges not reachable through the first predicate included, so
  // "ask all edges of t" is complete.
  for (VertexId t : graph.relation_vertices(center_rel)) {
    for (int g : rel_graph.adjacent_groups[center_rel]) {
      const RelGraph::Group& group = rel_graph.groups[g];
      std::vector<EdgeId> edges;
      const int p0 = group.preds[0];
      for (EdgeId e0 : graph.IncidentEdges(t, p0)) {
        VertexId w = graph.Opposite(e0, t);
        edges.push_back(e0);
        cache.unit_members.push_back(e0);
        for (size_t k = 1; k < group.preds.size(); ++k) {
          EdgeId ek = kNoEdge;
          for (EdgeId cand : graph.IncidentEdges(t, group.preds[k])) {
            if (graph.Opposite(cand, t) == w) {
              ek = cand;
              break;
            }
          }
          if (ek != kNoEdge) edges.push_back(ek);
          cache.unit_members.push_back(ek);
        }
      }
      for (size_t k = 1; k < group.preds.size(); ++k) {
        for (EdgeId e : graph.IncidentEdges(t, group.preds[k])) {
          if (std::find(edges.begin(), edges.end(), e) == edges.end()) {
            edges.push_back(e);
          }
        }
      }
      cache.bucket_edges.insert(cache.bucket_edges.end(), edges.begin(),
                                edges.end());
      cache.bucket_offsets.push_back(
          static_cast<uint32_t>(cache.bucket_edges.size()));
      cache.unit_offsets.push_back(
          static_cast<uint32_t>(cache.unit_members.size()));
    }
  }
  return cache;
}

void StarSelection(const QueryGraph& graph, const StarCache& cache,
                   const std::vector<EdgeColor>& colors,
                   std::vector<EdgeId>* out) {
  out->clear();
  if (cache.num_groups == 0) return;
  const size_t num_tuples =
      graph.relation_vertices(cache.center_rel).size();
  for (size_t ti = 0; ti < num_tuples; ++ti) {
    const size_t base = ti * static_cast<size_t>(cache.num_groups);
    // A group is satisfied iff some unit has every member present and BLUE.
    bool all_groups_satisfied = true;
    for (int gi = 0; gi < cache.num_groups; ++gi) {
      const size_t slot = base + static_cast<size_t>(gi);
      const int32_t pred_count = cache.group_pred_counts[gi];
      bool satisfied = false;
      for (uint32_t u = cache.unit_offsets[slot];
           !satisfied && u < cache.unit_offsets[slot + 1];
           u += static_cast<uint32_t>(pred_count)) {
        bool unit_blue = true;
        for (int32_t k = 0; k < pred_count; ++k) {
          const EdgeId e = cache.unit_members[u + static_cast<uint32_t>(k)];
          if (e == kNoEdge || colors[e] != EdgeColor::kBlue) {
            unit_blue = false;
            break;
          }
        }
        satisfied = unit_blue;
      }
      all_groups_satisfied = all_groups_satisfied && satisfied;
    }

    int chosen = -1;  // -1 = ask every bucket of this tuple.
    if (!all_groups_satisfied) {
      size_t best = std::numeric_limits<size_t>::max();
      for (int gi = 0; gi < cache.num_groups; ++gi) {
        const size_t slot = base + static_cast<size_t>(gi);
        bool any_blue = false;
        for (uint32_t b = cache.bucket_offsets[slot];
             b < cache.bucket_offsets[slot + 1]; ++b) {
          if (colors[cache.bucket_edges[b]] == EdgeColor::kBlue) {
            any_blue = true;
            break;
          }
        }
        if (any_blue) continue;
        const size_t size =
            cache.bucket_offsets[slot + 1] - cache.bucket_offsets[slot];
        if (size < best) {
          best = size;
          chosen = gi;
        }
      }
    }
    if (chosen >= 0) {
      const size_t slot = base + static_cast<size_t>(chosen);
      out->insert(out->end(),
                  cache.bucket_edges.data() + cache.bucket_offsets[slot],
                  cache.bucket_edges.data() + cache.bucket_offsets[slot + 1]);
    } else {
      // All buckets of ti are contiguous in bucket_edges.
      out->insert(
          out->end(), cache.bucket_edges.data() + cache.bucket_offsets[base],
          cache.bucket_edges.data() +
              cache.bucket_offsets[base + static_cast<size_t>(cache.num_groups)]);
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace cdb
