// The graph query model (Section 4, Definitions 1-4).
//
// Given a resolved CQL query and the database, the graph has one vertex per
// tuple of each FROM table plus one pseudo-vertex per selection predicate
// (Section 4.2). For each crowd predicate there is an edge between two
// vertices whenever the matching probability (string similarity) is at least
// epsilon; traditional predicates contribute weight-1 edges that are colored
// BLUE without crowdsourcing. Crowd edges start Unknown and are colored BLUE
// (values match) or RED (they do not) from crowd answers.
//
// Storage layout: edges live in parallel SoA columns (endpoints, predicate,
// weight, color, crowd flag) and incidence is a CSR index over
// (vertex, predicate) slots, built count-then-fill by Finalize() with
// postings in the exact order the legacy nested-vector layout emitted them
// (ascending edge id per slot). The optimizer's per-sample loops scan the
// columns directly; the `GraphEdge` accessor remains for cold paths.
#ifndef CDB_GRAPH_QUERY_GRAPH_H_
#define CDB_GRAPH_QUERY_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "cql/analyzer.h"
#include "similarity/sim_join.h"
#include "similarity/similarity.h"

namespace cdb {

class JoinCache;

enum class EdgeColor : uint8_t {
  kUnknown,  // Not yet asked.
  kBlue,     // Values satisfy the predicate (solid edge in the paper).
  kRed,      // Values do not satisfy it (dotted edge).
};

using VertexId = int32_t;
using EdgeId = int32_t;
inline constexpr VertexId kNoVertex = -1;
inline constexpr EdgeId kNoEdge = -1;

// One tuple (or selection constant) in the graph.
struct Vertex {
  int rel = 0;      // Relation index: base tables first, then one
                    // pseudo-relation per selection predicate.
  int64_t row = 0;  // Row index in the base table; 0 for selection vertices.
};

// A materialized view of one edge, assembled from the SoA columns. Cheap to
// copy; hot loops should prefer the per-column accessors below.
struct GraphEdge {
  VertexId u = kNoVertex;  // Endpoint in the predicate's left relation.
  VertexId v = kNoVertex;  // Endpoint in the predicate's right relation.
  int pred = 0;            // Predicate index.
  double weight = 0.0;     // Matching probability omega(e) in [epsilon, 1].
  EdgeColor color = EdgeColor::kUnknown;
  bool is_crowd = true;    // Traditional-predicate edges are BLUE from birth.
};

// Relation-level description of one predicate.
struct PredicateInfo {
  bool is_crowd = true;
  bool is_selection = false;
  int left_rel = 0;
  int right_rel = 0;  // For selections: the pseudo-relation of the constant.
};

struct GraphOptions {
  SimilarityFunction sim_fn = SimilarityFunction::kQGramJaccard;
  double epsilon = 0.3;  // Edges below this matching probability are dropped.
  // Threads for the per-predicate similarity joins during Build (<= 0 = all
  // hardware threads, 1 = serial). Edge sets are identical either way.
  int num_threads = 0;
  // Optional sink for the simjoin.* funnel counters (borrowed, may be null).
  MetricsRegistry* sim_metrics = nullptr;
  // Optional shared join results (borrowed, may be null = join afresh). When
  // set, crowd joins come from the cache, which counts the funnel of the
  // joins it runs into its own registry; sim_metrics then sees no crowd
  // join. Edges are identical either way.
  JoinCache* join_cache = nullptr;
};

// Non-owning view over the edge ids of one incidence slot (or a
// concatenation of slots). Points into the graph's CSR index; invalidated if
// the graph is destroyed or rebuilt. A caller that needs a copy builds one
// from begin() and end().
class EdgeSpan {
 public:
  EdgeSpan() = default;
  EdgeSpan(const EdgeId* data, size_t size) : data_(data), size_(size) {}
  const EdgeId* begin() const { return data_; }
  const EdgeId* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  EdgeId operator[](size_t i) const { return data_[i]; }
  EdgeId front() const { return data_[0]; }
  EdgeId back() const { return data_[size_ - 1]; }

 private:
  const EdgeId* data_ = nullptr;
  size_t size_ = 0;
};

// The materialized tuple-level graph. Vertices exist only for tuples with at
// least one edge (isolated tuples cannot participate in any candidate).
class QueryGraph {
 public:
  // An empty graph; populate with Build().
  QueryGraph() = default;

  // Builds the graph for `query`, running similarity joins per crowd
  // predicate and exact matching per traditional predicate.
  static Result<QueryGraph> Build(const ResolvedQuery& query,
                                  const GraphOptions& options);

  // One edge of a hand-built graph (tests, tools, worked paper examples):
  // connects row `left_row` of the predicate's left relation with row
  // `right_row` of its right relation.
  struct SyntheticEdge {
    int pred = 0;
    int64_t left_row = 0;
    int64_t right_row = 0;
    double weight = 0.5;
    bool is_crowd = true;
    EdgeColor color = EdgeColor::kUnknown;
  };

  // Builds a graph directly from predicates and explicit weighted edges,
  // bypassing tables and similarity joins. Relation count is derived from
  // the predicate endpoints; `num_base_relations` counts those that are not
  // selection pseudo-relations.
  static QueryGraph MakeSynthetic(int num_base_relations,
                                  std::vector<PredicateInfo> predicates,
                                  const std::vector<SyntheticEdge>& edges);

  // --- Relation-level structure ---
  int num_relations() const { return static_cast<int>(relation_sizes_.size()); }
  int num_base_relations() const { return num_base_relations_; }
  int num_predicates() const { return static_cast<int>(predicates_.size()); }
  const PredicateInfo& predicate(int p) const { return predicates_[p]; }
  // Predicates incident to relation `rel`.
  const std::vector<int>& relation_predicates(int rel) const {
    return relation_predicates_[rel];
  }
  // Number of distinct tuples of `rel` present in the graph.
  int64_t relation_size(int rel) const { return relation_sizes_[rel]; }

  // --- Vertices and edges ---
  int32_t num_vertices() const { return static_cast<int32_t>(vertices_.size()); }
  int32_t num_edges() const { return static_cast<int32_t>(edge_u_.size()); }
  const Vertex& vertex(VertexId v) const { return vertices_[v]; }
  // Assembles one edge from the columns. Returned by value; binding the
  // result to `const GraphEdge&` at legacy call sites stays valid through
  // lifetime extension.
  GraphEdge edge(EdgeId e) const {
    return GraphEdge{edge_u_[e],
                     edge_v_[e],
                     edge_pred_[e],
                     edge_weight_[e],
                     static_cast<EdgeColor>(edge_color_[e]),
                     edge_is_crowd_[e] != 0};
  }

  // --- SoA edge columns (hot-path accessors) ---
  VertexId edge_u(EdgeId e) const { return edge_u_[e]; }
  VertexId edge_v(EdgeId e) const { return edge_v_[e]; }
  int edge_pred(EdgeId e) const { return edge_pred_[e]; }
  double edge_weight(EdgeId e) const { return edge_weight_[e]; }
  EdgeColor edge_color(EdgeId e) const {
    return static_cast<EdgeColor>(edge_color_[e]);
  }
  bool edge_is_crowd(EdgeId e) const { return edge_is_crowd_[e] != 0; }
  // Whole columns for bulk per-sample scans. Color values are EdgeColor.
  const std::vector<double>& edge_weights() const { return edge_weight_; }
  const std::vector<uint8_t>& edge_colors() const { return edge_color_; }
  const std::vector<uint8_t>& edge_crowd_flags() const {
    return edge_is_crowd_;
  }

  // Vertex lookup; kNoVertex if the tuple has no edges.
  VertexId FindVertex(int rel, int64_t row) const;
  // All vertices belonging to relation `rel`.
  const std::vector<VertexId>& relation_vertices(int rel) const {
    return relation_vertices_[rel];
  }
  // Position of `v` within relation_vertices(vertex(v).rel) — a dense
  // per-relation tuple index. Flat replacement for the hash-map position
  // lookups the flow layering used to rebuild per call.
  int32_t relation_position(VertexId v) const { return vertex_rel_pos_[v]; }

  // Edges incident to `v` for predicate `p` (empty if none). Postings are in
  // ascending edge-id order, matching the legacy nested-vector emission.
  EdgeSpan IncidentEdges(VertexId v, int p) const;
  // All edges incident to `v` (concatenation over predicates). Allocates;
  // hot callers should use AppendIncidentEdges with a reused buffer.
  std::vector<EdgeId> AllIncidentEdges(VertexId v) const;
  // Appends all edges incident to `v` to `out` (same order as
  // AllIncidentEdges) without allocating a fresh vector per call.
  void AppendIncidentEdges(VertexId v, std::vector<EdgeId>* out) const;
  // The endpoint of `e` opposite to `v`.
  VertexId Opposite(EdgeId e, VertexId v) const;

  // Colors an edge from a crowd answer (or inference). Coloring an already
  // colored edge with a different color is a programmer error.
  void SetColor(EdgeId e, EdgeColor color);

  // Flips an already-colored edge when new evidence changes the inferred
  // truth (late-answer reconciliation under an unreliable crowd). Callers
  // must re-run pruning afterwards — aliveness derived from the old color is
  // stale.
  void RecolorEdge(EdgeId e, EdgeColor color);

  // Reverts a colored crowd edge to kUnknown. Only the answer-propagation
  // layer may do this, and only to colors it deduced itself (a late answer
  // invalidated the deduction's premises; the closure is re-derived). Crowd
  // evidence is never uncolored, and born-colored traditional edges never
  // change.
  void UncolorEdge(EdgeId e);

  // Convenience counters.
  int64_t CountEdges(EdgeColor color) const;

  // Renders a small graph for debugging: one line per edge.
  std::string DebugString() const;

 private:
  VertexId InternVertex(int rel, int64_t row);
  void AddEdge(VertexId u, VertexId v, int p, double weight, bool is_crowd,
               EdgeColor color);
  // Builds the CSR incidence index (count-then-fill). Called once at the end
  // of Build()/MakeSynthetic(); edge/vertex sets are frozen afterwards
  // (colors stay mutable).
  void Finalize();

  size_t IncidenceSlot(VertexId v, int p) const {
    return static_cast<size_t>(v) * static_cast<size_t>(num_predicates()) +
           static_cast<size_t>(p);
  }

  int num_base_relations_ = 0;
  std::vector<PredicateInfo> predicates_;
  std::vector<std::vector<int>> relation_predicates_;
  std::vector<int64_t> relation_sizes_;

  std::vector<Vertex> vertices_;
  // SoA edge columns; index is EdgeId.
  std::vector<VertexId> edge_u_;
  std::vector<VertexId> edge_v_;
  std::vector<int> edge_pred_;
  std::vector<double> edge_weight_;
  std::vector<uint8_t> edge_color_;     // EdgeColor values.
  std::vector<uint8_t> edge_is_crowd_;  // 0/1.
  // vertex_index_[rel] maps row -> VertexId (interning only; decision paths
  // use the flat columns).
  std::vector<std::unordered_map<int64_t, VertexId>> vertex_index_;
  std::vector<std::vector<VertexId>> relation_vertices_;
  // vertex_rel_pos_[v] = index of v within relation_vertices_[vertex(v).rel].
  std::vector<int32_t> vertex_rel_pos_;
  // CSR incidence over (vertex, predicate) slots: edge ids for slot s live in
  // incidence_edges_[incidence_offsets_[s] .. incidence_offsets_[s + 1]).
  std::vector<uint32_t> incidence_offsets_;
  std::vector<EdgeId> incidence_edges_;
  bool finalized_ = false;
};

}  // namespace cdb

#endif  // CDB_GRAPH_QUERY_GRAPH_H_
