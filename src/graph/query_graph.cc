#include "graph/query_graph.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_util.h"
#include "similarity/join_cache.h"
#include "similarity/sim_join.h"

namespace cdb {

VertexId QueryGraph::InternVertex(int rel, int64_t row) {
  auto [it, inserted] = vertex_index_[rel].try_emplace(
      row, static_cast<VertexId>(vertices_.size()));
  if (inserted) {
    vertices_.push_back(Vertex{rel, row});
    vertex_rel_pos_.push_back(
        static_cast<int32_t>(relation_vertices_[rel].size()));
    relation_vertices_[rel].push_back(it->second);
  }
  return it->second;
}

void QueryGraph::AddEdge(VertexId u, VertexId v, int p, double weight,
                         bool is_crowd, EdgeColor color) {
  CDB_DCHECK(!finalized_);
  edge_u_.push_back(u);
  edge_v_.push_back(v);
  edge_pred_.push_back(p);
  edge_weight_.push_back(weight);
  edge_color_.push_back(static_cast<uint8_t>(color));
  edge_is_crowd_.push_back(is_crowd ? 1 : 0);
}

void QueryGraph::Finalize() {
  CDB_DCHECK(!finalized_);
  const size_t num_slots = static_cast<size_t>(num_vertices()) *
                           static_cast<size_t>(num_predicates());
  // Count-then-fill. The legacy layout pushed each edge id into slot (u, p)
  // then slot (v, p) while iterating edges in id order, so per-slot postings
  // were ascending ids (with a self-loop's id appearing twice in a row);
  // filling in the same order reproduces that byte-for-byte.
  incidence_offsets_.assign(num_slots + 1, 0);
  for (EdgeId e = 0; e < num_edges(); ++e) {
    ++incidence_offsets_[IncidenceSlot(edge_u_[e], edge_pred_[e]) + 1];
    ++incidence_offsets_[IncidenceSlot(edge_v_[e], edge_pred_[e]) + 1];
  }
  for (size_t s = 1; s <= num_slots; ++s) {
    incidence_offsets_[s] += incidence_offsets_[s - 1];
  }
  incidence_edges_.resize(static_cast<size_t>(num_edges()) * 2);
  std::vector<uint32_t> cursor(incidence_offsets_.begin(),
                               incidence_offsets_.end() - 1);
  for (EdgeId e = 0; e < num_edges(); ++e) {
    incidence_edges_[cursor[IncidenceSlot(edge_u_[e], edge_pred_[e])]++] = e;
    incidence_edges_[cursor[IncidenceSlot(edge_v_[e], edge_pred_[e])]++] = e;
  }
  finalized_ = true;
}

VertexId QueryGraph::FindVertex(int rel, int64_t row) const {
  const auto& index = vertex_index_[rel];
  auto it = index.find(row);
  return it == index.end() ? kNoVertex : it->second;
}

EdgeSpan QueryGraph::IncidentEdges(VertexId v, int p) const {
  CDB_DCHECK(v >= 0 && v < num_vertices());
  CDB_DCHECK(finalized_);
  if (p < 0 || p >= num_predicates()) return EdgeSpan();
  const size_t slot = IncidenceSlot(v, p);
  return EdgeSpan(incidence_edges_.data() + incidence_offsets_[slot],
                  incidence_offsets_[slot + 1] - incidence_offsets_[slot]);
}

std::vector<EdgeId> QueryGraph::AllIncidentEdges(VertexId v) const {
  std::vector<EdgeId> out;
  AppendIncidentEdges(v, &out);
  return out;
}

void QueryGraph::AppendIncidentEdges(VertexId v,
                                     std::vector<EdgeId>* out) const {
  CDB_DCHECK(v >= 0 && v < num_vertices());
  CDB_DCHECK(finalized_);
  // Per-predicate slots of one vertex are contiguous in the CSR index, so the
  // concatenation over predicates is a single contiguous range.
  const size_t begin = incidence_offsets_[IncidenceSlot(v, 0)];
  const size_t end = incidence_offsets_[IncidenceSlot(v, num_predicates() - 1) + 1];
  out->insert(out->end(), incidence_edges_.data() + begin,
              incidence_edges_.data() + end);
}

VertexId QueryGraph::Opposite(EdgeId e, VertexId v) const {
  CDB_DCHECK(edge_u_[e] == v || edge_v_[e] == v);
  return edge_u_[e] == v ? edge_v_[e] : edge_u_[e];
}

void QueryGraph::SetColor(EdgeId e, EdgeColor color) {
  CDB_CHECK_MSG(edge_color_[e] == static_cast<uint8_t>(EdgeColor::kUnknown) ||
                    edge_color_[e] == static_cast<uint8_t>(color),
                "recoloring an edge with a different color");
  edge_color_[e] = static_cast<uint8_t>(color);
}

void QueryGraph::RecolorEdge(EdgeId e, EdgeColor color) {
  CDB_CHECK_MSG(color != EdgeColor::kUnknown, "cannot uncolor an edge");
  // Flip-only contract: recoloring corrects evidence on an edge that was
  // already colored. An uncolored edge was pruned before it was ever asked;
  // late evidence must not resurrect it (the caller filters those out).
  CDB_CHECK_MSG(edge_color_[e] != static_cast<uint8_t>(EdgeColor::kUnknown),
                "RecolorEdge on an uncolored (pruned-unasked) edge");
  edge_color_[e] = static_cast<uint8_t>(color);
}

void QueryGraph::UncolorEdge(EdgeId e) {
  CDB_CHECK_MSG(edge_is_crowd_[e] != 0,
                "UncolorEdge on a born-colored traditional edge");
  CDB_CHECK_MSG(edge_color_[e] != static_cast<uint8_t>(EdgeColor::kUnknown),
                "UncolorEdge on an edge that is already uncolored");
  edge_color_[e] = static_cast<uint8_t>(EdgeColor::kUnknown);
}

int64_t QueryGraph::CountEdges(EdgeColor color) const {
  int64_t count = 0;
  for (uint8_t c : edge_color_) {
    if (c == static_cast<uint8_t>(color)) ++count;
  }
  return count;
}

std::string QueryGraph::DebugString() const {
  std::string out;
  for (EdgeId e = 0; e < num_edges(); ++e) {
    const Vertex& u = vertices_[edge_u_[e]];
    const Vertex& v = vertices_[edge_v_[e]];
    const EdgeColor c = edge_color(e);
    const char* color = c == EdgeColor::kBlue  ? "BLUE"
                        : c == EdgeColor::kRed ? "RED"
                                               : "?";
    out += StrPrintf("e%d pred%d (r%d:%lld)-(r%d:%lld) w=%.2f %s\n", e,
                     edge_pred_[e], u.rel, static_cast<long long>(u.row), v.rel,
                     static_cast<long long>(v.row), edge_weight_[e], color);
  }
  return out;
}

QueryGraph QueryGraph::MakeSynthetic(int num_base_relations,
                                     std::vector<PredicateInfo> predicates,
                                     const std::vector<SyntheticEdge>& edges) {
  CDB_CHECK(!predicates.empty());
  QueryGraph graph;
  graph.num_base_relations_ = num_base_relations;
  graph.predicates_ = std::move(predicates);
  int num_relations = num_base_relations;
  for (const PredicateInfo& info : graph.predicates_) {
    num_relations = std::max({num_relations, info.left_rel + 1, info.right_rel + 1});
  }
  graph.relation_predicates_.assign(num_relations, {});
  for (int p = 0; p < graph.num_predicates(); ++p) {
    graph.relation_predicates_[graph.predicates_[p].left_rel].push_back(p);
    graph.relation_predicates_[graph.predicates_[p].right_rel].push_back(p);
  }
  graph.relation_sizes_.assign(num_relations, 0);
  graph.vertex_index_.resize(num_relations);
  graph.relation_vertices_.resize(num_relations);
  for (const SyntheticEdge& edge : edges) {
    CDB_CHECK(edge.pred >= 0 && edge.pred < graph.num_predicates());
    const PredicateInfo& info = graph.predicates_[edge.pred];
    VertexId u = graph.InternVertex(info.left_rel, edge.left_row);
    VertexId v = graph.InternVertex(info.right_rel, edge.right_row);
    graph.AddEdge(u, v, edge.pred, edge.weight, edge.is_crowd, edge.color);
  }
  for (int rel = 0; rel < num_relations; ++rel) {
    graph.relation_sizes_[rel] =
        static_cast<int64_t>(graph.relation_vertices_[rel].size());
  }
  graph.Finalize();
  return graph;
}

Result<QueryGraph> QueryGraph::Build(const ResolvedQuery& query,
                                     const GraphOptions& options) {
  QueryGraph graph;
  graph.num_base_relations_ = static_cast<int>(query.tables.size());
  const int num_relations =
      graph.num_base_relations_ + static_cast<int>(query.selections.size());

  // Predicate table: joins first, then selections (matching the pseudo
  // relation order).
  for (const ResolvedJoin& join : query.joins) {
    graph.predicates_.push_back(
        PredicateInfo{join.is_crowd, false, join.left_rel, join.right_rel});
  }
  for (size_t s = 0; s < query.selections.size(); ++s) {
    graph.predicates_.push_back(PredicateInfo{
        query.selections[s].is_crowd, true, query.selections[s].rel,
        graph.num_base_relations_ + static_cast<int>(s)});
  }
  if (graph.predicates_.empty()) {
    return Status::InvalidArgument(
        "graph model needs at least one predicate (plain scans do not use it)");
  }

  graph.relation_predicates_.assign(num_relations, {});
  for (int p = 0; p < graph.num_predicates(); ++p) {
    graph.relation_predicates_[graph.predicates_[p].left_rel].push_back(p);
    graph.relation_predicates_[graph.predicates_[p].right_rel].push_back(p);
  }
  graph.relation_sizes_.assign(num_relations, 0);
  graph.vertex_index_.resize(num_relations);
  graph.relation_vertices_.resize(num_relations);

  // Join edges.
  for (size_t j = 0; j < query.joins.size(); ++j) {
    const ResolvedJoin& join = query.joins[j];
    const Table* left = query.tables[join.left_rel];
    const Table* right = query.tables[join.right_rel];
    CDB_ASSIGN_OR_RETURN(
        std::vector<std::string> left_vals,
        left->StringColumn(left->schema().column(join.left_col).name));
    CDB_ASSIGN_OR_RETURN(
        std::vector<std::string> right_vals,
        right->StringColumn(right->schema().column(join.right_col).name));
    if (join.is_crowd) {
      std::shared_ptr<const std::vector<SimPair>> pairs;
      if (options.join_cache != nullptr) {
        pairs = options.join_cache->Join(left_vals, right_vals, options.sim_fn,
                                         options.epsilon, options.num_threads);
      } else {
        SimJoinOptions join_options;
        join_options.num_threads = options.num_threads;
        join_options.metrics = options.sim_metrics;
        pairs = std::make_shared<const std::vector<SimPair>>(
            SimilarityJoin(left_vals, right_vals, options.sim_fn,
                           options.epsilon, join_options));
      }
      for (const SimPair& pair : *pairs) {
        VertexId u = graph.InternVertex(join.left_rel, pair.left);
        VertexId v = graph.InternVertex(join.right_rel, pair.right);
        graph.AddEdge(u, v, static_cast<int>(j), pair.sim, /*is_crowd=*/true,
                      EdgeColor::kUnknown);
      }
    } else {
      // Traditional equi-join: exact string match, weight 1, BLUE.
      std::unordered_map<std::string, std::vector<int64_t>> index;
      for (size_t r = 0; r < right_vals.size(); ++r) {
        if (!right_vals[r].empty()) index[right_vals[r]].push_back(static_cast<int64_t>(r));
      }
      for (size_t l = 0; l < left_vals.size(); ++l) {
        auto it = index.find(left_vals[l]);
        if (it == index.end()) continue;
        for (int64_t r : it->second) {
          VertexId u = graph.InternVertex(join.left_rel, static_cast<int64_t>(l));
          VertexId v = graph.InternVertex(join.right_rel, r);
          graph.AddEdge(u, v, static_cast<int>(j), 1.0, /*is_crowd=*/false,
                        EdgeColor::kBlue);
        }
      }
    }
  }

  // Selection edges: one pseudo-vertex per selection predicate.
  for (size_t s = 0; s < query.selections.size(); ++s) {
    const ResolvedSelection& sel = query.selections[s];
    const int pred = static_cast<int>(query.joins.size() + s);
    const int pseudo_rel = graph.num_base_relations_ + static_cast<int>(s);
    const Table* table = query.tables[sel.rel];
    CDB_ASSIGN_OR_RETURN(
        std::vector<std::string> vals,
        table->StringColumn(table->schema().column(sel.col).name));
    VertexId pseudo = graph.InternVertex(pseudo_rel, 0);
    if (sel.is_crowd) {
      std::vector<SimPair> matches =
          SimilaritySearch(vals, sel.value, options.sim_fn, options.epsilon);
      for (const SimPair& match : matches) {
        VertexId u = graph.InternVertex(sel.rel, match.left);
        graph.AddEdge(u, pseudo, pred, match.sim, /*is_crowd=*/true,
                      EdgeColor::kUnknown);
      }
    } else {
      for (size_t r = 0; r < vals.size(); ++r) {
        if (vals[r] == sel.value) {
          VertexId u = graph.InternVertex(sel.rel, static_cast<int64_t>(r));
          graph.AddEdge(u, pseudo, pred, 1.0, /*is_crowd=*/false,
                        EdgeColor::kBlue);
        }
      }
    }
  }

  for (int rel = 0; rel < num_relations; ++rel) {
    graph.relation_sizes_[rel] =
        static_cast<int64_t>(graph.relation_vertices_[rel].size());
  }
  graph.Finalize();
  return graph;
}

}  // namespace cdb
