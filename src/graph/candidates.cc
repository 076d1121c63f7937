#include "graph/candidates.h"

#include <algorithm>

#include "common/logging.h"

namespace cdb {
namespace {

bool NonRed(const GraphEdge& edge) { return edge.color != EdgeColor::kRed; }
bool IsBlue(const GraphEdge& edge) { return edge.color == EdgeColor::kBlue; }

// Orders relations so every relation after the first is connected by a
// predicate to an earlier one. Starts from `root`.
std::vector<int> RelationOrder(const QueryGraph& graph, int root) {
  std::vector<int> order;
  std::vector<bool> placed(graph.num_relations(), false);
  order.push_back(root);
  placed[root] = true;
  // The analyzer guarantees connectivity, so a simple BFS terminates with all
  // relations placed.
  for (size_t head = 0; head < order.size(); ++head) {
    int rel = order[head];
    for (int p : graph.relation_predicates(rel)) {
      const PredicateInfo& info = graph.predicate(p);
      int other = info.left_rel == rel ? info.right_rel : info.left_rel;
      if (!placed[other]) {
        placed[other] = true;
        order.push_back(other);
      }
    }
  }
  // Every relation must be reachable: a disconnected predicate graph has no
  // connected candidate covering all relations.
  CDB_CHECK_EQ(order.size(), static_cast<size_t>(graph.num_relations()));
  return order;
}

// Backtracking search over assignments. `on_complete` returns false to abort
// the whole search (used for existence tests); Search returns false iff
// aborted.
bool Search(const QueryGraph& graph, const std::vector<int>& order,
            size_t depth, Assignment& assignment,
            const std::vector<VertexId>& fixed,
            const std::function<bool(const GraphEdge&)>& edge_ok,
            const std::function<bool(const Assignment&)>& on_complete) {
  if (depth == order.size()) return on_complete(assignment);
  const int rel = order[depth];

  // Predicates from `rel` back to already-placed relations. All must be
  // satisfiable for a vertex to extend the assignment.
  std::vector<int> back_preds;
  for (int p : graph.relation_predicates(rel)) {
    const PredicateInfo& info = graph.predicate(p);
    int other = info.left_rel == rel ? info.right_rel : info.left_rel;
    if (assignment[other] != kNoVertex) back_preds.push_back(p);
  }

  auto vertex_feasible = [&](VertexId w) {
    for (int p : back_preds) {
      const PredicateInfo& info = graph.predicate(p);
      int other = info.left_rel == rel ? info.right_rel : info.left_rel;
      EdgeId e = FindEdgeBetween(graph, w, assignment[other], p);
      if (e == kNoEdge || !edge_ok(graph.edge(e))) return false;
    }
    return true;
  };

  auto try_vertex = [&](VertexId w) -> bool {
    if (!vertex_feasible(w)) return true;  // Keep searching siblings.
    assignment[rel] = w;
    bool keep_going =
        Search(graph, order, depth + 1, assignment, fixed, edge_ok, on_complete);
    assignment[rel] = kNoVertex;
    return keep_going;
  };

  if (fixed[rel] != kNoVertex) return try_vertex(fixed[rel]);

  if (!back_preds.empty()) {
    // Enumerate only vertices adjacent (via the first back predicate) to the
    // placed endpoint, instead of the whole relation.
    const int p = back_preds[0];
    const PredicateInfo& info = graph.predicate(p);
    int other = info.left_rel == rel ? info.right_rel : info.left_rel;
    for (EdgeId e : graph.IncidentEdges(assignment[other], p)) {
      if (!edge_ok(graph.edge(e))) continue;
      VertexId w = graph.Opposite(e, assignment[other]);
      if (!try_vertex(w)) return false;
    }
    return true;
  }

  for (VertexId w : graph.relation_vertices(rel)) {
    if (!try_vertex(w)) return false;
  }
  return true;
}

// Chooses a root: prefer a fixed relation, else the smallest relation.
int ChooseRoot(const QueryGraph& graph, const std::vector<VertexId>& fixed) {
  for (int rel = 0; rel < graph.num_relations(); ++rel) {
    if (fixed[rel] != kNoVertex) return rel;
  }
  int best = 0;
  for (int rel = 1; rel < graph.num_relations(); ++rel) {
    if (graph.relation_size(rel) < graph.relation_size(best)) best = rel;
  }
  return best;
}

}  // namespace

EdgeId FindEdgeBetween(const QueryGraph& graph, VertexId u, VertexId v, int p) {
  for (EdgeId e : graph.IncidentEdges(u, p)) {
    if (graph.Opposite(e, u) == v) return e;
  }
  return kNoEdge;
}

std::vector<EdgeId> AssignmentEdges(const QueryGraph& graph,
                                    const Assignment& assignment) {
  std::vector<EdgeId> out;
  out.reserve(graph.num_predicates());
  for (int p = 0; p < graph.num_predicates(); ++p) {
    const PredicateInfo& info = graph.predicate(p);
    EdgeId e = FindEdgeBetween(graph, assignment[info.left_rel],
                               assignment[info.right_rel], p);
    CDB_CHECK_NE(e, kNoEdge);
    out.push_back(e);
  }
  return out;
}

bool ExistsCandidate(const QueryGraph& graph,
                     const std::vector<VertexId>& fixed,
                     const std::function<bool(const GraphEdge&)>& edge_ok) {
  CDB_CHECK_EQ(fixed.size(), static_cast<size_t>(graph.num_relations()));
  std::vector<int> order = RelationOrder(graph, ChooseRoot(graph, fixed));
  Assignment assignment(graph.num_relations(), kNoVertex);
  bool found = false;
  Search(graph, order, 0, assignment, fixed, edge_ok,
         [&](const Assignment&) {
           found = true;
           return false;  // Stop at the first hit.
         });
  return found;
}

bool EdgeValidExact(const QueryGraph& graph, EdgeId e) {
  const GraphEdge& edge = graph.edge(e);
  if (edge.color == EdgeColor::kRed) return false;
  std::vector<VertexId> fixed(graph.num_relations(), kNoVertex);
  fixed[graph.vertex(edge.u).rel] = edge.u;
  fixed[graph.vertex(edge.v).rel] = edge.v;
  return ExistsCandidate(graph, fixed, NonRed);
}

bool EdgesConflict(const QueryGraph& graph, EdgeId e1, EdgeId e2) {
  if (e1 == e2) return true;
  const GraphEdge& a = graph.edge(e1);
  const GraphEdge& b = graph.edge(e2);
  // Rule 2 of Section 5.2: two different tuples from the same relation can
  // never be in one candidate, so such edges are non-conflict.
  for (VertexId va : {a.u, a.v}) {
    for (VertexId vb : {b.u, b.v}) {
      if (graph.vertex(va).rel == graph.vertex(vb).rel && va != vb) return false;
    }
  }
  std::vector<VertexId> fixed(graph.num_relations(), kNoVertex);
  fixed[graph.vertex(a.u).rel] = a.u;
  fixed[graph.vertex(a.v).rel] = a.v;
  fixed[graph.vertex(b.u).rel] = b.u;
  fixed[graph.vertex(b.v).rel] = b.v;
  return ExistsCandidate(graph, fixed, NonRed);
}

std::vector<Assignment> FindAnswers(const QueryGraph& graph) {
  std::vector<int> order =
      RelationOrder(graph, ChooseRoot(graph, std::vector<VertexId>(
                                                 graph.num_relations(), kNoVertex)));
  Assignment assignment(graph.num_relations(), kNoVertex);
  std::vector<VertexId> fixed(graph.num_relations(), kNoVertex);
  std::vector<Assignment> answers;
  Search(graph, order, 0, assignment, fixed, IsBlue,
         [&](const Assignment& a) {
           answers.push_back(a);
           return true;
         });
  return answers;
}

void EnumerateCandidates(const QueryGraph& graph,
                         const std::function<bool(const Assignment&)>& visit) {
  std::vector<int> order =
      RelationOrder(graph, ChooseRoot(graph, std::vector<VertexId>(
                                                 graph.num_relations(), kNoVertex)));
  Assignment assignment(graph.num_relations(), kNoVertex);
  std::vector<VertexId> fixed(graph.num_relations(), kNoVertex);
  Search(graph, order, 0, assignment, fixed, NonRed, visit);
}

std::optional<ScoredCandidate> BestCandidate(const QueryGraph& graph,
                                             bool require_unknown) {
  // Dedicated recursion with product tracking and a monotone bound: edge
  // weights are <= 1, so the running product only decreases.
  std::vector<int> order =
      RelationOrder(graph, ChooseRoot(graph, std::vector<VertexId>(
                                                 graph.num_relations(), kNoVertex)));
  Assignment assignment(graph.num_relations(), kNoVertex);
  std::optional<ScoredCandidate> best;

  // The weight an edge contributes: BLUE edges are certain.
  auto edge_weight = [](const GraphEdge& edge) {
    return edge.color == EdgeColor::kBlue ? 1.0 : edge.weight;
  };

  std::function<void(size_t, double, bool)> recurse = [&](size_t depth,
                                                          double product,
                                                          bool any_unknown) {
    // Bound: weights are <= 1, so the product can only fall; a branch that is
    // already no better than the incumbent cannot strictly improve.
    if (best && product <= best->probability) return;
    if (depth == order.size()) {
      if (require_unknown && !any_unknown) return;
      if (!best || product > best->probability) {
        best = ScoredCandidate{assignment, product};
      }
      return;
    }
    const int rel = order[depth];
    std::vector<int> back_preds;
    for (int p : graph.relation_predicates(rel)) {
      const PredicateInfo& info = graph.predicate(p);
      int other = info.left_rel == rel ? info.right_rel : info.left_rel;
      if (assignment[other] != kNoVertex) back_preds.push_back(p);
    }
    auto try_vertex = [&](VertexId w) {
      double new_product = product;
      bool new_unknown = any_unknown;
      for (int p : back_preds) {
        const PredicateInfo& info = graph.predicate(p);
        int other = info.left_rel == rel ? info.right_rel : info.left_rel;
        EdgeId e = FindEdgeBetween(graph, w, assignment[other], p);
        if (e == kNoEdge || graph.edge(e).color == EdgeColor::kRed) return;
        new_product *= edge_weight(graph.edge(e));
        new_unknown = new_unknown || graph.edge(e).color == EdgeColor::kUnknown;
      }
      assignment[rel] = w;
      recurse(depth + 1, new_product, new_unknown);
      assignment[rel] = kNoVertex;
    };
    if (!back_preds.empty()) {
      const int p = back_preds[0];
      const PredicateInfo& info = graph.predicate(p);
      int other = info.left_rel == rel ? info.right_rel : info.left_rel;
      for (EdgeId e : graph.IncidentEdges(assignment[other], p)) {
        if (graph.edge(e).color == EdgeColor::kRed) continue;
        try_vertex(graph.Opposite(e, assignment[other]));
      }
    } else {
      for (VertexId w : graph.relation_vertices(rel)) try_vertex(w);
    }
  };
  recurse(0, 1.0, false);
  return best;
}

}  // namespace cdb
