// General-graph support (the paper's Appendix A.2 / DBpedia treatment):
// index a graph whose labels are NOT ontology types by attaching untyped
// labels under a fallback type, then search it through BiG-index.
//
//   ./general_graph_search

#include <cstdio>
#include <memory>
#include <string>

#include "bigindex.h"

using namespace bigindex;

int main() {
  LabelDictionary dict;

  // A "social network"-ish graph: unique user handles (no ontology knows
  // them) plus a few typed pages.
  GraphBuilder gb;
  Rng rng(17);
  std::vector<VertexId> users;
  for (int i = 0; i < 2000; ++i) {
    users.push_back(gb.AddVertex(dict.Intern("user_" + std::to_string(i))));
  }
  // The three forum pages take consecutive ids from cpp_page on.
  VertexId cpp_page = gb.AddVertex(dict.Intern("cpp_forum"));
  gb.AddVertex(dict.Intern("database_forum"));
  gb.AddVertex(dict.Intern("ml_forum"));
  for (VertexId u : users) {
    gb.AddEdge(u, cpp_page + rng.Uniform(3));  // each user follows one forum
    if (rng.Bernoulli(0.2)) {                  // some follow a second one
      gb.AddEdge(u, cpp_page + rng.Uniform(3));
    }
  }
  Graph g = std::move(gb.Build()).value();

  // Partial ontology: only the forums are typed.
  OntologyBuilder ob;
  ob.AddSupertypeEdge(dict.Find("cpp_forum"), dict.Intern("Forum"));
  ob.AddSupertypeEdge(dict.Find("database_forum"), dict.Intern("Forum"));
  ob.AddSupertypeEdge(dict.Find("ml_forum"), dict.Intern("Forum"));
  Ontology partial = std::move(ob.Build()).value();

  // Appendix A.2: attach the 2000 untyped user labels under a fallback.
  auto typed = AttachUntypedLabels(g, partial, dict, "User");
  if (!typed.ok()) {
    std::fprintf(stderr, "%s\n", typed.status().ToString().c_str());
    return 1;
  }
  std::printf("typing: %zu labels already typed, %zu attached under "
              "'User' (%.1f%% pre-typed; the paper reports 73.2%% for "
              "DBpedia against YAGO's ontology)\n",
              typed->typed, typed->attached,
              100.0 * typed->typed_fraction());

  auto index = BigIndex::Build(g, &typed->ontology, {.max_layers = 2});
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("index: layer-1 ratio %.4f — 2000 unique user labels collapse "
              "once generalized to 'User'\n",
              index->LayerCompressionRatio(1));

  // Keyword query over concrete labels: "who connects user_42 and the
  // database forum?"
  QueryEngine engine(std::move(index).value(),
                     {.register_default_algorithms = false});
  engine.Register(std::make_unique<BkwsAlgorithm>(
      BkwsOptions{.d_max = 3, .top_k = 5}));
  std::vector<LabelId> q = {dict.Find("user_42"),
                            dict.Find("database_forum")};
  auto result = engine.Evaluate(
      {.keywords = q, .algorithm = "bkws", .eval = {.top_k = 5}});
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("query {user_42, database_forum}: %zu answer(s) at layer "
              "%zu\n", result->answers.size(), result->breakdown.layer);
  for (const Answer& a : result->answers) {
    std::printf("  root %-22s score %u\n",
                dict.Name(g.label(a.root)).c_str(), a.score);
  }
  return result->answers.empty() ? 1 : 0;
}
