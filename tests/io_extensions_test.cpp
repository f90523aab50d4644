// Tests for the Appendix-A.2 typing utility.

#include <gtest/gtest.h>

#include <sstream>

#include "core/big_index.h"
#include "ontology/typing.h"
#include "util/random.h"
#include "workload/datasets.h"

namespace bigindex {
namespace {

TEST(TypingTest, AttachesUntypedLabelsUnderFallback) {
  LabelDictionary dict;
  // Ontology covers labels A, B only.
  LabelId a = dict.Intern("A"), b = dict.Intern("B"),
          thing = dict.Intern("Thing");
  OntologyBuilder ob;
  ob.AddSupertypeEdge(a, thing);
  ob.AddSupertypeEdge(b, thing);
  Ontology ont = std::move(ob.Build()).value();

  // Graph uses A plus two labels the ontology does not know.
  GraphBuilder gb;
  gb.AddVertex(a);
  gb.AddVertex(dict.Intern("X"));
  gb.AddVertex(dict.Intern("Y"));
  Graph g = std::move(gb.Build()).value();

  auto typed = AttachUntypedLabels(g, ont, dict, "Entity");
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->typed, 1u);     // A
  EXPECT_EQ(typed->attached, 2u);  // X, Y
  EXPECT_NEAR(typed->typed_fraction(), 1.0 / 3.0, 1e-9);
  LabelId entity = dict.Find("Entity");
  EXPECT_TRUE(typed->ontology.IsSupertype(entity, dict.Find("X")));
  EXPECT_TRUE(typed->ontology.IsSupertype(entity, dict.Find("Y")));
  // Pre-existing edges survive.
  EXPECT_TRUE(typed->ontology.IsSupertype(thing, a));
}

TEST(TypingTest, MakesArbitraryGraphsIndexable) {
  // A graph with labels entirely unknown to any ontology becomes indexable:
  // one generalization step maps everything to the fallback, and the layer
  // compresses.
  LabelDictionary dict;
  Rng rng(9);
  GraphBuilder gb;
  for (int i = 0; i < 300; ++i) {
    gb.AddVertex(dict.Intern("name_" + std::to_string(i)));  // unique labels
  }
  VertexId hub = 0;
  for (VertexId v = 1; v < 300; ++v) gb.AddEdge(v, hub);
  Graph g = std::move(gb.Build()).value();

  Ontology empty = std::move(OntologyBuilder().Build()).value();
  auto typed = AttachUntypedLabels(g, empty, dict, "Entity");
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->attached, 300u);

  auto index = BigIndex::Build(g, &typed->ontology, {.max_layers = 1});
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->NumLayers(), 1u);
  // 299 identical spokes + hub collapse to a handful of supernodes.
  EXPECT_LT(index->LayerCompressionRatio(1), 0.1);
}

TEST(TypingTest, IdempotentWhenAllTyped) {
  auto ds = MakeDataset("yago3", 0.001);
  ASSERT_TRUE(ds.ok());
  auto typed = AttachUntypedLabels(ds->graph, ds->ontology.ontology,
                                   *ds->dict, "Entity");
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->attached, 0u);  // generator labels are all leaf types
  EXPECT_DOUBLE_EQ(typed->typed_fraction(), 1.0);
}

}  // namespace
}  // namespace bigindex
