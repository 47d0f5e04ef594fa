// Tests for the model-space exploration (paper Section 4.2): the 90-model
// space, the eight equivalent pairs, Figure 4's lattice, and the
// nine-litmus-test sufficiency result.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/checker.h"
#include "enumeration/suite.h"
#include "explore/cover.h"
#include "explore/lattice.h"
#include "explore/matrix.h"
#include "explore/space.h"
#include "litmus/catalog.h"
#include "models/zoo.h"

namespace mcmc::explore {
namespace {

/// Shared fixture: the 90-model space against the Corollary-1 suite.
class Exploration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    space_ = new std::vector<ModelChoices>(model_space(true));
    std::vector<core::MemoryModel> models;
    models.reserve(space_->size());
    for (const auto& c : *space_) models.push_back(c.to_model());
    suite_ = new std::vector<litmus::LitmusTest>(
        enumeration::corollary1_suite(true));
    matrix_ = new AdmissibilityMatrix(models, *suite_);
  }
  static void TearDownTestSuite() {
    delete matrix_;
    delete suite_;
    delete space_;
    matrix_ = nullptr;
    suite_ = nullptr;
    space_ = nullptr;
  }

  static int index_of(const ModelChoices& c) {
    const auto it = std::find(space_->begin(), space_->end(), c);
    EXPECT_NE(it, space_->end());
    return static_cast<int>(it - space_->begin());
  }

  static std::vector<ModelChoices>* space_;
  static std::vector<litmus::LitmusTest>* suite_;
  static AdmissibilityMatrix* matrix_;
};

std::vector<ModelChoices>* Exploration::space_ = nullptr;
std::vector<litmus::LitmusTest>* Exploration::suite_ = nullptr;
AdmissibilityMatrix* Exploration::matrix_ = nullptr;

TEST(ModelSpace, Has90ModelsWithDepsAnd36Without) {
  EXPECT_EQ(model_space(true).size(), 90u);
  EXPECT_EQ(model_space(false).size(), 36u);
}

TEST(ModelSpace, NamesRoundTrip) {
  for (const auto& c : model_space(true)) {
    const auto back = parse_model_name(c.name());
    ASSERT_TRUE(back.has_value()) << c.name();
    EXPECT_TRUE(*back == c);
  }
  EXPECT_FALSE(parse_model_name("M0444").has_value());  // ww=0 eliminated
  EXPECT_FALSE(parse_model_name("M4244").has_value());  // wr=2 eliminated
  EXPECT_FALSE(parse_model_name("M4424").has_value());  // rw=2 eliminated
  EXPECT_FALSE(parse_model_name("X4444").has_value());
}

TEST(ModelSpace, NamedHardwareModelCoordinatesMatchFigure4) {
  EXPECT_EQ(sc_choices().name(), "M4444");
  EXPECT_EQ(tso_choices().name(), "M4044");
  EXPECT_EQ(pso_choices().name(), "M1044");
  EXPECT_EQ(ibm370_choices().name(), "M4144");
  EXPECT_EQ(rmo_nodep_choices().name(), "M1010");
  EXPECT_EQ(alpha_choices().name(), "M1110");
}

TEST_F(Exploration, ChoiceModelsAgreeWithHandWrittenFormulas) {
  // The digit-encoded models must induce the same verdicts as the
  // Section 2.4 formulas on the full suite.
  struct Pairing {
    core::MemoryModel zoo;
    ModelChoices choices;
  };
  const std::vector<Pairing> pairings = {
      {models::sc(), sc_choices()},
      {models::tso(), tso_choices()},
      {models::pso(), pso_choices()},
      {models::ibm370(), ibm370_choices()},
      {models::rmo_no_ctrl(), rmo_choices()},
  };
  for (const auto& p : pairings) {
    const auto digit_model = p.choices.to_model();
    for (const auto& t : *suite_) {
      const core::Analysis an(t.program());
      EXPECT_EQ(core::is_allowed(an, p.zoo, t.outcome()),
                core::is_allowed(an, digit_model, t.outcome()))
          << p.zoo.name() << " vs " << digit_model.name() << " on "
          << t.name();
    }
  }
}

TEST_F(Exploration, ExactlyEightEquivalentPairs) {
  std::set<std::pair<std::string, std::string>> equivalent;
  for (int a = 0; a < matrix_->num_models(); ++a) {
    for (int b = a + 1; b < matrix_->num_models(); ++b) {
      if (matrix_->compare(a, b) == Relation::Equivalent) {
        equivalent.insert({(*space_)[static_cast<std::size_t>(a)].name(),
                           (*space_)[static_cast<std::size_t>(b)].name()});
      }
    }
  }
  const std::set<std::pair<std::string, std::string>> expected = {
      {"M1010", "M1110"}, {"M1011", "M1111"}, {"M4010", "M4110"},
      {"M4011", "M4111"}, {"M4030", "M4130"}, {"M4031", "M4131"},
      {"M4040", "M4140"}, {"M4041", "M4141"},
  };
  EXPECT_EQ(equivalent, expected);
}

TEST_F(Exploration, EquivalentPairsDifferOnlyInSameAddressWriteRead) {
  // Section 4.2: "All equivalent pairs of models are models that differ
  // only with the choice of whether to allow reordering of writes with
  // later reads to the same address."
  for (int a = 0; a < matrix_->num_models(); ++a) {
    for (int b = a + 1; b < matrix_->num_models(); ++b) {
      if (matrix_->compare(a, b) != Relation::Equivalent) continue;
      const auto& ca = (*space_)[static_cast<std::size_t>(a)];
      const auto& cb = (*space_)[static_cast<std::size_t>(b)];
      EXPECT_EQ(ca.ww, cb.ww);
      EXPECT_EQ(ca.rw, cb.rw);
      EXPECT_EQ(ca.rr, cb.rr);
      EXPECT_TRUE((ca.wr == 0 && cb.wr == 1) || (ca.wr == 1 && cb.wr == 0));
    }
  }
}

TEST_F(Exploration, StrengtheningADigitNeverWeakensTheModel) {
  // Property: raising one digit within its option chain (0 < {1,2} < 3 < 4,
  // with 1 and 2 incomparable) can only shrink the allowed set.
  auto stronger_digit = [](int lo, int hi) {
    if (lo == hi) return true;
    if (lo == 0) return true;
    if (hi == 4) return true;
    return (lo == 1 || lo == 2) && hi == 3;
  };
  const int n = matrix_->num_models();
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      const auto& ca = (*space_)[static_cast<std::size_t>(a)];
      const auto& cb = (*space_)[static_cast<std::size_t>(b)];
      const bool pointwise =
          stronger_digit(ca.ww, cb.ww) && stronger_digit(ca.wr, cb.wr) &&
          stronger_digit(ca.rw, cb.rw) && stronger_digit(ca.rr, cb.rr);
      if (!pointwise) continue;
      const Relation r = matrix_->compare(a, b);
      EXPECT_TRUE(r == Relation::FirstWeaker || r == Relation::Equivalent)
          << ca.name() << " vs " << cb.name() << ": " << to_string(r);
    }
  }
}

TEST_F(Exploration, NineCatalogTestsDistinguishEverything) {
  // Build the verdicts of L1..L9 over the 90 models and check they cover
  // every pair the 126-test suite distinguishes.
  std::vector<core::MemoryModel> models;
  for (const auto& c : *space_) models.push_back(c.to_model());
  const AdmissibilityMatrix nine(models, litmus::figure3_tests());
  const auto pairs = distinguishable_pairs(*matrix_);
  for (const auto& [a, b] : pairs) {
    bool covered = false;
    for (int t = 0; t < nine.num_tests(); ++t) {
      if (nine.allowed(a, t) != nine.allowed(b, t)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << (*space_)[static_cast<std::size_t>(a)].name()
                         << " vs "
                         << (*space_)[static_cast<std::size_t>(b)].name();
  }
}

TEST_F(Exploration, GreedyCoverNeedsNineTests) {
  const auto cover = greedy_cover(*matrix_);
  EXPECT_EQ(cover.size(), 9u);
  EXPECT_TRUE(covers_all(*matrix_, cover, distinguishable_pairs(*matrix_)));
}

TEST_F(Exploration, ExactMinimumCoverIsNine) {
  const auto cover = exact_minimum_cover(*matrix_);
  EXPECT_EQ(cover.size(), 9u);
  EXPECT_TRUE(covers_all(*matrix_, cover, distinguishable_pairs(*matrix_)));
}

TEST_F(Exploration, LatticeGroupsFigure4MergedNodes) {
  // The dependency-free 36-model subspace must yield 30 nodes, six of
  // which are merged pairs (Figure 4 shows them as double-labeled nodes).
  const auto sub = model_space(false);
  std::vector<core::MemoryModel> models;
  std::vector<std::string> names;
  for (const auto& c : sub) {
    models.push_back(c.to_model());
    names.push_back(c.name());
  }
  const auto nine = litmus::figure3_tests();
  std::vector<std::string> test_names;
  for (const auto& t : nine) test_names.push_back(t.name());
  const AdmissibilityMatrix m(models, nine);
  const Lattice lattice = build_lattice(m, names, test_names);
  EXPECT_EQ(lattice.nodes.size(), 30u);
  int merged = 0;
  for (const auto& node : lattice.nodes) merged += node.members.size() == 2;
  EXPECT_EQ(merged, 6);
}

TEST_F(Exploration, LatticeEdgesAreGenuineWitnessedCovers) {
  const auto sub = model_space(false);
  std::vector<core::MemoryModel> models;
  std::vector<std::string> names;
  for (const auto& c : sub) {
    models.push_back(c.to_model());
    names.push_back(c.name());
  }
  const auto nine = litmus::figure3_tests();
  std::vector<std::string> test_names;
  for (const auto& t : nine) test_names.push_back(t.name());
  const AdmissibilityMatrix m(models, nine);
  const Lattice lattice = build_lattice(m, names, test_names);
  for (const auto& e : lattice.edges) {
    const int weaker =
        lattice.nodes[static_cast<std::size_t>(e.weaker)].members[0];
    const int stronger =
        lattice.nodes[static_cast<std::size_t>(e.stronger)].members[0];
    EXPECT_EQ(m.compare(weaker, stronger), Relation::FirstWeaker);
    EXPECT_TRUE(m.allowed(weaker, e.witness_test));
    EXPECT_FALSE(m.allowed(stronger, e.witness_test));
  }
  // SC must be a maximal node: no outgoing edge from SC's class.
  int sc_node = -1;
  for (std::size_t i = 0; i < lattice.nodes.size(); ++i) {
    if (lattice.nodes[i].label.find("M4444") != std::string::npos) {
      sc_node = static_cast<int>(i);
    }
  }
  ASSERT_GE(sc_node, 0);
  for (const auto& e : lattice.edges) EXPECT_NE(e.weaker, sc_node);
}

TEST_F(Exploration, KnownHardwareOrderings) {
  // RMO is weaker than PSO, PSO weaker than TSO, TSO weaker than SC;
  // TSO and IBM370 are incomparable (Test A vs nothing the other allows:
  // in fact IBM370 is strictly stronger than TSO -- it forbids forwarding
  // -- so check that instead).
  const int rmo = index_of(rmo_nodep_choices());
  const int pso = index_of(pso_choices());
  const int tso = index_of(tso_choices());
  const int ibm = index_of(ibm370_choices());
  const int sc = index_of(sc_choices());
  EXPECT_EQ(matrix_->compare(rmo, pso), Relation::FirstWeaker);
  EXPECT_EQ(matrix_->compare(pso, tso), Relation::FirstWeaker);
  EXPECT_EQ(matrix_->compare(tso, sc), Relation::FirstWeaker);
  EXPECT_EQ(matrix_->compare(tso, ibm), Relation::FirstWeaker);
  EXPECT_EQ(matrix_->compare(ibm, sc), Relation::FirstWeaker);
}

TEST_F(Exploration, LatticeDotOutputIsWellFormed) {
  const auto sub = model_space(false);
  std::vector<core::MemoryModel> models;
  std::vector<std::string> names;
  for (const auto& c : sub) {
    models.push_back(c.to_model());
    names.push_back(c.name());
  }
  const auto nine = litmus::figure3_tests();
  std::vector<std::string> test_names;
  for (const auto& t : nine) test_names.push_back(t.name());
  const AdmissibilityMatrix m(models, nine);
  const Lattice lattice = build_lattice(m, names, test_names);
  const std::string dot = lattice.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("M4444"), std::string::npos);
  EXPECT_NE(dot.find("M1010=M1110"), std::string::npos);
  // Every edge label is one of the nine tests.
  for (const auto& e : lattice.edges) {
    EXPECT_EQ(e.witness_name.size(), 2u);
    EXPECT_EQ(e.witness_name[0], 'L');
  }
}

TEST_F(Exploration, NoDepSubspaceVerdictsEmbedInFullSpace) {
  // A dependency-free model must behave identically whether constructed
  // through the 36-model or the 90-model enumeration path.
  const auto sub = model_space(false);
  for (const auto& c : sub) {
    EXPECT_TRUE(c.dependency_free()) << c.name();
    const int idx = index_of(c);
    EXPECT_EQ((*space_)[static_cast<std::size_t>(idx)].name(), c.name());
  }
}

TEST_F(Exploration, SatAndExplicitEnginesAgreeOnSampledSpace) {
  // Cross-engine agreement over a slice of the matrix (every 7th model,
  // every 5th test keeps this fast while covering all templates).
  std::vector<core::MemoryModel> models;
  for (std::size_t i = 0; i < space_->size(); i += 7) {
    models.push_back((*space_)[i].to_model());
  }
  for (std::size_t t = 0; t < suite_->size(); t += 5) {
    const core::Analysis an((*suite_)[t].program());
    for (const auto& m : models) {
      EXPECT_EQ(
          core::is_allowed(an, m, (*suite_)[t].outcome(), core::Engine::Sat),
          core::is_allowed(an, m, (*suite_)[t].outcome(),
                           core::Engine::Explicit))
          << m.name() << " on " << (*suite_)[t].name();
    }
  }
}

}  // namespace
}  // namespace mcmc::explore
