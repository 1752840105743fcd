// Tests for the paper's UDAFs through the AggRegistry interface — the
// extension mechanism of Section VI/VIII — plus registry semantics.

#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dsms/agg.h"
#include "dsms/udafs.h"
#include "util/random.h"
#include "util/zipf.h"

namespace fwdecay::dsms {
namespace {

class UdafTest : public testing::Test {
 protected:
  static void SetUpTestSuite() { RegisterPaperUdafs(); }

  static std::unique_ptr<AggState> Make(const std::string& name) {
    return AggRegistry::Instance().Create(name);
  }

  // gcc 12 at -O3 issues a bogus -Wmaybe-uninitialized on the variant
  // copy inside push_back; silence it for this helper only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  static std::vector<Value> Args(std::initializer_list<double> values) {
    std::vector<Value> out;
    out.reserve(values.size());
    for (double v : values) out.push_back(Value(v));
    return out;
  }
#pragma GCC diagnostic pop

  // Determinator for the next Update: distinct per call (and so per
  // trial), as the engine's per-row determinators are.
  std::uint64_t det_ = 0;

  static std::set<double> ParseSample(const std::string& rendered) {
    std::set<double> out;
    std::stringstream ss(rendered);
    std::string token;
    while (std::getline(ss, token, ',')) {
      if (!token.empty()) out.insert(std::stod(token));
    }
    return out;
  }
};

TEST_F(UdafTest, RegistryKnowsAllPaperUdafs) {
  const AggRegistry& r = AggRegistry::Instance();
  for (const char* name :
       {"prisamp", "wrsamp", "ressamp", "aggsamp", "fdhh", "unaryhh", "swhh",
        "ehdsum", "fdquantile", "fddistinct", "count", "sum", "avg", "min",
        "max"}) {
    EXPECT_TRUE(r.Contains(name)) << name;
  }
  EXPECT_TRUE(r.Contains("PRISAMP"));  // case-insensitive
  EXPECT_FALSE(r.Contains("nosuch"));
}

TEST_F(UdafTest, RegistryRejectsUnknownCreate) {
  EXPECT_DEATH(AggRegistry::Instance().Create("nosuchagg"),
               "unknown aggregate");
}

TEST_F(UdafTest, RessampKeepsEverythingUnderCapacity) {
  auto state = Make("ressamp");
  for (double v : {1.0, 2.0, 3.0}) {
    state->Update(Args({v, 10.0}), det_++);  // k = 10
  }
  EXPECT_EQ(ParseSample(state->Finalize().AsString()),
            (std::set<double>{1.0, 2.0, 3.0}));
}

TEST_F(UdafTest, PrisampRespectsSampleSizeAndSkipsZeroWeights) {
  auto state = Make("prisamp");
  for (int i = 0; i < 100; ++i) {
    state->Update(Args({static_cast<double>(i), 1.0, 8.0}), det_++);  // k = 8
  }
  state->Update(Args({999.0, 0.0, 8.0}), det_++);  // zero weight: never sampled
  const auto sample = ParseSample(state->Finalize().AsString());
  EXPECT_EQ(sample.size(), 8u);
  EXPECT_FALSE(sample.contains(999.0));
}

TEST_F(UdafTest, WrsampHeavyWeightDominates) {
  // One item carries ~all the weight: it must (almost) always be kept.
  int kept = 0;
  for (int trial = 0; trial < 50; ++trial) {
    auto state = Make("wrsamp");
    for (int i = 0; i < 50; ++i) {
      state->Update(Args({static_cast<double>(i), 1.0, 4.0}), det_++);
    }
    state->Update(Args({777.0, 1e9, 4.0}), det_++);
    kept += ParseSample(state->Finalize().AsString()).contains(777.0);
  }
  EXPECT_GE(kept, 49);
}

TEST_F(UdafTest, PrisampMergeCombinesSamples) {
  auto a = Make("prisamp");
  auto b = Make("prisamp");
  for (int i = 0; i < 20; ++i) {
    a->Update(Args({static_cast<double>(i), 1.0, 64.0}), det_++);
    b->Update(Args({100.0 + i, 1.0, 64.0}), det_++);
  }
  a->Merge(*b);
  const auto sample = ParseSample(a->Finalize().AsString());
  bool has_a = false;
  bool has_b = false;
  for (double v : sample) {
    has_a |= v < 100.0;
    has_b |= v >= 100.0;
  }
  EXPECT_TRUE(has_a);
  EXPECT_TRUE(has_b);
}

TEST_F(UdafTest, FdhhReportsTheHeavyKey) {
  auto state = Make("fdhh");
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    // Key 42 gets ~50% of the weighted stream.
    const double key = rng.NextBernoulli(0.5)
                           ? 42.0
                           : static_cast<double>(100 + rng.NextBounded(1000));
    state->Update(Args({key, 1.0, 0.2, 0.01}), det_++);
  }
  const std::string rendered = state->Finalize().AsString();
  EXPECT_NE(rendered.find("42:"), std::string::npos) << rendered;
}

TEST_F(UdafTest, UnaryhhMatchesFdhhOnUnitWeights) {
  auto unary = Make("unaryhh");
  auto weighted = Make("fdhh");
  Rng rng(2);
  ZipfGenerator zipf(100, 1.5);
  for (int i = 0; i < 20000; ++i) {
    const auto key = static_cast<double>(zipf.Next(rng));
    unary->Update(Args({key, 0.1, 0.01}), det_++);
    weighted->Update(Args({key, 1.0, 0.1, 0.01}), det_++);
  }
  // Both must report key 1 (the Zipf head) first.
  const std::string u = unary->Finalize().AsString();
  const std::string w = weighted->Finalize().AsString();
  EXPECT_EQ(u.substr(0, 2), "1:");
  EXPECT_EQ(w.substr(0, 2), "1:");
}

TEST_F(UdafTest, EhdsumProducesDecayedSumBelowTotal) {
  auto state = Make("ehdsum");
  double total = 0.0;
  for (int i = 1; i <= 2000; ++i) {
    const double ts = 0.05 * i;
    state->Update(Args({ts, 100.0, 0.1}), det_++);
    total += 100.0;
  }
  const double decayed = state->Finalize().AsDouble();
  EXPECT_GT(decayed, 0.0);
  EXPECT_LT(decayed, total);
}

TEST_F(UdafTest, FdquantileFindsWeightedMedian) {
  auto state = Make("fdquantile");
  // Values 0..999 uniformly, unit weights: median ~ 500.
  for (int i = 0; i < 1000; ++i) {
    state->Update(Args({static_cast<double>(i), 1.0, 0.5, 10.0}), det_++);
  }
  const auto median = static_cast<double>(state->Finalize().AsInt());
  EXPECT_NEAR(median, 500.0, 30.0);
}

TEST_F(UdafTest, FddistinctWithUnitWeightsCountsDistinct) {
  auto state = Make("fddistinct");
  Rng rng(3);
  std::set<std::uint64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.NextBounded(3000);
    truth.insert(key);
    state->Update(Args({static_cast<double>(key), 1.0}), det_++);
  }
  const double est = state->Finalize().AsDouble();
  const auto d = static_cast<double>(truth.size());
  // Level discretization (base 1.1) + KMV noise.
  EXPECT_GT(est, d * 0.8);
  EXPECT_LT(est, d * 1.2);
}

TEST_F(UdafTest, FdMinMaxTrackScaledExtremum) {
  // Definition 6 via the example stream: MIN/MAX of g(ti-L)*vi are
  // 0.09*3 = 0.27 and 0.49*8 = 3.92 before the 1/g(t-L) scaling.
  auto mn = Make("fdmin");
  auto mx = Make("fdmax");
  const double stream[][2] = {
      {105, 4}, {107, 8}, {103, 3}, {108, 6}, {104, 4}};
  for (const auto& [ts, v] : stream) {
    const double w = (ts - 100.0) * (ts - 100.0);
    mn->Update(Args({v, w}), det_++);
    mx->Update(Args({v, w}), det_++);
  }
  EXPECT_NEAR(mn->Finalize().AsDouble() / 100.0, 0.27, 1e-12);
  EXPECT_NEAR(mx->Finalize().AsDouble() / 100.0, 3.92, 1e-12);
}

TEST_F(UdafTest, FdMinMaxMergeTakesBetter) {
  auto a = Make("fdmax");
  auto b = Make("fdmax");
  a->Update(Args({4.0, 25.0}), det_++);
  b->Update(Args({8.0, 49.0}), det_++);
  a->Merge(*b);
  EXPECT_DOUBLE_EQ(a->Finalize().AsDouble(), 392.0);
}

TEST_F(UdafTest, SwhhRefusesTwoLevelMerge) {
  auto a = Make("swhh");
  auto b = Make("swhh");
  a->Update(Args({1.0, 42.0}), det_++);
  b->Update(Args({2.0, 42.0}), det_++);
  EXPECT_DEATH(a->Merge(*b), "two-level");
}

TEST_F(UdafTest, RegisterOverridesExisting) {
  AggRegistry& r = AggRegistry::Instance();
  // Re-registering the same name must replace, not duplicate.
  const auto before = r.Names().size();
  RegisterPaperUdafs();
  EXPECT_EQ(r.Names().size(), before);
}

}  // namespace
}  // namespace fwdecay::dsms
