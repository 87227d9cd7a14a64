#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "util/csv.h"
#include "util/math.h"
#include "util/params.h"
#include "util/registry.h"
#include "util/strformat.h"
#include "util/table.h"

namespace alc::util {
namespace {

TEST(StrFormatTest, FormatsBasicTypes) {
  EXPECT_EQ(StrFormat("x=%d", 42), "x=42");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("%s-%s", "a", "b"), "a-b");
}

TEST(StrFormatTest, EmptyAndLongStrings) {
  EXPECT_EQ(StrFormat("%s", ""), "");
  const std::string long_string(5000, 'x');
  EXPECT_EQ(StrFormat("%s", long_string.c_str()), long_string);
}

TEST(StrFormatTest, WidthAndPrecision) {
  EXPECT_EQ(StrFormat("%6.1f", 3.14), "   3.1");
  EXPECT_EQ(StrFormat("%-6d|", 12), "12    |");
  EXPECT_EQ(StrFormat("%*s", 5, "ab"), "   ab");
}

TEST(CsvTest, WritesPlainRows) {
  std::ostringstream out;
  CsvWriter writer(&out);
  writer.WriteRow({"a", "b", "c"});
  writer.WriteRow({"1", "2", "3"});
  EXPECT_EQ(out.str(), "a,b,c\n1,2,3\n");
  EXPECT_EQ(writer.rows_written(), 2);
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::EscapeField("plain"), "plain");
  EXPECT_EQ(CsvWriter::EscapeField("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::EscapeField("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::EscapeField("with\nnewline"), "\"with\nnewline\"");
}

TEST(CsvTest, NumericRowsUsePrecision) {
  std::ostringstream out;
  CsvWriter writer(&out);
  writer.WriteNumericRow({1.0, 0.5, 123456.789}, 6);
  EXPECT_EQ(out.str(), "1,0.5,123457\n");
}

TEST(TableTest, AlignsColumns) {
  Table table({"n", "throughput"});
  table.AddRow({"10", "99.5"});
  table.AddRow({"1000", "7.1"});
  std::ostringstream out;
  table.Print(out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("   n  throughput"), std::string::npos);
  EXPECT_NE(rendered.find("  10        99.5"), std::string::npos);
  EXPECT_NE(rendered.find("1000         7.1"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, NumericRowFormatsDecimals) {
  Table table({"a", "b"});
  table.AddNumericRow({1.23456, 7.0}, 2);
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("1.23"), std::string::npos);
  EXPECT_NE(out.str().find("7.00"), std::string::npos);
}

TEST(MathTest, InverseNormalCdfKnownValues) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.8413447), 1.0, 1e-4);
  EXPECT_NEAR(InverseNormalCdf(0.999), 3.090232, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.001), -3.090232, 1e-5);
}

TEST(MathTest, InverseNormalCdfIsMonotonic) {
  double prev = InverseNormalCdf(0.001);
  for (double p = 0.01; p < 1.0; p += 0.01) {
    const double z = InverseNormalCdf(p);
    EXPECT_GT(z, prev);
    prev = z;
  }
}

TEST(MathTest, InverseNormalRoundTripsThroughErfc) {
  // Phi(InversePhi(p)) == p using the std::erfc-based normal CDF.
  for (double p : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const double z = InverseNormalCdf(p);
    const double phi = 0.5 * std::erfc(-z / std::sqrt(2.0));
    EXPECT_NEAR(phi, p, 1e-8);
  }
}

TEST(MathTest, NormalQuantileTwoSided) {
  EXPECT_NEAR(NormalQuantileTwoSided(0.95), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantileTwoSided(0.90), 1.644854, 1e-5);
  EXPECT_NEAR(NormalQuantileTwoSided(0.99), 2.575829, 1e-5);
}

TEST(MathTest, Clamp) {
  EXPECT_EQ(Clamp(5.0, 0.0, 10.0), 5.0);
  EXPECT_EQ(Clamp(-1.0, 0.0, 10.0), 0.0);
  EXPECT_EQ(Clamp(11.0, 0.0, 10.0), 10.0);
  EXPECT_EQ(Clamp(3.0, 3.0, 3.0), 3.0);
}

TEST(MathTest, Lerp) {
  EXPECT_NEAR(Lerp(0.0, 0.0, 1.0, 10.0, 0.5), 5.0, 1e-12);
  EXPECT_NEAR(Lerp(1.0, 2.0, 3.0, 6.0, 2.0), 4.0, 1e-12);
  // Degenerate segment returns the midpoint value.
  EXPECT_NEAR(Lerp(1.0, 2.0, 1.0, 4.0, 1.0), 3.0, 1e-12);
}

TEST(MathTest, SolveLinearSystemIdentity) {
  std::vector<double> a = {1, 0, 0, 1};
  std::vector<double> b = {3, 4};
  ASSERT_TRUE(SolveLinearSystem(a, b, 2));
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 4.0, 1e-12);
}

TEST(MathTest, SolveLinearSystemRequiresPivoting) {
  // First pivot is zero; partial pivoting must swap rows.
  std::vector<double> a = {0, 1, 1, 0};
  std::vector<double> b = {2, 5};
  ASSERT_TRUE(SolveLinearSystem(a, b, 2));
  EXPECT_NEAR(b[0], 5.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(MathTest, SolveLinearSystemDetectsSingular) {
  std::vector<double> a = {1, 2, 2, 4};
  std::vector<double> b = {1, 2};
  EXPECT_FALSE(SolveLinearSystem(a, b, 2));
}

TEST(MathTest, PolyFitRecoversExactQuadratic) {
  // y = 2 - 3x + 0.5x^2 sampled without noise.
  std::vector<double> xs, ys;
  for (double x = -5.0; x <= 5.0; x += 0.5) {
    xs.push_back(x);
    ys.push_back(2.0 - 3.0 * x + 0.5 * x * x);
  }
  const auto coeffs = PolyFit(xs, ys, 2);
  ASSERT_EQ(coeffs.size(), 3u);
  EXPECT_NEAR(coeffs[0], 2.0, 1e-9);
  EXPECT_NEAR(coeffs[1], -3.0, 1e-9);
  EXPECT_NEAR(coeffs[2], 0.5, 1e-9);
}

TEST(MathTest, PolyFitDegenerateReturnsEmpty) {
  // All x equal: singular normal equations.
  std::vector<double> xs = {1.0, 1.0, 1.0, 1.0};
  std::vector<double> ys = {1.0, 2.0, 3.0, 4.0};
  EXPECT_TRUE(PolyFit(xs, ys, 2).empty());
}

TEST(MathTest, PolyEvalHorner) {
  // 1 + 2x + 3x^2 at x=2 -> 17.
  EXPECT_NEAR(PolyEval({1.0, 2.0, 3.0}, 2.0), 17.0, 1e-12);
  EXPECT_NEAR(PolyEval({}, 5.0), 0.0, 1e-12);
  EXPECT_NEAR(PolyEval({7.0}, 123.0), 7.0, 1e-12);
}

TEST(ParseDoubleTest, SubnormalsRoundTripThroughFormatDouble) {
  // The smallest subnormal: strtod flags ERANGE but returns the exact value.
  const double tiny = 5e-324;
  const std::string text = FormatDouble(tiny);
  double parsed = 0.0;
  ASSERT_TRUE(ParseDouble(text, &parsed)) << text;
  EXPECT_EQ(parsed, tiny);
  ASSERT_TRUE(ParseDouble("4.9406564584124654e-324", &parsed));
  EXPECT_EQ(parsed, tiny);
}

TEST(ParseDoubleTest, RejectsOverflowAndUnderflowToZero) {
  double parsed = 7.0;
  EXPECT_FALSE(ParseDouble("1e400", &parsed));
  EXPECT_FALSE(ParseDouble("-1e400", &parsed));
  EXPECT_FALSE(ParseDouble("1e-400", &parsed));
  EXPECT_EQ(parsed, 7.0);
}

TEST(RegistryTest, RejectsDuplicatesSortsNamesAndListsThemWhenUnknown) {
  using Factory = std::function<std::unique_ptr<int>(const int&)>;
  Registry<Factory> registry("widget");
  EXPECT_TRUE(registry.Register("zeta", [](const int& x) {
    return std::make_unique<int>(x + 1);
  }));
  EXPECT_TRUE(registry.Register("alpha", [](const int& x) {
    return std::make_unique<int>(x * 2);
  }));
  // A duplicate is refused and the first entry survives.
  EXPECT_FALSE(registry.Register(
      "zeta", [](const int&) { return std::make_unique<int>(0); }));
  EXPECT_EQ(*registry.Get("zeta")(1), 2);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_TRUE(registry.Contains("alpha"));
  EXPECT_FALSE(registry.Contains("omega"));

  std::string error;
  EXPECT_EQ(registry.Find("omega", &error), nullptr);
  EXPECT_EQ(error, "unknown widget 'omega'; registered: alpha zeta");
  EXPECT_EQ(registry.Make("omega", 3), nullptr);
  EXPECT_EQ(*registry.Make("alpha", 3), 6);
  EXPECT_DEATH(registry.Get("omega"), "unknown widget 'omega'");
}

TEST(RegistryTest, FaultKindsRefuseADuplicateLikeTheFactoryFamilies) {
  // The fault family holds the kinds themselves, not factories.
  fault::FaultRegistry& kinds = fault::FaultRegistry::Global();
  const fault::FaultKind* stall = kinds.Get("disk-stall").get();
  EXPECT_FALSE(
      kinds.Register("disk-stall", std::make_unique<fault::FaultKind>()));
  EXPECT_EQ(kinds.Get("disk-stall").get(), stall);
  std::string error;
  EXPECT_EQ(kinds.Find("meteor-strike", &error), nullptr);
  EXPECT_EQ(error,
            "unknown fault kind 'meteor-strike'; registered: cpu-degrade "
            "crash-burst disk-stall partition probe-delay probe-loss");
}

}  // namespace
}  // namespace alc::util
