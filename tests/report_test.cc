/**
 * @file
 * Tests for the CSV result-emission module.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "experiment/report.h"
#include "util/error.h"

namespace tsp::experiment {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

TEST(CsvQuote, PassesPlainCellsThrough)
{
    EXPECT_EQ(csvQuote("hello"), "hello");
    EXPECT_EQ(csvQuote("12.5"), "12.5");
    EXPECT_EQ(csvQuote(""), "");
}

TEST(CsvQuote, QuotesSpecialCharacters)
{
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvQuote("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriter, WritesHeaderAndRows)
{
    std::string path = tmpPath("csv_basic.csv");
    {
        CsvWriter csv(path);
        csv.header({"a", "b"});
        csv.row({"1", "x,y"});
        csv.row({"2", "z"});
    }
    EXPECT_EQ(slurp(path), "a,b\n1,\"x,y\"\n2,z\n");
}

TEST(CsvWriter, EnforcesRowDiscipline)
{
    std::string path = tmpPath("csv_discipline.csv");
    CsvWriter csv(path);
    EXPECT_THROW(csv.row({"too", "early"}), util::FatalError);
    csv.header({"a", "b"});
    EXPECT_THROW(csv.header({"again"}), util::FatalError);
    EXPECT_THROW(csv.row({"wrong-width"}), util::FatalError);
}

TEST(CsvWriter, UnwritablePathIsFatal)
{
    EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"),
                 util::FatalError);
}

TEST(OutputDirectory, FollowsEnvironment)
{
    unsetenv("TSP_OUT");
    EXPECT_FALSE(outputDirectory().has_value());
    setenv("TSP_OUT", "/tmp/somewhere", 1);
    ASSERT_TRUE(outputDirectory().has_value());
    EXPECT_EQ(*outputDirectory(), "/tmp/somewhere");
    setenv("TSP_OUT", "", 1);
    EXPECT_FALSE(outputDirectory().has_value());
    unsetenv("TSP_OUT");
}

TEST(StudyCsv, ExecTimePointsRoundTrip)
{
    std::string path = tmpPath("exec.csv");
    std::vector<ExecTimePoint> points(1);
    points[0].alg = placement::Algorithm::LoadBal;
    points[0].point = {4, 2};
    points[0].cycles = 12345;
    points[0].normalizedToRandom = 0.75;
    points[0].loadImbalance = 1.125;
    writeExecTimeCsv(path, points);
    std::string text = slurp(path);
    EXPECT_NE(text.find("LOAD-BAL,4,2,12345,0.750000,1.125000"),
              std::string::npos);
}

TEST(StudyCsv, MissComponentsRoundTrip)
{
    std::string path = tmpPath("miss.csv");
    std::vector<SweepRow> rows(1);
    rows[0].alg = placement::Algorithm::Random;
    rows[0].point = {2, 8};
    rows[0].compulsory = 1;
    rows[0].intraConflict = 2;
    rows[0].interConflict = 3;
    rows[0].invalidation = 4;
    rows[0].refs = 100;
    writeMissComponentsCsv(path, rows);
    EXPECT_NE(slurp(path).find("RANDOM,2,8,1,2,3,4,100"),
              std::string::npos);
}

TEST(StudyCsv, Table4And5RoundTrip)
{
    std::string p4 = tmpPath("t4.csv");
    std::vector<Table4Row> t4(1);
    t4[0].app = "Water";
    t4[0].staticTotal = 1000;
    t4[0].dynamicTotal = 10;
    t4[0].staticOverDynamic = 100;
    writeTable4Csv(p4, t4);
    EXPECT_NE(slurp(p4).find("Water,"), std::string::npos);

    std::string p5 = tmpPath("t5.csv");
    std::vector<Table5Cell> t5(1);
    t5[0].app = "FFT";
    t5[0].processors = 8;
    t5[0].bestStatic = placement::Algorithm::MaxWritesLB;
    t5[0].bestStaticVsLoadBal = 1.02;
    t5[0].coherenceVsLoadBal = 1.5;
    writeTable5Csv(p5, t5);
    EXPECT_NE(slurp(p5).find("FFT,8,MAX-WRITES+LB,1.020000,1.500000"),
              std::string::npos);
}

TEST(StudyCsv, Table5FailedCellSaysSo)
{
    // A failed cell's numbers are placeholders (bestStatic is just
    // Algorithm{}); the status column must keep it from reading as a
    // result.
    std::string path = tmpPath("t5_failed.csv");
    std::vector<Table5Cell> cells(2);
    cells[0].app = "Water";
    cells[0].processors = 2;
    cells[0].bestStatic = placement::Algorithm::MinShareLB;
    cells[0].bestStaticVsLoadBal = 0.99;
    cells[0].coherenceVsLoadBal = 1.01;
    cells[1].app = "Water";
    cells[1].processors = 4;
    cells[1].failed = true;
    cells[1].error = "LOAD-BAL baseline failed: fatal: injected";
    writeTable5Csv(path, cells);
    std::string text = slurp(path);
    EXPECT_NE(text.find("coherence_vs_loadbal,status\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find(",0.990000,1.010000,ok\n"), std::string::npos)
        << text;
    EXPECT_NE(text.find("Water,4,"), std::string::npos) << text;
    EXPECT_NE(text.find(",failed: LOAD-BAL baseline failed: fatal: "
                        "injected\n"),
              std::string::npos)
        << text;
}

TEST(StudyCsv, Table2RoundTrip)
{
    std::string path = tmpPath("t2.csv");
    std::vector<analysis::CharacteristicsRow> rows(1);
    rows[0].app = "Gauss";
    rows[0].sharedRefsPct = 95.0;
    writeTable2Csv(path, rows);
    std::string text = slurp(path);
    EXPECT_NE(text.find("Gauss,"), std::string::npos);
    EXPECT_NE(text.find("95.000000"), std::string::npos);
}

} // namespace
} // namespace tsp::experiment
