#include "campaign/store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "campaign/scheduler.hpp"

namespace idseval::campaign {
namespace {

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "store-test";
  spec.products = {products::ProductId::kSentryNid};
  spec.profiles = {"rt_cluster"};
  spec.sensitivities = {0.5};
  spec.replicates = 4;
  return spec;
}

CellResult sample_result(std::size_t index, bool ok) {
  CellResult r;
  r.cell.index = index;
  r.cell.product = products::ProductId::kSentryNid;
  r.cell.profile = "rt_cluster";
  r.cell.sensitivity = 0.5;
  r.cell.replicate = index;
  r.cell.seed = 1000 + index;
  r.ok = ok;
  if (!ok) r.error = "sensor melted \"badly\"\nand fell over";
  r.score_total = 123.456789012345 + static_cast<double>(index);
  r.score_performance = 0.1 * static_cast<double>(index);
  r.fp_percent_of_benign = 1.25;
  r.fn_percent_of_attacks = 33.3333333333333336;
  r.timeliness_sec = 0.25;
  r.wall_sec = 42.0;  // must NOT be persisted
  return r;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("idseval_store_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "results.jsonl").string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST(CellSerializationTest, RoundTripsExactly) {
  for (const bool ok : {true, false}) {
    const CellResult original = sample_result(3, ok);
    const CellResult copy = deserialize_cell(serialize_cell(original));
    EXPECT_EQ(copy.cell.index, original.cell.index);
    EXPECT_EQ(copy.cell.product, original.cell.product);
    EXPECT_EQ(copy.cell.profile, original.cell.profile);
    EXPECT_DOUBLE_EQ(copy.cell.sensitivity, original.cell.sensitivity);
    EXPECT_EQ(copy.cell.replicate, original.cell.replicate);
    EXPECT_EQ(copy.cell.seed, original.cell.seed);
    EXPECT_EQ(copy.ok, original.ok);
    EXPECT_EQ(copy.error, original.error);
    EXPECT_DOUBLE_EQ(copy.score_total, original.score_total);
    EXPECT_DOUBLE_EQ(copy.fn_percent_of_attacks,
                     original.fn_percent_of_attacks);
    // Serializing the parsed copy reproduces the bytes.
    EXPECT_EQ(serialize_cell(copy), serialize_cell(original));
  }
}

TEST(CellSerializationTest, TelemetrySnapshotRoundTripsExactly) {
  CellResult r = sample_result(2, true);
  r.telemetry.tapped = 1234;
  r.telemetry.filtered = 7;
  r.telemetry.lb_offered = 1200;
  r.telemetry.lb_dropped = 3;
  r.telemetry.sensor_offered = 1197;
  r.telemetry.sensor_dropped = 11;
  r.telemetry.detections = 42;
  r.telemetry.reports = 40;
  r.telemetry.alerts = 17;
  r.telemetry.blocks = 2;
  r.telemetry.lb_wait = {1200, 1.5e-6, 4.0e-6, 7.25e-6};
  r.telemetry.sensor_service = {1197, 2.75e-5, 9.5e-5, 1.25e-4};
  r.telemetry.analyzer_batch = {40, 5.0e-4, 1.5e-3, 2.0e-3};
  r.telemetry.monitor_alert = {17, 0.0125, 0.055, 0.0625};

  const CellResult copy = deserialize_cell(serialize_cell(r));
  EXPECT_EQ(copy.telemetry.tapped, 1234u);
  EXPECT_EQ(copy.telemetry.filtered, 7u);
  EXPECT_EQ(copy.telemetry.lb_offered, 1200u);
  EXPECT_EQ(copy.telemetry.lb_dropped, 3u);
  EXPECT_EQ(copy.telemetry.sensor_offered, 1197u);
  EXPECT_EQ(copy.telemetry.sensor_dropped, 11u);
  EXPECT_EQ(copy.telemetry.detections, 42u);
  EXPECT_EQ(copy.telemetry.reports, 40u);
  EXPECT_EQ(copy.telemetry.alerts, 17u);
  EXPECT_EQ(copy.telemetry.blocks, 2u);
  EXPECT_EQ(copy.telemetry.sensor_service.count, 1197u);
  EXPECT_DOUBLE_EQ(copy.telemetry.sensor_service.mean_sec, 2.75e-5);
  EXPECT_DOUBLE_EQ(copy.telemetry.sensor_service.p99_sec, 9.5e-5);
  EXPECT_DOUBLE_EQ(copy.telemetry.sensor_service.max_sec, 1.25e-4);
  EXPECT_EQ(copy.telemetry.monitor_alert.count, 17u);
  EXPECT_DOUBLE_EQ(copy.telemetry.monitor_alert.max_sec, 0.0625);
  // Re-serializing the parsed copy reproduces the bytes, nested object
  // included.
  EXPECT_EQ(serialize_cell(copy), serialize_cell(r));
}

TEST(CellSerializationTest, RowsWithoutTelemetryLoadWithZeros) {
  // Stores written before the telemetry field existed must still load:
  // strip the field (it is the last one in the row) and expect an
  // all-zero snapshot instead of a parse error.
  const CellResult original = sample_result(1, true);
  const std::string line = serialize_cell(original);
  const std::size_t at = line.find(",\"telemetry\":");
  ASSERT_NE(at, std::string::npos);
  const std::string old_format = line.substr(0, at) + "}";
  const CellResult copy = deserialize_cell(old_format);
  EXPECT_EQ(copy.cell.index, original.cell.index);
  EXPECT_DOUBLE_EQ(copy.score_total, original.score_total);
  EXPECT_EQ(copy.telemetry.tapped, 0u);
  EXPECT_EQ(copy.telemetry.sensor_service.count, 0u);
  EXPECT_TRUE(copy.telemetry.empty());
}

TEST(CellSerializationTest, WallTimeIsNotPersisted) {
  CellResult r = sample_result(0, true);
  r.wall_sec = 1.0;
  const std::string a = serialize_cell(r);
  r.wall_sec = 99.0;
  EXPECT_EQ(serialize_cell(r), a);
  EXPECT_DOUBLE_EQ(deserialize_cell(a).wall_sec, 0.0);
}

TEST(CellSerializationTest, RejectsMalformedLines) {
  EXPECT_THROW(deserialize_cell("not json"), std::invalid_argument);
  EXPECT_THROW(deserialize_cell("{\"type\":\"cell\"}"),
               std::invalid_argument);
  EXPECT_THROW(deserialize_cell("{\"type\":\"manifest\"}"),
               std::invalid_argument);
}

TEST_F(StoreTest, FreshStoreWritesManifestAndRows) {
  const CampaignSpec spec = tiny_spec();
  {
    ResultStore store(path_, spec, /*fresh=*/true);
    store.append(sample_result(0, true));
    store.append(sample_result(1, false));
    EXPECT_TRUE(store.has_ok(0));
    EXPECT_FALSE(store.has_ok(1));  // failed rows stay re-runnable
    EXPECT_FALSE(store.has_ok(2));
    EXPECT_EQ(store.ok_count(), 1u);
    EXPECT_EQ(store.failed_count(), 1u);
  }
  std::ifstream in(path_);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3u);  // manifest + 2 rows
}

TEST_F(StoreTest, ResumeLoadsExistingRows) {
  const CampaignSpec spec = tiny_spec();
  {
    ResultStore store(path_, spec, /*fresh=*/true);
    store.append(sample_result(0, true));
    store.append(sample_result(2, true));
  }
  ResultStore resumed(path_, spec, /*fresh=*/false);
  EXPECT_TRUE(resumed.has_ok(0));
  EXPECT_FALSE(resumed.has_ok(1));
  EXPECT_TRUE(resumed.has_ok(2));
  resumed.append(sample_result(1, true));
  EXPECT_EQ(resumed.ok_count(), 3u);
}

TEST_F(StoreTest, LaterRowsOverrideEarlierFailures) {
  const CampaignSpec spec = tiny_spec();
  {
    ResultStore store(path_, spec, /*fresh=*/true);
    store.append(sample_result(1, false));
    store.append(sample_result(1, true));
  }
  const auto results = ResultStore::load(path_, spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.at(1).ok);
}

TEST_F(StoreTest, ResumeRefusesDifferentSpec) {
  { ResultStore store(path_, tiny_spec(), /*fresh=*/true); }
  CampaignSpec other = tiny_spec();
  other.base_seed += 1;
  EXPECT_THROW(ResultStore(path_, other, /*fresh=*/false),
               std::invalid_argument);
  EXPECT_THROW(ResultStore::load(path_, other), std::invalid_argument);
}

TEST_F(StoreTest, FreshTruncatesExistingStore) {
  const CampaignSpec spec = tiny_spec();
  {
    ResultStore store(path_, spec, /*fresh=*/true);
    store.append(sample_result(0, true));
  }
  ResultStore store(path_, spec, /*fresh=*/true);
  EXPECT_FALSE(store.has_ok(0));
  EXPECT_EQ(store.ok_count(), 0u);
}

TEST_F(StoreTest, ResumeOnMissingFileStartsEmpty) {
  ResultStore store(path_, tiny_spec(), /*fresh=*/false);
  EXPECT_EQ(store.ok_count(), 0u);
}

TEST_F(StoreTest, LoadRejectsGarbageFile) {
  std::ofstream(path_) << "garbage\n";
  EXPECT_THROW(ResultStore::load(path_, tiny_spec()),
               std::invalid_argument);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST_F(StoreTest, ResumeTruncatesATornFinalRowAndRerunsItsCell) {
  // A campaign killed mid-append leaves a partial last line. Resume must
  // drop it (the cell never finished), cut the file back to the last
  // complete row, and append the re-run on a clean line.
  const CampaignSpec spec = tiny_spec();
  {
    ResultStore store(path_, spec, /*fresh=*/true);
    store.append(sample_result(0, true));
    store.append(sample_result(1, true));
  }
  const std::string whole = read_file(path_);
  const std::string intact = whole.substr(
      0, whole.size() - serialize_cell(sample_result(1, true)).size() - 1);
  std::filesystem::resize_file(path_, whole.size() - 40);

  EXPECT_EQ(ResultStore::load(path_, spec).size(), 1u);
  {
    ResultStore resumed(path_, spec, /*fresh=*/false);
    EXPECT_TRUE(resumed.has_ok(0));
    EXPECT_FALSE(resumed.has_ok(1));  // the torn cell runs again
    EXPECT_EQ(read_file(path_), intact);
    resumed.append(sample_result(1, true));
  }
  EXPECT_EQ(read_file(path_), whole);
}

TEST_F(StoreTest, ResumeKeepsACompleteFinalRowMissingItsNewline) {
  const CampaignSpec spec = tiny_spec();
  {
    ResultStore store(path_, spec, /*fresh=*/true);
    store.append(sample_result(0, true));
  }
  const std::string whole = read_file(path_);
  std::filesystem::resize_file(path_, whole.size() - 1);
  {
    ResultStore resumed(path_, spec, /*fresh=*/false);
    EXPECT_TRUE(resumed.has_ok(0));
    resumed.append(sample_result(1, true));
  }
  const auto results = ResultStore::load(path_, spec);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(read_file(path_),
            whole + serialize_cell(sample_result(1, true)) + "\n");
}

TEST_F(StoreTest, ResumeRefusesAMalformedInteriorRow) {
  const CampaignSpec spec = tiny_spec();
  {
    ResultStore store(path_, spec, /*fresh=*/true);
    store.append(sample_result(0, true));
  }
  std::string text = read_file(path_);
  text += "{\"type\":\"cell\",\"ind\n";  // torn, but newline-terminated
  text += serialize_cell(sample_result(1, true)) + "\n";
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << text;
  EXPECT_THROW(ResultStore(path_, spec, /*fresh=*/false),
               std::invalid_argument);
  EXPECT_THROW(ResultStore::load(path_, spec), std::invalid_argument);
  EXPECT_EQ(read_file(path_), text);  // a refused store is left untouched
}

}  // namespace
}  // namespace idseval::campaign
