// Tests for database save/load.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>

#include "compiler/executor.h"
#include "store/export.h"
#include "store/persistence.h"
#include "store/update.h"
#include "store/verify.h"
#include "xml/parser.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(PersistenceTest, RoundTripPreservesDocument) {
  DatabaseOptions options;
  options.page_size = 1024;
  options.buffer_pages = 128;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.005;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(896);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());

  auto original = ExportDocument(&db, *doc);
  ASSERT_TRUE(original.ok());

  const std::string path = TempPath("roundtrip.nvph");
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());

  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->doc.core_records, doc->core_records);
  EXPECT_EQ(loaded->doc.attribute_records, doc->attribute_records);
  EXPECT_EQ(loaded->doc.border_pairs, doc->border_pairs);

  // fsck + byte-identical export from the reloaded database.
  auto report = VerifyStore(loaded->db.get(), loaded->doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto reloaded = ExportDocument(loaded->db.get(), loaded->doc);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*reloaded, *original);

  // Queries behave identically on the reloaded database.
  auto query = ParseQuery("count(/site/regions//item/@id)",
                          loaded->db->tags());
  ASSERT_TRUE(query.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  auto before = ExecuteQuery(&db, *doc, *query, exec);
  auto after = ExecuteQuery(loaded->db.get(), loaded->doc, *query, exec);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->count, after->count);
  EXPECT_EQ(before->metrics.disk_reads, after->metrics.disk_reads);
  // Timing matches up to the initial head position (the fresh database's
  // head starts parked; the original's sits wherever import left it).
  EXPECT_NEAR(static_cast<double>(before->total_time),
              static_cast<double>(after->total_time), 20e6 /* 20ms */);

  std::remove(path.c_str());
}

TEST(PersistenceTest, SurvivesUpdatesBeforeSave) {
  DatabaseOptions options;
  options.page_size = 512;
  Database db(options);
  auto tree = ParseXml("<r><a/><b/></r>", db.tags());
  ASSERT_TRUE(tree.ok());
  SubtreeClusteringPolicy policy(448);
  ImportedDocument doc = *db.Import(*tree, &policy);
  DocumentUpdater updater(&db, &doc);
  auto inserted = updater.InsertElement(doc.root, kInvalidNodeID,
                                        db.tags()->Intern("n"), "x",
                                        {{db.tags()->Intern("k"), "v"}});
  ASSERT_TRUE(inserted.ok());

  const std::string path = TempPath("updated.nvph");
  ASSERT_TRUE(SaveDatabase(&db, doc, path).ok());
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok());
  auto exported = ExportDocument(loaded->db.get(), loaded->doc);
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(*exported, "<r><n k=\"v\">x</n><a/><b/></r>");
  std::remove(path.c_str());
}

TEST(PersistenceTest, RoundTripPreservesSummary) {
  DatabaseOptions options;
  options.page_size = 1024;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.005;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(896);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(db.summary(), nullptr);
  std::string original_bytes;
  db.summary()->Encode(&original_bytes);

  const std::string path = TempPath("summary_roundtrip.nvph");
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->summary_status.ok())
      << loaded->summary_status.ToString();
  ASSERT_NE(loaded->db->summary(), nullptr);
  std::string reloaded_bytes;
  loaded->db->summary()->Encode(&reloaded_bytes);
  EXPECT_EQ(reloaded_bytes, original_bytes);

  // The reloaded synopsis answers count queries without navigating.
  auto query = ParseQuery("count(/site/regions//item)", loaded->db->tags());
  ASSERT_TRUE(query.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  auto result = ExecuteQuery(loaded->db.get(), loaded->doc, *query, exec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, OracleCount(tree, *query, tree.root()));
  EXPECT_EQ(result->metrics.clusters_visited, 0u);
  EXPECT_EQ(result->metrics.disk_reads, 0u);
  std::remove(path.c_str());
}

TEST(PersistenceTest, CorruptSummaryBlockDegradesToSummaryFreeLoad) {
  DatabaseOptions options;
  options.page_size = 1024;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.005;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(896);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  auto original = ExportDocument(&db, *doc);
  ASSERT_TRUE(original.ok());

  const std::string path = TempPath("summary_corrupt.nvph");
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());

  // Flip one byte inside the summary block. The block's bytes are the
  // summary's own encoding, so locate them by searching the file.
  std::string encoded;
  db.summary()->Encode(&encoded);
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string file;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      file.append(buf, got);
    }
    std::fclose(f);
    const std::size_t at = file.find(encoded);
    ASSERT_NE(at, std::string::npos);
    f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(at + encoded.size() / 2),
                         SEEK_SET),
              0);
    std::fputc(file[at + encoded.size() / 2] ^ 0x40, f);
    std::fclose(f);
  }

  // The summary is derived data: the load succeeds, records the damage,
  // and the database works — navigationally — without a synopsis.
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->summary_status.ok());
  EXPECT_EQ(loaded->db->summary(), nullptr);
  auto exported = ExportDocument(loaded->db.get(), loaded->doc);
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(*exported, *original);
  auto query = ParseQuery("count(/site/regions//item)", loaded->db->tags());
  ASSERT_TRUE(query.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  auto result = ExecuteQuery(loaded->db.get(), loaded->doc, *query, exec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, OracleCount(tree, *query, tree.root()));
  EXPECT_GT(result->metrics.clusters_visited, 0u);
  std::remove(path.c_str());
}

TEST(PersistenceTest, SummaryLengthBeyondFileIsRejectedBeforeAllocating) {
  DatabaseOptions options;
  options.page_size = 1024;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.005;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(896);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  const std::string path = TempPath("summary_length.nvph");
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());

  // The u64 block length sits right before the summary's own encoding.
  // Set it to 1 GiB: far more than the file holds, and under the format's
  // 2 GiB cap, so only the bytes-left bound can reject it.
  std::string encoded;
  db.summary()->Encode(&encoded);
  std::string file;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      file.append(buf, got);
    }
    std::fclose(f);
  }
  const std::size_t at = file.find(encoded);
  ASSERT_NE(at, std::string::npos);
  ASSERT_GE(at, sizeof(std::uint64_t));
  const std::uint64_t huge = 1ull << 30;
  std::memcpy(&file[at - sizeof(huge)], &huge, sizeof(huge));
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
    std::fclose(f);
  }

  auto loaded = LoadDatabase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().ToString().find("summary block length"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(PersistenceTest, HostileHeaderSizesAreRejectedBeforeAllocating) {
  DatabaseOptions options;
  options.page_size = 512;
  Database db(options);
  auto tree = ParseXml("<r><a/></r>", db.tags());
  ASSERT_TRUE(tree.ok());
  SubtreeClusteringPolicy policy(448);
  auto doc = db.Import(*tree, &policy);
  ASSERT_TRUE(doc.ok());
  const std::string path = TempPath("hostile_header.nvph");

  // Header: magic, version, page_size, page_count (u32 each).
  constexpr long kPageSizeAt = 8;
  auto load_with = [&](std::uint32_t page_size, std::uint32_t page_count) {
    EXPECT_TRUE(SaveDatabase(&db, *doc, path).ok());
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    EXPECT_NE(f, nullptr);
    std::fseek(f, kPageSizeAt, SEEK_SET);
    std::fwrite(&page_size, sizeof(page_size), 1, f);
    std::fwrite(&page_count, sizeof(page_count), 1, f);
    std::fclose(f);
    return LoadDatabase(path);
  };

  const std::uint32_t kMax = 0xFFFFFFFFu;
  auto both_max = load_with(kMax, kMax);
  ASSERT_FALSE(both_max.ok());
  EXPECT_TRUE(both_max.status().IsCorruption());
  EXPECT_NE(both_max.status().ToString().find("page size"),
            std::string::npos)
      << both_max.status().ToString();

  for (const std::uint32_t page_size : {0u, 63u, 65536u}) {
    auto bad_size = load_with(page_size, 1);
    ASSERT_FALSE(bad_size.ok()) << page_size;
    EXPECT_TRUE(bad_size.status().IsCorruption()) << page_size;
  }

  // A valid page size with a page count the file cannot hold.
  auto bad_count = load_with(512, kMax);
  ASSERT_FALSE(bad_count.ok());
  EXPECT_TRUE(bad_count.status().IsCorruption());
  EXPECT_NE(bad_count.status().ToString().find("page count"),
            std::string::npos)
      << bad_count.status().ToString();

  // The untouched header still loads.
  EXPECT_TRUE(load_with(512, db.disk()->num_pages()).ok());
  std::remove(path.c_str());
}

TEST(PersistenceTest, RejectsGarbageFiles) {
  const std::string path = TempPath("garbage.nvph");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a database", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadDatabase(path).ok());
  EXPECT_FALSE(LoadDatabase(TempPath("missing.nvph")).ok());
  std::remove(path.c_str());
}

TEST(PersistenceTest, TruncatedFileDetected) {
  DatabaseOptions options;
  options.page_size = 512;
  Database db(options);
  auto tree = ParseXml("<r><a/></r>", db.tags());
  ASSERT_TRUE(tree.ok());
  SubtreeClusteringPolicy policy(448);
  auto doc = db.Import(*tree, &policy);
  ASSERT_TRUE(doc.ok());
  const std::string path = TempPath("truncated.nvph");
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());
  // Chop off the page data.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size - 600), 0);
  }
  EXPECT_FALSE(LoadDatabase(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace navpath
