// The C API boundary: correct results, correct error reporting, no leaks
// under the error paths (exercised under ASAN-less builds as plain logic).
#include "gsknn/capi.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "gsknn/common/metrics.hpp"
#include "gsknn/data/generators.hpp"
#include "test_util.hpp"

namespace {

using gsknn::PointTable;

struct CApiFixture : ::testing::Test {
  void SetUp() override {
    const PointTable t = gsknn::make_uniform(8, 100, 0xCAB1);
    coords.assign(t.data(), t.data() + 8 * 100);
    table = gsknn_table_create(8, 100, coords.data());
    ASSERT_NE(table, nullptr);
  }
  void TearDown() override { gsknn_table_destroy(table); }

  std::vector<double> coords;
  gsknn_table* table = nullptr;
};

TEST_F(CApiFixture, TableAccessors) {
  EXPECT_EQ(gsknn_table_dim(table), 8);
  EXPECT_EQ(gsknn_table_size(table), 100);
}

TEST_F(CApiFixture, SearchMatchesOracle) {
  std::vector<int> q(10), r(90);
  std::iota(q.begin(), q.end(), 0);
  std::iota(r.begin(), r.end(), 10);
  gsknn_result* res = gsknn_result_create(10, 5);
  ASSERT_NE(res, nullptr);
  ASSERT_EQ(gsknn_search(table, q.data(), 10, r.data(), 90, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, res),
            0);

  PointTable t(8, 100);
  std::copy(coords.begin(), coords.end(), t.data());
  t.compute_norms();
  const auto expect = gsknn::test::brute_force_knn(t, q, r, 5);

  std::vector<int> ids(5);
  std::vector<double> dists(5);
  for (int i = 0; i < 10; ++i) {
    const int count = gsknn_result_row(res, i, 5, ids.data(), dists.data());
    ASSERT_EQ(count, 5);
    for (int j = 0; j < count; ++j) {
      EXPECT_NEAR(dists[static_cast<std::size_t>(j)],
                  expect[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)].first, 1e-10);
    }
    // Rows come back ascending.
    for (int j = 1; j < count; ++j) {
      EXPECT_LE(dists[static_cast<std::size_t>(j - 1)],
                dists[static_cast<std::size_t>(j)]);
    }
  }
  gsknn_result_destroy(res);
}

TEST_F(CApiFixture, AllNormsRun) {
  std::vector<int> q(5), r(50);
  std::iota(q.begin(), q.end(), 0);
  std::iota(r.begin(), r.end(), 5);
  for (int norm : {GSKNN_NORM_L2SQ, GSKNN_NORM_L1, GSKNN_NORM_LINF,
                   GSKNN_NORM_LP, GSKNN_NORM_COSINE}) {
    gsknn_result* res = gsknn_result_create(5, 3);
    EXPECT_EQ(gsknn_search(table, q.data(), 5, r.data(), 50, norm,
                           GSKNN_VARIANT_AUTO, 3.0, 0, res),
              0)
        << "norm " << norm;
    gsknn_result_destroy(res);
  }
}

TEST_F(CApiFixture, ErrorsAreReported) {
  gsknn_result* res = gsknn_result_create(5, 3);
  // Null query pointer with nonzero count.
  EXPECT_EQ(gsknn_search(table, nullptr, 5, nullptr, 0, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, res),
            GSKNN_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(gsknn_last_error()).find("null"), std::string::npos);
  // Unknown norm code.
  std::vector<int> q(5);
  std::iota(q.begin(), q.end(), 0);
  EXPECT_EQ(gsknn_search(table, q.data(), 5, q.data(), 5, 99,
                         GSKNN_VARIANT_AUTO, 2.0, 0, res),
            GSKNN_ERR_BAD_CONFIG);
  gsknn_result_destroy(res);
}

TEST_F(CApiFixture, StatusCodesForMalformedCalls) {
  gsknn_result* res = gsknn_result_create(5, 3);
  std::vector<int> q(5);
  std::iota(q.begin(), q.end(), 0);

  // Null handles and negative counts.
  EXPECT_EQ(gsknn_search(nullptr, q.data(), 5, q.data(), 5, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, res),
            GSKNN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(gsknn_search(table, q.data(), 5, q.data(), 5, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, nullptr),
            GSKNN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(gsknn_search(table, q.data(), -3, q.data(), 5, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, res),
            GSKNN_ERR_INVALID_ARGUMENT);

  // Unknown variant codes, including the retired placements 2, 3 and 6.
  for (const int variant : {2, 3, 4, 6}) {
    EXPECT_EQ(gsknn_search(table, q.data(), 5, q.data(), 5, GSKNN_NORM_L2SQ,
                           variant, 2.0, 0, res),
              GSKNN_ERR_BAD_CONFIG)
        << "variant=" << variant;
  }

  // Out-of-range reference index (table has 100 points).
  std::vector<int> bad = {0, 1, 100};
  EXPECT_EQ(gsknn_search(table, q.data(), 5, bad.data(), 3, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, res),
            GSKNN_ERR_BAD_INDEX);
  EXPECT_NE(std::string(gsknn_last_error()).find("out of range"),
            std::string::npos);
  bad = {-7};
  EXPECT_EQ(gsknn_search(table, bad.data(), 1, q.data(), 5, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, res),
            GSKNN_ERR_BAD_INDEX);

  // Non-positive lp exponent.
  EXPECT_EQ(gsknn_search(table, q.data(), 5, q.data(), 5, GSKNN_NORM_LP,
                         GSKNN_VARIANT_AUTO, -1.0, 0, res),
            GSKNN_ERR_BAD_CONFIG);

  // Result table smaller than the query count.
  gsknn_result* small = gsknn_result_create(2, 3);
  EXPECT_EQ(gsknn_search(table, q.data(), 5, q.data(), 5, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, small),
            GSKNN_ERR_INVALID_ARGUMENT);
  gsknn_result_destroy(small);

  // A valid call after all those failures still succeeds.
  EXPECT_EQ(gsknn_search(table, q.data(), 5, q.data(), 5, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, res),
            GSKNN_OK);
  gsknn_result_destroy(res);
}

TEST_F(CApiFixture, PackedRefsRoundTrip) {
  std::vector<int> q(10), r(80);
  std::iota(q.begin(), q.end(), 0);
  std::iota(r.begin(), r.end(), 10);
  gsknn_packed_refs* refs = gsknn_packed_refs_create(
      table, r.data(), 80, GSKNN_NORM_L2SQ, /*budget_bytes=*/0, /*eager=*/0);
  ASSERT_NE(refs, nullptr);
  EXPECT_EQ(gsknn_packed_refs_epoch(refs), 0u);
  EXPECT_EQ(gsknn_packed_refs_size(refs), 80);

  // Warm results are bitwise-identical to gsknn_search over the same ids.
  gsknn_result* cold = gsknn_result_create(10, 5);
  gsknn_result* warm = gsknn_result_create(10, 5);
  ASSERT_EQ(gsknn_search(table, q.data(), 10, r.data(), 80, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, cold),
            0);
  ASSERT_EQ(gsknn_packed_search(refs, q.data(), 10, GSKNN_NORM_L2SQ,
                                GSKNN_VARIANT_AUTO, 2.0, 0, GSKNN_EPOCH_ANY,
                                warm),
            0);
  std::vector<int> ci(5), wi(5);
  std::vector<double> cd(5), wd(5);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(gsknn_result_row(cold, i, 5, ci.data(), cd.data()), 5);
    ASSERT_EQ(gsknn_result_row(warm, i, 5, wi.data(), wd.data()), 5);
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(ci[static_cast<std::size_t>(j)], wi[static_cast<std::size_t>(j)]);
      EXPECT_EQ(cd[static_cast<std::size_t>(j)], wd[static_cast<std::size_t>(j)]);
    }
  }

  // Repeat traffic packs nothing: bytes stay flat, hits grow.
  const uint64_t packed =
      gsknn_packed_refs_stat(refs, GSKNN_PACK_STAT_BYTES_PACKED);
  const uint64_t hits = gsknn_packed_refs_stat(refs, GSKNN_PACK_STAT_HITS);
  gsknn_result* again = gsknn_result_create(10, 5);
  ASSERT_EQ(gsknn_packed_search(refs, q.data(), 10, GSKNN_NORM_L2SQ,
                                GSKNN_VARIANT_AUTO, 2.0, 0, GSKNN_EPOCH_ANY,
                                again),
            0);
  EXPECT_EQ(gsknn_packed_refs_stat(refs, GSKNN_PACK_STAT_BYTES_PACKED),
            packed);
  EXPECT_GT(gsknn_packed_refs_stat(refs, GSKNN_PACK_STAT_HITS), hits);

  // Updates bump the epoch; a search pinned to the old epoch is rejected
  // with the result untouched.
  const uint64_t before = gsknn_packed_refs_epoch(refs);
  const int extra[] = {90, 91};
  ASSERT_EQ(gsknn_packed_refs_insert(refs, extra, 2), 0);
  EXPECT_EQ(gsknn_packed_refs_epoch(refs), before + 1);
  EXPECT_EQ(gsknn_packed_refs_size(refs), 82);
  gsknn_result* stale = gsknn_result_create(10, 5);
  EXPECT_EQ(gsknn_packed_search(refs, q.data(), 10, GSKNN_NORM_L2SQ,
                                GSKNN_VARIANT_AUTO, 2.0, 0, before, stale),
            GSKNN_ERR_STALE);
  EXPECT_EQ(gsknn_result_row(stale, 0, 5, wi.data(), wd.data()), 0);
  const int gone[] = {15};
  ASSERT_EQ(gsknn_packed_refs_erase(refs, gone, 1), 0);
  EXPECT_EQ(gsknn_packed_refs_size(refs), 81);
  const int absent[] = {15};
  EXPECT_EQ(gsknn_packed_refs_erase(refs, absent, 1), GSKNN_ERR_BAD_INDEX);

  // An l2sq-layout cache cannot serve linf queries.
  EXPECT_EQ(gsknn_packed_search(refs, q.data(), 10, GSKNN_NORM_LINF,
                                GSKNN_VARIANT_AUTO, 2.0, 0, GSKNN_EPOCH_ANY,
                                stale),
            GSKNN_ERR_UNSUPPORTED);

  gsknn_result_destroy(stale);
  gsknn_result_destroy(again);
  gsknn_result_destroy(warm);
  gsknn_result_destroy(cold);
  gsknn_packed_refs_destroy(refs);
}

TEST_F(CApiFixture, PackedRefsRejectsBadArgumentsAndNulls) {
  // NULL-safe accessors.
  EXPECT_EQ(gsknn_packed_refs_epoch(nullptr), 0u);
  EXPECT_EQ(gsknn_packed_refs_size(nullptr), -1);
  EXPECT_EQ(gsknn_packed_refs_stat(nullptr, GSKNN_PACK_STAT_HITS), 0u);
  gsknn_packed_refs_destroy(nullptr);  // no-op

  // Bad build arguments produce NULL + a message, never a handle.
  const int bad_id[] = {0, 1, 100};
  EXPECT_EQ(gsknn_packed_refs_create(table, bad_id, 3, GSKNN_NORM_L2SQ, 0, 0),
            nullptr);
  EXPECT_NE(std::string(gsknn_last_error()).size(), 0u);
  EXPECT_EQ(gsknn_packed_refs_create(nullptr, bad_id, 2, GSKNN_NORM_L2SQ, 0, 0),
            nullptr);
  EXPECT_EQ(gsknn_packed_refs_create(table, bad_id, 2, /*norm=*/99, 0, 0),
            nullptr);

  // Out-of-range stat index reads 0.
  const int ok_ids[] = {0, 1, 2};
  gsknn_packed_refs* refs =
      gsknn_packed_refs_create(table, ok_ids, 3, GSKNN_NORM_L2SQ, 0, 1);
  ASSERT_NE(refs, nullptr);
  EXPECT_EQ(gsknn_packed_refs_stat(refs, GSKNN_PACK_STAT_COUNT), 0u);
  EXPECT_EQ(gsknn_packed_refs_stat(refs, -1), 0u);
  // Update validation: out-of-range ids are rejected without an epoch bump.
  EXPECT_EQ(gsknn_packed_refs_insert(refs, bad_id, 3), GSKNN_ERR_BAD_INDEX);
  EXPECT_EQ(gsknn_packed_refs_epoch(refs), 0u);
  gsknn_packed_refs_destroy(refs);
}

TEST(CApi, StatusNamesAreStable) {
  EXPECT_STREQ(gsknn_status_name(GSKNN_OK), "ok");
  EXPECT_STREQ(gsknn_status_name(GSKNN_ERR_INVALID_ARGUMENT),
               "invalid_argument");
  EXPECT_STREQ(gsknn_status_name(GSKNN_ERR_BAD_INDEX), "bad_index");
  EXPECT_STREQ(gsknn_status_name(GSKNN_ERR_BAD_CONFIG), "bad_config");
  EXPECT_STREQ(gsknn_status_name(GSKNN_ERR_NONFINITE), "non_finite");
  EXPECT_STREQ(gsknn_status_name(GSKNN_ERR_UNSUPPORTED), "unsupported");
  EXPECT_STREQ(gsknn_status_name(GSKNN_ERR_INTERNAL), "internal");
  EXPECT_STREQ(gsknn_status_name(42), "unknown");
}

TEST_F(CApiFixture, ResultRowBoundsChecked) {
  gsknn_result* res = gsknn_result_create(4, 2);
  EXPECT_LT(gsknn_result_row(res, -1, 2, nullptr, nullptr), 0);
  EXPECT_LT(gsknn_result_row(res, 4, 2, nullptr, nullptr), 0);
  // Valid but empty row: zero entries.
  EXPECT_EQ(gsknn_result_row(res, 0, 2, nullptr, nullptr), 0);
  gsknn_result_destroy(res);
}

TEST_F(CApiFixture, ProfiledSearchFillsProfile) {
  std::vector<int> q(10), r(90);
  std::iota(q.begin(), q.end(), 0);
  std::iota(r.begin(), r.end(), 10);

  gsknn_profile* prof = gsknn_profile_create();
  ASSERT_NE(prof, nullptr);
  EXPECT_DOUBLE_EQ(gsknn_profile_wall_seconds(prof), 0.0);

  gsknn_result* res = gsknn_result_create(10, 5);
  ASSERT_EQ(gsknn_search_profiled(table, q.data(), 10, r.data(), 90,
                                  GSKNN_NORM_L2SQ, GSKNN_VARIANT_AUTO, 2.0, 1,
                                  res, prof),
            0);

  EXPECT_GT(gsknn_profile_wall_seconds(prof), 0.0);
  EXPECT_GT(gsknn_profile_phase_seconds(prof, GSKNN_PHASE_MICRO), 0.0);
  EXPECT_GT(gsknn_profile_gflops(prof), 0.0);
  double sum = 0.0;
  for (int p = 0; p < GSKNN_PHASE_COUNT; ++p) {
    const double s = gsknn_profile_phase_seconds(prof, p);
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_LE(sum, gsknn_profile_wall_seconds(prof) * 1.0001 + 1e-6);

  // The fused kernel counts whenever a profile is attached.
  EXPECT_EQ(gsknn_profile_counters_enabled(prof), 1);
  EXPECT_EQ(gsknn_profile_counter(prof, GSKNN_COUNTER_CANDIDATES), 900u);

  EXPECT_STREQ(gsknn_profile_phase_name(GSKNN_PHASE_PACK_Q), "pack_q");
  EXPECT_STREQ(gsknn_profile_phase_name(GSKNN_PHASE_SELECT), "select");
  EXPECT_EQ(gsknn_profile_phase_name(-1), nullptr);
  EXPECT_EQ(gsknn_profile_phase_name(GSKNN_PHASE_COUNT), nullptr);

  const std::string json = gsknn_profile_json(prof);
  EXPECT_NE(json.find("\"algorithm\":\"gsknn\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\":"), std::string::npos);

  gsknn_profile_reset(prof);
  EXPECT_DOUBLE_EQ(gsknn_profile_wall_seconds(prof), 0.0);

  // Null-handle accessors are safe.
  EXPECT_LT(gsknn_profile_wall_seconds(nullptr), 0.0);
  EXPECT_LT(gsknn_profile_phase_seconds(nullptr, 0), 0.0);
  EXPECT_EQ(gsknn_profile_counters_enabled(nullptr), 0);
  gsknn_profile_reset(nullptr);
  gsknn_profile_destroy(nullptr);

  gsknn_result_destroy(res);
  gsknn_profile_destroy(prof);
}

TEST(CApi, CreateRejectsBadArguments) {
  EXPECT_EQ(gsknn_table_create(0, 5, nullptr), nullptr);
  EXPECT_EQ(gsknn_table_create(3, 5, nullptr), nullptr);
  EXPECT_EQ(gsknn_result_create(-1, 3), nullptr);
  EXPECT_EQ(gsknn_result_create(3, 0), nullptr);
}

TEST(CApi, LoadMissingFileFails) {
  EXPECT_EQ(gsknn_table_load("/nonexistent/file.gsknn"), nullptr);
  EXPECT_NE(std::string(gsknn_last_error()).size(), 0u);
}

TEST(CApi, ArchSummaryIsStable) {
  const char* a = gsknn_arch_summary();
  const char* b = gsknn_arch_summary();
  EXPECT_EQ(a, b);  // static storage
  EXPECT_GT(std::string(a).size(), 0u);
}

TEST(CApi, GovernanceStatusNames) {
  EXPECT_STREQ(gsknn_status_name(GSKNN_ERR_RESOURCE_EXHAUSTED),
               "resource_exhausted");
  EXPECT_STREQ(gsknn_status_name(GSKNN_ERR_DEADLINE_EXCEEDED),
               "deadline_exceeded");
  EXPECT_STREQ(gsknn_status_name(GSKNN_ERR_CANCELLED), "cancelled");
}

TEST(CApi, CancelTokenLifecycle) {
  gsknn_cancel_token* tok = gsknn_cancel_token_create();
  ASSERT_NE(tok, nullptr);
  EXPECT_EQ(gsknn_cancel_token_cancelled(tok), 0);
  gsknn_cancel_token_cancel(tok);
  EXPECT_EQ(gsknn_cancel_token_cancelled(tok), 1);
  gsknn_cancel_token_reset(tok);
  EXPECT_EQ(gsknn_cancel_token_cancelled(tok), 0);
  // NULL-safe like the other handles.
  gsknn_cancel_token_cancel(nullptr);
  EXPECT_EQ(gsknn_cancel_token_cancelled(nullptr), 0);
  gsknn_cancel_token_reset(nullptr);
  gsknn_cancel_token_destroy(nullptr);
  gsknn_cancel_token_destroy(tok);
}

TEST_F(CApiFixture, GovernedSearchHonorsCancelToken) {
  std::vector<int> q(10), r(90);
  std::iota(q.begin(), q.end(), 0);
  std::iota(r.begin(), r.end(), 10);
  gsknn_result* res = gsknn_result_create(10, 5);
  gsknn_cancel_token* tok = gsknn_cancel_token_create();
  ASSERT_NE(res, nullptr);
  ASSERT_NE(tok, nullptr);
  gsknn_cancel_token_cancel(tok);
  EXPECT_EQ(gsknn_search_deadline_ms(table, q.data(), 10, r.data(), 90,
                                     GSKNN_NORM_L2SQ, GSKNN_VARIANT_AUTO, 2.0,
                                     0, 0, tok, 0, res),
            GSKNN_ERR_CANCELLED);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(gsknn_result_row_complete(res, i), 0) << "row " << i;
  }
  gsknn_cancel_token_reset(tok);
  EXPECT_EQ(gsknn_search_deadline_ms(table, q.data(), 10, r.data(), 90,
                                     GSKNN_NORM_L2SQ, GSKNN_VARIANT_AUTO, 2.0,
                                     0, 0, tok, 0, res),
            GSKNN_OK);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(gsknn_result_row_complete(res, i), 1) << "row " << i;
  }
  EXPECT_EQ(gsknn_result_row_complete(res, 10), -1);
  EXPECT_EQ(gsknn_result_row_complete(nullptr, 0), -1);
  gsknn_cancel_token_destroy(tok);
  gsknn_result_destroy(res);
}

TEST_F(CApiFixture, MetricsSnapshotRoundTrip) {
  ASSERT_EQ(gsknn_metrics_enabled(), 1);
  gsknn_metrics_reset();

  std::vector<int> q(10), r(90);
  std::iota(q.begin(), q.end(), 0);
  std::iota(r.begin(), r.end(), 10);
  gsknn_result* res = gsknn_result_create(10, 5);
  ASSERT_NE(res, nullptr);
  ASSERT_EQ(gsknn_search(table, q.data(), 10, r.data(), 90, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, res),
            GSKNN_OK);
  // One failing call too, so the status grid has a non-ok cell.
  std::vector<int> bad = {0, 1, 100};
  ASSERT_EQ(gsknn_search(table, q.data(), 10, bad.data(), 3, GSKNN_NORM_L2SQ,
                         GSKNN_VARIANT_AUTO, 2.0, 0, res),
            GSKNN_ERR_BAD_INDEX);
  gsknn_result_destroy(res);

  gsknn_metrics* m = gsknn_metrics_snapshot();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(gsknn_metrics_calls(m, GSKNN_METRIC_EP_KERNEL_F64, GSKNN_OK), 1u);
  EXPECT_EQ(
      gsknn_metrics_calls(m, GSKNN_METRIC_EP_KERNEL_F64, GSKNN_ERR_BAD_INDEX),
      1u);
  EXPECT_EQ(gsknn_metrics_calls_total(m, GSKNN_METRIC_EP_KERNEL_F64), 2u);
  EXPECT_EQ(gsknn_metrics_calls_total(m, GSKNN_METRIC_EP_LSH), 0u);
  EXPECT_GT(gsknn_metrics_latency_quantile_ns(m, GSKNN_METRIC_EP_KERNEL_F64,
                                              0.5),
            0u);
  // The successful f64 kernel call graded the performance model.
  EXPECT_GE(gsknn_metrics_drift_count(m, 0), 1u);
  EXPECT_EQ(gsknn_metrics_drift_count(m, 1), 0u);

  const char* json = gsknn_metrics_json(m);
  ASSERT_NE(json, nullptr);
  EXPECT_NE(std::string(json).find("\"metrics_version\":1"),
            std::string::npos);
  const char* prom = gsknn_metrics_prometheus(m);
  ASSERT_NE(prom, nullptr);
  EXPECT_NE(std::string(prom).find("# TYPE gsknn_calls_total counter"),
            std::string::npos);
  gsknn_metrics_destroy(m);

  // A snapshot taken after reset is all zeros again.
  gsknn_metrics_reset();
  gsknn_metrics* z = gsknn_metrics_snapshot();
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(gsknn_metrics_calls_total(z, GSKNN_METRIC_EP_KERNEL_F64), 0u);
  gsknn_metrics_destroy(z);
}

TEST(CApi, MetricsHandlesAreNullSafeAndBoundsChecked) {
  gsknn_metrics_reset();
  gsknn_metrics* m = gsknn_metrics_snapshot();
  ASSERT_NE(m, nullptr);
  // Out-of-range axes read as 0, never as a misfiled cell.
  EXPECT_EQ(gsknn_metrics_calls(m, -1, GSKNN_OK), 0u);
  EXPECT_EQ(gsknn_metrics_calls(m, GSKNN_METRIC_EP_COUNT, GSKNN_OK), 0u);
  EXPECT_EQ(gsknn_metrics_calls(m, GSKNN_METRIC_EP_BATCH, 42), 0u);
  EXPECT_EQ(gsknn_metrics_calls_total(m, 99), 0u);
  EXPECT_EQ(gsknn_metrics_counter(m, -1), 0u);
  EXPECT_EQ(gsknn_metrics_counter(m, GSKNN_METRIC_CTR_COUNT), 0u);
  EXPECT_EQ(gsknn_metrics_drift_count(m, 2), 0u);
  gsknn_metrics_destroy(m);

  // NULL handles are inert, like every other handle in this API.
  EXPECT_EQ(gsknn_metrics_calls(nullptr, 0, 0), 0u);
  EXPECT_EQ(gsknn_metrics_calls_total(nullptr, 0), 0u);
  EXPECT_EQ(gsknn_metrics_latency_quantile_ns(nullptr, 0, 0.5), 0u);
  EXPECT_EQ(gsknn_metrics_counter(nullptr, 0), 0u);
  EXPECT_EQ(gsknn_metrics_drift_count(nullptr, 0), 0u);
  // The text exports never return NULL; a missing handle yields an empty
  // document instead.
  EXPECT_STREQ(gsknn_metrics_json(nullptr), "{}");
  EXPECT_STREQ(gsknn_metrics_prometheus(nullptr), "");
  gsknn_metrics_destroy(nullptr);
}

TEST(CApi, ServingAxesReadByName) {
  // The serving cells have C names, and every C code reads the cell its
  // C++ enumerator names.
  namespace metrics = gsknn::metrics;
  ASSERT_EQ(gsknn_metrics_enabled(), 1);
  gsknn_metrics_reset();
  metrics::add_counter(metrics::Counter::kServeEnqueued, 3);
  metrics::record_call(metrics::EntryPoint::kServeInteractive, 0, 1000, 1, 40,
                       8, 4);
  metrics::record_call(metrics::EntryPoint::kServeInteractive, 0, 2000, 1, 40,
                       8, 4);
  const metrics::MetricsSnapshot snap = metrics::snapshot();
  gsknn_metrics* m = gsknn_metrics_snapshot();
  ASSERT_NE(m, nullptr);

  EXPECT_EQ(gsknn_metrics_counter(m, GSKNN_METRIC_CTR_SERVE_ENQUEUED), 3u);
  EXPECT_EQ(gsknn_metrics_counter(m, GSKNN_METRIC_CTR_SERVE_ENQUEUED),
            snap.counters[static_cast<int>(metrics::Counter::kServeEnqueued)]);
  EXPECT_EQ(gsknn_metrics_calls(m, GSKNN_METRIC_EP_SERVE_INTERACTIVE, GSKNN_OK),
            2u);
  EXPECT_EQ(gsknn_metrics_calls_total(m, GSKNN_METRIC_EP_SERVE_INTERACTIVE),
            snap.calls_total(metrics::EntryPoint::kServeInteractive));
  EXPECT_EQ(gsknn_metrics_calls_total(m, GSKNN_METRIC_EP_SERVE_BULK), 0u);

  ASSERT_EQ(GSKNN_METRIC_CTR_COUNT, metrics::kCounterCount);
  ASSERT_EQ(GSKNN_METRIC_EP_COUNT, metrics::kEntryPointCount);
  for (int c = 0; c < GSKNN_METRIC_CTR_COUNT; ++c) {
    EXPECT_EQ(gsknn_metrics_counter(m, c), snap.counters[c]) << "counter " << c;
  }
  for (int ep = 0; ep < GSKNN_METRIC_EP_COUNT; ++ep) {
    EXPECT_EQ(gsknn_metrics_calls_total(m, ep),
              snap.calls_total(static_cast<metrics::EntryPoint>(ep)))
        << "entry point " << ep;
  }
  gsknn_metrics_destroy(m);
  gsknn_metrics_reset();
}

TEST(CApi, MetricsEnableToggle) {
  ASSERT_EQ(gsknn_metrics_enabled(), 1);
  gsknn_metrics_enable(0);
  EXPECT_EQ(gsknn_metrics_enabled(), 0);
  gsknn_metrics_reset();
  gsknn_metrics* m = gsknn_metrics_snapshot();
  ASSERT_NE(m, nullptr);
  // The disarmed flag is part of the snapshot (exported as
  // gsknn_metrics_enabled 0 in the Prometheus text).
  EXPECT_NE(std::string(gsknn_metrics_prometheus(m))
                .find("gsknn_metrics_enabled 0"),
            std::string::npos);
  gsknn_metrics_destroy(m);
  gsknn_metrics_enable(1);
  EXPECT_EQ(gsknn_metrics_enabled(), 1);
}

TEST_F(CApiFixture, GovernedSearchDeadlineAndCap) {
  std::vector<int> q(10), r(90);
  std::iota(q.begin(), q.end(), 0);
  std::iota(r.begin(), r.end(), 10);
  gsknn_result* res = gsknn_result_create(10, 5);
  ASSERT_NE(res, nullptr);
  // A generous deadline, no token, no cap: behaves like gsknn_search.
  EXPECT_EQ(gsknn_search_deadline_ms(table, q.data(), 10, r.data(), 90,
                                     GSKNN_NORM_L2SQ, GSKNN_VARIANT_AUTO, 2.0,
                                     0, 60'000, nullptr, 0, res),
            GSKNN_OK);
  // An unreachable workspace cap: clean failure, rows untouched.
  gsknn_result* res2 = gsknn_result_create(10, 5);
  ASSERT_NE(res2, nullptr);
  EXPECT_EQ(gsknn_search_deadline_ms(table, q.data(), 10, r.data(), 90,
                                     GSKNN_NORM_L2SQ, GSKNN_VARIANT_AUTO, 2.0,
                                     0, 0, nullptr, 16, res2),
            GSKNN_ERR_RESOURCE_EXHAUSTED);
  EXPECT_EQ(gsknn_result_row(res2, 0, 5, nullptr, nullptr), 0);
  gsknn_result_destroy(res2);
  gsknn_result_destroy(res);
}

}  // namespace
