// The one status boundary (gsknn/core/entry_metrics.hpp) and the one
// Status -> name table (gsknn/common/status.hpp), tested directly rather than
// through an entry point: run_entry() maps StatusError to its status,
// std::bad_alloc to kResourceExhausted and any other exception to kInternal;
// a non-kOk status the body returns passes through with a text naming the
// entry; throw_if_error() raises the kept text; each sink (metrics registry,
// flight recorder) records only when it is armed itself; and every Status
// has its own name.
#include "gsknn/core/entry_metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/common/status.hpp"

namespace gsknn {
namespace {

namespace fr = gsknn::flightrec;
namespace m = gsknn::metrics;

constexpr m::EntryPoint kEp = m::EntryPoint::kKernelF64;

/// Both sinks armed and empty; the non-OK trigger is masked off so a
/// mapped failure never writes a dump. Everything is restored afterwards.
class EntryBracket : public ::testing::Test {
 protected:
  void SetUp() override {
    met_was_ = m::enabled();
    rec_was_ = fr::enabled();
    mask_was_ = fr::trigger_mask();
    fr::set_trigger_mask(0);
    m::set_enabled(true);
    m::reset();
    fr::set_enabled(true);
    fr::clear();
  }
  void TearDown() override {
    fr::clear();
    fr::set_enabled(rec_was_);
    fr::set_trigger_mask(mask_was_);
    m::reset();
    m::set_enabled(met_was_);
  }

  /// The call_end events the flight recorder holds, oldest first.
  static std::vector<fr::Event> call_ends() {
    std::vector<fr::Event> out;
    for (const fr::Event& ev : fr::drain()) {
      if (ev.kind == fr::Kind::kCallEnd) out.push_back(ev);
    }
    return out;
  }

  bool met_was_ = false;
  bool rec_was_ = false;
  std::uint32_t mask_was_ = 0;
};

TEST_F(EntryBracket, StatusErrorMapsToItsStatusAndKeepsItsText) {
  const Status s = core::run_entry(kEp, 4, 5, 6, 2, []() -> Status {
    throw StatusError(Status::kBadIndex, "gsknn: qidx[3] out of range");
  });
  EXPECT_EQ(s, Status::kBadIndex);
  EXPECT_STREQ(core::entry_error(), "gsknn: qidx[3] out of range");
  const std::vector<fr::Event> ends = call_ends();
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].status, static_cast<int>(Status::kBadIndex));
  EXPECT_EQ(m::snapshot().calls[static_cast<int>(kEp)]
                               [static_cast<int>(Status::kBadIndex)],
            1u);
}

TEST_F(EntryBracket, BadAllocMapsToResourceExhausted) {
  const Status s = core::run_entry(kEp, 1, 1, 1, 1, []() -> Status {
    throw std::bad_alloc();
  });
  EXPECT_EQ(s, Status::kResourceExhausted);
  EXPECT_NE(std::string(core::entry_error()).find("kernel_f64"),
            std::string::npos)
      << core::entry_error();
  const std::vector<fr::Event> ends = call_ends();
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].status, static_cast<int>(Status::kResourceExhausted));
}

TEST_F(EntryBracket, OtherExceptionsMapToInternal) {
  EXPECT_EQ(core::run_entry(kEp, 1, 1, 1, 1,
                            []() -> Status {
                              throw std::runtime_error("boom");
                            }),
            Status::kInternal);
  EXPECT_NE(std::string(core::entry_error()).find("boom"), std::string::npos)
      << core::entry_error();
  // A throw of something that is not a std::exception is caught too.
  EXPECT_EQ(core::run_entry(kEp, 1, 1, 1, 1,
                            []() -> Status { throw 42; }),
            Status::kInternal);
  EXPECT_NE(std::string(core::entry_error()).find("unknown exception"),
            std::string::npos)
      << core::entry_error();
  EXPECT_EQ(m::snapshot().calls[static_cast<int>(kEp)]
                               [static_cast<int>(Status::kInternal)],
            2u);
}

TEST_F(EntryBracket, ReturnedStatusPassesThroughAndNamesTheEntry) {
  EXPECT_EQ(core::run_entry(kEp, 1, 1, 1, 1,
                            []() { return Status::kCancelled; }),
            Status::kCancelled);
  EXPECT_STREQ(core::entry_error(), "gsknn: kernel_f64 stopped: cancelled");
  // throw_if_error() raises exactly that status and text.
  try {
    core::throw_if_error(Status::kCancelled);
    FAIL() << "throw_if_error(kCancelled) returned";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kCancelled);
    EXPECT_STREQ(e.what(), "gsknn: kernel_f64 stopped: cancelled");
  }
  EXPECT_NO_THROW(core::throw_if_error(Status::kOk));
}

TEST_F(EntryBracket, EachSinkRecordsOnlyWhenArmed) {
  const auto ok = []() { return Status::kOk; };
  core::EntryTiming timing;

  // Metrics alone: one sample, no flight-recorder event, timing filled.
  fr::set_enabled(false);
  EXPECT_EQ(core::run_entry(kEp, 8, 9, 3, 2, ok, &timing), Status::kOk);
  EXPECT_EQ(m::snapshot().calls_total(kEp), 1u);
  EXPECT_GT(timing.end_ns, 0u);
  fr::set_enabled(true);
  EXPECT_TRUE(fr::drain().empty());

  // Flight recorder alone: one begin/end pair with the shape, no sample.
  m::set_enabled(false);
  EXPECT_EQ(core::run_entry(kEp, 8, 9, 3, 2, ok), Status::kOk);
  m::set_enabled(true);
  EXPECT_EQ(m::snapshot().calls_total(kEp), 1u);
  const std::vector<fr::Event> events = fr::drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, fr::Kind::kCallBegin);
  EXPECT_EQ(events[1].kind, fr::Kind::kCallEnd);
  for (const fr::Event& ev : events) {
    EXPECT_EQ(ev.entry, static_cast<int>(kEp));
    EXPECT_EQ(ev.m, 8u);
    EXPECT_EQ(ev.n, 9u);
    EXPECT_EQ(ev.d, 3u);
    EXPECT_EQ(ev.k, 2u);
  }
  EXPECT_EQ(events[1].status, static_cast<int>(Status::kOk));

  // Both disarmed: nothing recorded and no clock read, so timing stays zero.
  fr::clear();
  m::set_enabled(false);
  fr::set_enabled(false);
  timing = core::EntryTiming{};
  EXPECT_EQ(core::run_entry(kEp, 8, 9, 3, 2, ok, &timing), Status::kOk);
  EXPECT_EQ(timing.end_ns, 0u);
  EXPECT_EQ(timing.elapsed_ns, 0u);
  m::set_enabled(true);
  fr::set_enabled(true);
  EXPECT_EQ(m::snapshot().calls_total(kEp), 1u);
  EXPECT_TRUE(fr::drain().empty());
}

TEST(StatusTable, EveryStatusHasItsOwnName) {
  std::set<std::string> names;
  for (int s = 0; s < kStatusCount; ++s) {
    const std::string name = status_name(static_cast<Status>(s));
    EXPECT_NE(name, "unknown") << "status " << s;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_STREQ(status_name(Status::kOk), "ok");
  EXPECT_STREQ(status_name(Status::kStale), "stale");
  EXPECT_STREQ(status_name(static_cast<Status>(-1)), "unknown");
  EXPECT_STREQ(status_name(static_cast<Status>(kStatusCount)), "unknown");
}

}  // namespace
}  // namespace gsknn
