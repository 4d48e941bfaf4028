// Pins the bytes Database and StalenessTracker allocate per view object
// at construction: the state that sets how large a view the simulator
// can hold (uf_wide holds 1M + 1M objects). A counting global operator
// new tallies every allocation made while a constructor runs.

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/staleness.h"
#include "sim/simulator.h"

namespace {

bool counting = false;
std::size_t allocated_bytes = 0;

}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression it has seen.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (counting) allocated_bytes += size;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace strip::db {
namespace {

constexpr int kPerClass = 1'000'000;
constexpr std::size_t kObjects = 2 * kPerClass;
// Fixed-size bookkeeping allowed beside the per-object bytes.
constexpr std::size_t kConstantBytes = 4096;

// Bytes allocated while `build` runs. What it builds is destroyed only
// after counting stops.
template <typename Build>
std::size_t AllocatedBy(Build build) {
  allocated_bytes = 0;
  counting = true;
  const auto built = build();
  counting = false;
  return allocated_bytes;
}

std::string PerObject(std::size_t bytes) {
  return std::to_string(static_cast<double>(bytes) / kObjects) +
         " B per object";
}

TEST(FootprintTest, DatabaseHoldsSixteenBytesPerObject) {
  const std::size_t bytes = AllocatedBy(
      [] { return std::make_unique<Database>(kPerClass, kPerClass); });
  EXPECT_LE(bytes, 16 * kObjects + kConstantBytes) << PerObject(bytes);
}

TEST(FootprintTest, AttributesAddEightBytesEach) {
  const std::size_t bytes = AllocatedBy(
      [] { return std::make_unique<Database>(kPerClass, kPerClass, 3); });
  EXPECT_LE(bytes, (16 + 8 * 3) * kObjects + kConstantBytes)
      << PerObject(bytes);
}

class TrackerFootprintTest
    : public ::testing::TestWithParam<StalenessCriterion> {};

// 24 B of state and one stale bit per object. Nothing per object in
// the expiry index (the initial wave is implicit) or in the queued
// side table (no update has been queued).
TEST_P(TrackerFootprintTest, TwentyFourBytesAndOneBitPerObject) {
  sim::Simulator sim;
  const std::size_t bytes = AllocatedBy([&] {
    return std::make_unique<StalenessTracker>(&sim, GetParam(), 7.0,
                                              kPerClass, kPerClass);
  });
  EXPECT_LE(bytes, 24 * kObjects + kObjects / 8 + kConstantBytes)
      << PerObject(bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllCriteria, TrackerFootprintTest,
    ::testing::Values(StalenessCriterion::kMaxAge,
                      StalenessCriterion::kUnappliedUpdate,
                      StalenessCriterion::kCombined,
                      StalenessCriterion::kMaxAgeArrival),
    [](const ::testing::TestParamInfo<StalenessCriterion>& param_info) {
      switch (param_info.param) {
        case StalenessCriterion::kMaxAge:
          return std::string("MA");
        case StalenessCriterion::kUnappliedUpdate:
          return std::string("UU");
        case StalenessCriterion::kCombined:
          return std::string("MA_UU");
        case StalenessCriterion::kMaxAgeArrival:
          return std::string("MA_arrival");
      }
      return std::string("unknown");
    });

}  // namespace
}  // namespace strip::db
