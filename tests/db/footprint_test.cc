// Pins the bytes Database and StalenessTracker allocate per view object
// at construction: the state that sets how large a view the simulator
// can hold (uf_wide holds 1M + 1M objects). Counting global operator
// new overloads, plain and aligned, tally every allocation made while
// a constructor runs: the per-object arrays come from the aligned one
// once they reach 2 MiB (base/huge_pages.h).

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

[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t al) {
  if (counting) allocated_bytes += size;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), size == 0 ? 1 : size) !=
      0) {
    throw std::bad_alloc();
  }
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
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

// Expects at least `per_object` bytes for every object and at most
// `slack` more. The lower bound shows that the counting overloads see
// the per-object arrays: bytes they missed would pass any upper bound.
void ExpectPerObject(std::size_t bytes, std::size_t per_object,
                     std::size_t slack) {
  EXPECT_GE(bytes, per_object * kObjects) << PerObject(bytes);
  EXPECT_LE(bytes, per_object * kObjects + slack) << PerObject(bytes);
}

TEST(FootprintTest, DatabaseHoldsSixteenBytesPerObject) {
  const std::size_t bytes = AllocatedBy(
      [] { return std::make_unique<Database>(kPerClass, kPerClass); });
  ExpectPerObject(bytes, 16, kConstantBytes);
}

TEST(FootprintTest, AttributesAddEightBytesEach) {
  const std::size_t bytes = AllocatedBy(
      [] { return std::make_unique<Database>(kPerClass, kPerClass, 3); });
  ExpectPerObject(bytes, 16 + 8 * 3, kConstantBytes);
}

// Bytes a 1M + 1M tracker allocates at construction.
std::size_t TrackerBytes(StalenessCriterion criterion) {
  sim::Simulator sim;
  return AllocatedBy([&] {
    return std::make_unique<StalenessTracker>(&sim, criterion, 7.0,
                                              kPerClass, kPerClass);
  });
}

std::string CriterionName(
    const ::testing::TestParamInfo<StalenessCriterion>& param_info) {
  switch (param_info.param) {
    case StalenessCriterion::kMaxAge:
      return "MA";
    case StalenessCriterion::kUnappliedUpdate:
      return "UU";
    case StalenessCriterion::kCombined:
      return "MA_UU";
    case StalenessCriterion::kMaxAgeArrival:
      return "MA_arrival";
  }
  return "unknown";
}

class TrackerFootprintTest
    : public ::testing::TestWithParam<StalenessCriterion> {};

// At most 24 B and one stale bit per object under every criterion: the
// 16 B state, plus the 8 B arrival time under MA-arrival. Nothing per
// object in the expiry index (the initial wave is implicit) or in the
// queued side table (no update has been queued).
TEST_P(TrackerFootprintTest, TwentyFourBytesAndOneBitPerObject) {
  const std::size_t bytes = TrackerBytes(GetParam());
  EXPECT_GE(bytes, 16 * kObjects) << PerObject(bytes);
  EXPECT_LE(bytes, 24 * kObjects + kObjects / 8 + kConstantBytes)
      << PerObject(bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllCriteria, TrackerFootprintTest,
    ::testing::Values(StalenessCriterion::kMaxAge,
                      StalenessCriterion::kUnappliedUpdate,
                      StalenessCriterion::kCombined,
                      StalenessCriterion::kMaxAgeArrival),
    CriterionName);

class GenerationTrackerFootprintTest
    : public ::testing::TestWithParam<StalenessCriterion> {};

// 16 B and one stale bit per object where aging runs on the generation
// time, which the state already holds: no arrival table.
TEST_P(GenerationTrackerFootprintTest, SixteenBytesAndOneBitPerObject) {
  ExpectPerObject(TrackerBytes(GetParam()), 16,
                  kObjects / 8 + kConstantBytes);
}

INSTANTIATE_TEST_SUITE_P(
    NoArrivalTable, GenerationTrackerFootprintTest,
    ::testing::Values(StalenessCriterion::kMaxAge,
                      StalenessCriterion::kUnappliedUpdate,
                      StalenessCriterion::kCombined),
    CriterionName);

}  // namespace
}  // namespace strip::db
