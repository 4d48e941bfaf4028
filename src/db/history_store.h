// Historical views: bounded per-object version history.
//
// The paper studies snapshot views only — installing an update loses
// the previous value forever — and names historical views as future
// work (Sections 2 and 7). This store retains the last `depth`
// installed versions of each view object in a ring buffer, supporting
// as-of reads ("the Dollar-Yen rate as of 10 seconds ago").
//
// The controller records every database write here when
// Config::history_depth > 0; the cost model is unchanged (the paper
// gives no cost for history maintenance; a real system would fold it
// into x_update).

#ifndef STRIP_DB_HISTORY_STORE_H_
#define STRIP_DB_HISTORY_STORE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/huge_pages.h"
#include "db/object.h"
#include "sim/sim_time.h"

namespace strip::db {

class HistoryStore {
 public:
  // One retained version of a view object.
  struct Version {
    sim::Time generation_time = 0;
    double value = 0;

    friend bool operator==(const Version&, const Version&) = default;
  };

  // Retains up to `depth` versions per object (depth >= 1).
  HistoryStore(int n_low, int n_high, int depth);

  // Records a newly installed version. Versions must arrive in
  // non-decreasing generation order per object (the database's
  // worthiness check guarantees strictly increasing ones).
  void Record(ObjectId id, sim::Time generation_time, double value);

  // The newest retained version generated at or before `at`, or
  // nullopt if nothing that old is retained (either never recorded or
  // already evicted from the ring).
  std::optional<Version> AsOf(ObjectId id, sim::Time at) const;

  // Retained versions, oldest first.
  std::vector<Version> History(ObjectId id) const;

  // Number of versions currently retained for `id`.
  int VersionCount(ObjectId id) const;

  int depth() const { return depth_; }
  // Total versions recorded (including since-evicted ones).
  std::uint64_t recorded() const { return recorded_; }

 private:
  struct Ring {
    std::vector<Version> slots;  // capacity `depth_`, filled lazily
    int next = 0;                // slot to overwrite next
    int count = 0;               // live versions
  };

  const Ring& ring(ObjectId id) const;
  Ring& ring(ObjectId id);

  int depth_;
  // One ring per object; on huge pages once 2 MiB (base/huge_pages.h).
  base::HugePageVector<Ring> low_;
  base::HugePageVector<Ring> high_;
  std::uint64_t recorded_ = 0;
};

}  // namespace strip::db

#endif  // STRIP_DB_HISTORY_STORE_H_
