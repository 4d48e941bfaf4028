// The in-memory view database.
//
// Holds the two view partitions (low / high importance). Each object
// stores its current value and the generation timestamp of that value;
// transactions read view objects, the update process writes them.
// Installing an update performs the paper's "worthiness check": if the
// database already holds a value at least as recent as the update's,
// the write is skipped (Section 3.3).
//
// Partial updates (a paper future-work item, Sections 2/7): when the
// database is built with n_attributes > 1, each update may refresh a
// single attribute, and an object's generation timestamp — the basis
// of every staleness decision — is that of its *oldest* attribute: an
// object is only as fresh as the attribute least recently refreshed.
//
// General (non-view) data is modelled separately — see
// db/general_store.h — because its access cost is folded into
// transaction computation time and it never becomes stale.

#ifndef STRIP_DB_DATABASE_H_
#define STRIP_DB_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "db/object.h"
#include "db/update.h"
#include "sim/sim_time.h"

namespace strip::db {

class Database {
 public:
  // Creates a database with `n_low` low-importance and `n_high`
  // high-importance view objects of `n_attributes` attributes each.
  // All objects start with generation time 0 and value 0 ("fresh as of
  // the start of the run").
  Database(int n_low, int n_high, int n_attributes = 1);

  // Number of objects in a partition.
  int size(ObjectClass cls) const {
    return static_cast<int>(partition(cls).slots.size());
  }

  // Total number of view objects.
  int total_size() const {
    return size(ObjectClass::kLowImportance) +
           size(ObjectClass::kHighImportance);
  }

  // Would installing `update` write anything? A complete update is
  // worthy if strictly newer than the object's (effective) generation;
  // a partial update if strictly newer than its target attribute's.
  bool IsWorthy(const Update& update) const;

  // Installs `update` if it is worthy. Returns true if the value was
  // written. Either way the caller pays the lookup cost; the write
  // cost applies only on true (cost accounting is the controller's
  // job).
  bool Apply(const Update& update);

  // Effective generation timestamp of an object's current value: with
  // multiple attributes, the generation of the *oldest* attribute.
  sim::Time generation_time(ObjectId id) const {
    return partition(id.cls).slots[CheckedIndex(id)].generation_time;
  }

  // Generation timestamp of one attribute (attribute databases only).
  sim::Time attribute_generation(ObjectId id, int attribute) const;

  int n_attributes() const { return n_attributes_; }

  // Current value of an object.
  double value(ObjectId id) const {
    return partition(id.cls).slots[CheckedIndex(id)].value;
  }

  // Age of an object's current value at time `now`.
  sim::Duration AgeAt(ObjectId id, sim::Time now) const {
    return now - generation_time(id);
  }

  // Count of updates actually written (worthy installs).
  std::uint64_t writes() const { return writes_; }
  // Count of installs skipped by the worthiness check.
  std::uint64_t skipped_writes() const { return skipped_writes_; }

 private:
  // 16 bytes per object.
  struct Slot {
    // Effective generation: min over attributes (== the single
    // generation when n_attributes is 1).
    sim::Time generation_time = 0;
    double value = 0;
  };

  struct Partition {
    std::vector<Slot> slots;
    // n_attributes_ generations per object, object by object; empty
    // when n_attributes_ is 1.
    std::vector<sim::Time> attribute_generations;
  };

  const Partition& partition(ObjectClass cls) const {
    return partitions_[static_cast<int>(cls)];
  }
  Partition& partition(ObjectClass cls) {
    return partitions_[static_cast<int>(cls)];
  }

  int CheckedIndex(ObjectId id) const;
  int CheckedAttribute(const Update& update) const;

  // Offset of an object's first attribute in its partition's
  // attribute_generations.
  std::size_t AttributeRow(int index) const {
    return static_cast<std::size_t>(index) * n_attributes_;
  }

  int n_attributes_;
  Partition partitions_[kNumObjectClasses];
  std::uint64_t writes_ = 0;
  std::uint64_t skipped_writes_ = 0;
};

}  // namespace strip::db

#endif  // STRIP_DB_DATABASE_H_
