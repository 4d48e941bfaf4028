#include "db/database.h"

#include <algorithm>

#include "base/check.h"

namespace strip::db {

const char* ObjectClassName(ObjectClass cls) {
  return cls == ObjectClass::kLowImportance ? "low" : "high";
}

Database::Database(int n_low, int n_high, int n_attributes)
    : n_attributes_(n_attributes) {
  static_assert(sizeof(Slot) == 16);
  STRIP_CHECK_MSG(n_low >= 0 && n_high >= 0, "negative partition size");
  STRIP_CHECK_MSG(n_attributes >= 1, "need at least one attribute");
  const int sizes[kNumObjectClasses] = {n_low, n_high};
  for (int c = 0; c < kNumObjectClasses; ++c) {
    partitions_[c].slots.resize(sizes[c]);
    if (n_attributes_ > 1) {
      partitions_[c].attribute_generations.assign(
          static_cast<std::size_t>(sizes[c]) * n_attributes_, 0.0);
    }
  }
}

int Database::CheckedIndex(ObjectId id) const {
  STRIP_CHECK_MSG(id.index >= 0 && id.index < size(id.cls),
                  "object index out of range");
  return id.index;
}

int Database::CheckedAttribute(const Update& update) const {
  STRIP_CHECK_MSG(update.attribute >= 0 && update.attribute < n_attributes_,
                  "attribute index out of range");
  return update.attribute;
}

sim::Time Database::attribute_generation(ObjectId id, int attribute) const {
  const int index = CheckedIndex(id);
  const Partition& p = partition(id.cls);
  if (n_attributes_ == 1) {
    STRIP_CHECK_MSG(attribute == 0, "attribute index out of range");
    return p.slots[index].generation_time;
  }
  STRIP_CHECK_MSG(attribute >= 0 && attribute < n_attributes_,
                  "attribute index out of range");
  return p.attribute_generations[AttributeRow(index) + attribute];
}

bool Database::IsWorthy(const Update& update) const {
  const int index = CheckedIndex(update.object);
  const Partition& p = partition(update.object.cls);
  if (n_attributes_ == 1 || update.attribute < 0) {
    // Complete update: worthy if newer than the effective generation.
    return update.generation_time > p.slots[index].generation_time;
  }
  return update.generation_time >
         p.attribute_generations[AttributeRow(index) +
                                 CheckedAttribute(update)];
}

bool Database::Apply(const Update& update) {
  const int index = CheckedIndex(update.object);
  Partition& p = partition(update.object.cls);
  if (!IsWorthy(update)) {
    ++skipped_writes_;
    return false;
  }
  Slot& slot = p.slots[index];
  if (n_attributes_ == 1 || update.attribute < 0) {
    // Complete update: every attribute refreshed at once.
    slot.generation_time = update.generation_time;
    if (n_attributes_ > 1) {
      std::fill_n(p.attribute_generations.begin() + AttributeRow(index),
                  n_attributes_, update.generation_time);
    }
  } else {
    const auto row = p.attribute_generations.begin() + AttributeRow(index);
    row[CheckedAttribute(update)] = update.generation_time;
    // The object is only as fresh as its oldest attribute.
    slot.generation_time = *std::min_element(row, row + n_attributes_);
  }
  slot.value = update.value;
  ++writes_;
  return true;
}

}  // namespace strip::db
