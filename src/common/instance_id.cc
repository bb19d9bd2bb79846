#include "src/common/instance_id.h"

#include <algorithm>

namespace palette {

InstanceId InstanceTable::Intern(std::string_view name) {
  if (const auto id = Find(name)) {
    return *id;
  }
  names_.emplace_back(name);
  return static_cast<InstanceId>(names_.size() - 1);
}

std::optional<InstanceId> InstanceTable::Find(std::string_view name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) {
    return std::nullopt;
  }
  return static_cast<InstanceId>(it - names_.begin());
}

}  // namespace palette
