// Minimal command-line flag parsing for the tools and benches.
//
// Supports `--name=value` and `--name value` forms plus bare positional
// arguments. No registration step: callers query by name with a default,
// which fits small research tools better than a global flag registry.
#ifndef PALETTE_SRC_COMMON_FLAGS_H_
#define PALETTE_SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace palette {

class FlagParser {
 public:
  // Parses argv; unknown flags are retained (queryable), malformed input
  // (a lone "--") is treated as positional.
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  std::int64_t GetInt(const std::string& name,
                      std::int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }
  // Flags that were present but never queried — typo detection for tools.
  std::vector<std::string> UnqueriedFlags() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

// Readers for flags whose values convert to a bounded type. Each prints a
// message naming the flag and returns false when the value has no such
// conversion (it would be undefined), so a tool can exit 1 instead.

// Reads a duration given in multiples of `unit` (SimTime::FromMillis(1) for
// a `_ms` flag) into `*value`, which holds the default. Negative,
// non-finite and out-of-range (>= 2^63 ns) values are bad input; in range,
// the result equals SimTime::From{Seconds,Millis,Micros} of the value.
bool DurationFlag(const FlagParser& flags, const char* name, SimTime unit,
                  SimTime* value);

// Reads a capacity given in MiB into `*value`, which holds the default.
// Negative, non-finite and out-of-range (>= 2^64 bytes) sizes are bad
// input.
bool CapacityFlag(const FlagParser& flags, const char* name, Bytes* value);

}  // namespace palette

#endif  // PALETTE_SRC_COMMON_FLAGS_H_
