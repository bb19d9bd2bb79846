#include "src/common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace palette {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // `--name value` form — unless the next token is itself a flag or
    // missing, in which case the flag is boolean-like ("true").
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      flags_[std::string(arg)] = argv[++i];
    } else {
      flags_[std::string(arg)] = "true";
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

std::int64_t FlagParser::GetInt(const std::string& name,
                                std::int64_t default_value) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return default_value;
  }
  std::int64_t value = 0;
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return default_value;
  }
  return value;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return default_value;
  }
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    return consumed == it->second.size() ? value : default_value;
  } catch (...) {
    return default_value;
  }
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return default_value;
  }
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> FlagParser::UnqueriedFlags() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : flags_) {
    if (queried_.count(name) == 0) {
      out.push_back(name);
    }
  }
  return out;
}

bool DurationFlag(const FlagParser& flags, const char* name, SimTime unit,
                  SimTime* value) {
  const double unit_ns = static_cast<double>(unit.nanos());
  const double ns =
      flags.GetDouble(name, static_cast<double>(value->nanos()) / unit_ns) *
      unit_ns;
  if (!std::isfinite(ns) || ns < 0 || ns >= std::ldexp(1.0, 63)) {
    std::fprintf(stderr,
                 "--%s must be a duration in [0, 2^63) ns: %s\n", name,
                 flags.GetString(name, "").c_str());
    return false;
  }
  *value = SimTime::FromNanos(static_cast<std::int64_t>(ns));
  return true;
}

bool CapacityFlag(const FlagParser& flags, const char* name, Bytes* value) {
  const double mib = flags.GetDouble(
      name, static_cast<double>(*value) / static_cast<double>(kMiB));
  const double bytes = mib * static_cast<double>(kMiB);
  if (!std::isfinite(bytes) || bytes < 0 || bytes >= std::ldexp(1.0, 64)) {
    std::fprintf(stderr, "--%s must be a size in [0, 2^44) MiB: %s\n", name,
                 flags.GetString(name, "").c_str());
    return false;
  }
  *value = static_cast<Bytes>(bytes);
  return true;
}

}  // namespace palette
