#include "util/flags.hpp"

#include <charconv>
#include <stdexcept>
#include <string_view>

namespace rid::util {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      arg.remove_prefix(2);
      std::string name;
      std::string value;
      if (const auto eq = arg.find('='); eq != std::string_view::npos) {
        name = std::string(arg.substr(0, eq));
        value = std::string(arg.substr(eq + 1));
      } else {
        name = std::string(arg);
        // `--flag value` form only when the next token is not itself a flag.
        if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
          value = argv[++i];
        } else {
          value = "true";
        }
      }
      flags.values_[name] = value;
      flags.entries_.emplace_back(std::move(name), std::move(value));
    } else {
      flags.positional_.emplace_back(arg);
    }
  }
  return flags;
}

bool Flags::has(const std::string& name) const {
  read_.insert(name);
  return values_.count(name) != 0;
}

std::vector<std::string> Flags::unread() const {
  std::vector<std::string> names;
  std::set<std::string> seen = read_;
  for (const auto& entry : entries_)
    if (seen.insert(entry.first).second) names.push_back(entry.first);
  return names;
}

std::optional<std::string> Flags::raw(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  std::int64_t out = 0;
  const auto* begin = value->data();
  const auto* end = begin + value->size();
  const auto res = std::from_chars(begin, end, out);
  if (res.ec != std::errc{} || res.ptr != end)
    throw std::invalid_argument("flag --" + name + " is not an integer: " +
                                *value);
  return out;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*value, &pos);
    if (pos != value->size()) throw std::invalid_argument("trailing chars");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " is not a number: " +
                                *value);
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes" || *value == "on")
    return true;
  if (*value == "false" || *value == "0" || *value == "no" || *value == "off")
    return false;
  throw std::invalid_argument("flag --" + name + " is not a boolean: " +
                              *value);
}

}  // namespace rid::util
