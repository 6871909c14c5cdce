// Tiny command-line flag parser for the examples and bench binaries.
//
// Supported forms: --name=value, --name value, --bool-flag (implicit true),
// and bare positional arguments. Unknown flags are collected so callers can
// forward them (google-benchmark consumes its own flags) or report them
// (unread()).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace rid::util {

/// Parsed command line. Values are stored as strings and converted on access.
class Flags {
 public:
  /// Parses argv[1..argc). Never throws on unknown flags; conversion errors
  /// on access throw std::invalid_argument with the flag name.
  static Flags parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// A count or size: like get_int, but a value below 0 or above `max`
  /// (default: the largest T) throws std::invalid_argument naming the flag,
  /// instead of wrapping around in the conversion to T.
  template <typename T>
  T get_count(const std::string& name, T fallback,
              T max = std::numeric_limits<T>::max()) const {
    static_assert(std::is_unsigned_v<T>);
    if (!has(name)) return fallback;
    const std::int64_t value = get_int(name, 0);
    if (value < 0 || static_cast<std::uint64_t>(value) > max)
      throw std::invalid_argument("flag --" + name + " must be in [0, " +
                                  std::to_string(max) +
                                  "]: " + std::to_string(value));
    return static_cast<T>(value);
  }
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// All flags seen, in the order given (useful for echoing configuration).
  const std::vector<std::pair<std::string, std::string>>& entries()
      const noexcept {
    return entries_;
  }

  /// Given names no has()/get_*() call has consulted, in command-line
  /// order, each once. Consulting records the name: not for concurrent use.
  std::vector<std::string> unread() const;

 private:
  std::optional<std::string> raw(const std::string& name) const;

  mutable std::set<std::string> read_;
  std::map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> entries_;
  std::vector<std::string> positional_;
};

}  // namespace rid::util
