// Minimal --key=value command-line parser shared by the example binaries.
// Unknown flags, stray positional arguments and malformed numbers exit 2
// with a message instead of falling back to defaults.

#ifndef GRAPHRARE_EXAMPLES_FLAGS_H_
#define GRAPHRARE_EXAMPLES_FLAGS_H_

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

namespace graphrare {

class Flags {
 public:
  /// `known` lists every flag name (without the leading "--") the binary
  /// reads; anything else is rejected.
  Flags(int argc, char** argv, const std::set<std::string>& known) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unrecognised argument: %s\n", arg.c_str());
        std::exit(2);
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      const std::string key = arg.substr(0, eq);
      if (known.count(key) == 0) {
        std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
        std::exit(2);
      }
      // A bare flag is a boolean switch.
      values_[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
    }
  }

  std::string Get(const std::string& key, const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    const char* begin = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || errno != 0) {
      InvalidValue(key, it->second);
    }
    return v;
  }
  int GetInt(const std::string& key, int def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    const char* begin = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(begin, &end, 10);
    if (end == begin || *end != '\0' || errno != 0 || v < INT_MIN ||
        v > INT_MAX) {
      InvalidValue(key, it->second);
    }
    return static_cast<int>(v);
  }
  bool GetBool(const std::string& key) const { return values_.count(key); }

 private:
  [[noreturn]] static void InvalidValue(const std::string& key,
                                        const std::string& value) {
    std::fprintf(stderr, "invalid value for --%s: '%s'\n", key.c_str(),
                 value.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

}  // namespace graphrare

#endif  // GRAPHRARE_EXAMPLES_FLAGS_H_
