// Tiny command-line parsing for the opindyn CLI and the examples:
// `--name=value` or `--flag` options plus positional arguments.
#ifndef OPINDYN_SUPPORT_CLI_H
#define OPINDYN_SUPPORT_CLI_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace opindyn {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// The numeric overloads validate the whole value: non-numeric input,
  /// out-of-range values and trailing garbage ("--eps=0.1x") throw
  /// std::runtime_error naming the option, so a CLI main() can catch and
  /// print a one-line diagnostic instead of dying on an uncaught
  /// std::invalid_argument.
  std::int64_t get(const std::string& name, std::int64_t fallback) const;
  double get(const std::string& name, double fallback) const;
  bool get(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  const std::string& program() const noexcept { return program_; }

  /// Names of all `--name[=value]` options that were passed, sorted;
  /// lets callers reject unknown flags instead of silently ignoring
  /// typos.
  std::vector<std::string> option_names() const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Strict numeric parsing shared by every user-input surface (CLI
/// options, spec keys, sink columns): the whole value must parse --
/// non-numeric input, out-of-range values and trailing garbage all
/// throw std::runtime_error "<subject>: ..." so callers surface a
/// one-line diagnostic instead of an uncaught std::invalid_argument.
/// `subject` names the input, e.g. "option '--replicas'".
std::int64_t parse_int_value(const std::string& subject,
                             const std::string& value);
double parse_double_value(const std::string& subject,
                          const std::string& value);

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
std::size_t edit_distance(const std::string& a, const std::string& b);

/// The candidates nearest to `name` by edit distance, closest first and
/// alphabetical within a distance; used for "did you mean" suggestions
/// after a typo'd scenario or flag.  Only candidates within
/// max(2, name.size() / 3) edits qualify, so unrelated names are never
/// suggested.  At most `max_results` are returned.
std::vector<std::string> closest_matches(
    const std::string& name, const std::vector<std::string>& candidates,
    std::size_t max_results = 3);

}  // namespace opindyn

#endif  // OPINDYN_SUPPORT_CLI_H
