#pragma once

/// \file args.hpp
/// Minimal command-line flag parser for the CLI driver and examples.
/// Flags are --name value or --name=value; bool flags may omit the value.
/// Unknown flags are an error (catches typos in experiment scripts).

#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sccpipe/support/status.hpp"

namespace sccpipe {

/// True when all of \p text is one decimal integer in int range (or one
/// finite number): "8x", " 8", "nan" and "" are not. \p out is only
/// written on success.
bool parse_int(const std::string& text, int* out);
bool parse_double(const std::string& text, double* out);

/// Look \p text up in a (name, value) table: the first match's value, or a
/// typed InvalidArgument "unknown <what> '<text>' (<names>)".
template <typename T>
Status parse_choice(const std::string& text,
                    std::initializer_list<std::pair<const char*, T>> choices,
                    const char* what, T* out) {
  std::string names;
  for (const auto& [name, value] : choices) {
    if (text == name) {
      *out = value;
      return Status();
    }
    names += (names.empty() ? "" : " | ") + std::string(name);
  }
  return Status(StatusCode::InvalidArgument, std::string("unknown ") + what +
                                                 " '" + text + "' (" + names +
                                                 ")");
}

class ArgParser {
 public:
  /// Register flags before parse(). \p help is printed by usage().
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value = "");

  /// Parse argv; returns false (and fills error()) on unknown or malformed
  /// flags. Positional arguments are collected separately.
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  /// Strict numeric getters: the whole value must be one number, so "abc",
  /// "8x", "" and out-of-range values are a typed InvalidArgument naming
  /// the flag, and \p out is left untouched.
  Status get_int(const std::string& name, int* out) const;
  Status get_double(const std::string& name, double* out) const;
  bool get_bool(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }
  std::string usage(const std::string& program) const;

 private:
  struct Flag {
    std::string help;
    std::string value;
    bool seen = false;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace sccpipe
