//===- support/Options.h - Minimal command-line option parser --*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal declarative command-line parser for the bench and example
/// binaries.  Options are registered with a name, help text, and a default;
/// `--name=value`, `--name value`, and bare `--flag` forms are accepted.
/// An integer value is decimal, or hexadecimal after `0x`; a leading zero
/// does not make it octal.  `--help` prints the registered options and
/// exits.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_SUPPORT_OPTIONS_H
#define SPECCTRL_SUPPORT_OPTIONS_H

#include <cstdint>
#include <string>
#include <vector>

namespace specctrl {

/// Splits a comma-separated list, dropping empty items ("a,,b" -> {a, b}).
/// The shared helper behind every list-valued option (--benchmarks,
/// --assert, --value, ...).
std::vector<std::string> splitList(const std::string &List, char Sep = ',');

/// A declarative option set for tool binaries.
class OptionSet {
public:
  /// Creates an option set; \p ToolDescription is shown by --help.  The
  /// tool takes at most \p MaxPositional positional arguments (input
  /// files); parse rejects a surplus one.
  explicit OptionSet(std::string ToolDescription, size_t MaxPositional = 0);

  /// Registers a boolean flag (default false; `--name` sets it true,
  /// `--name=false` clears it).
  void addFlag(const std::string &Name, const std::string &Help);
  /// Registers an integer option with a default.
  void addInt(const std::string &Name, int64_t Default,
              const std::string &Help);
  /// Registers a floating-point option with a default.
  void addDouble(const std::string &Name, double Default,
                 const std::string &Help);
  /// Registers a string option with a default.
  void addString(const std::string &Name, const std::string &Default,
                 const std::string &Help);

  /// Parses argv.  On `--help`, prints usage and returns false (the caller
  /// should exit 0).  On a malformed or unknown option, prints a diagnostic
  /// to stderr and returns false (the caller should exit nonzero, which
  /// `wasError()` distinguishes).  Positional arguments are collected, up
  /// to the tool's maximum; one more is an error like an unknown option.
  bool parse(int Argc, const char *const *Argv);

  bool wasError() const { return SawError; }

  /// True if an option named \p Name was registered.
  bool has(const std::string &Name) const { return find(Name) != nullptr; }

  bool getFlag(const std::string &Name) const;
  int64_t getInt(const std::string &Name) const;
  double getDouble(const std::string &Name) const;
  const std::string &getString(const std::string &Name) const;
  const std::vector<std::string> &positional() const { return Positional; }

private:
  enum class OptionKind { Flag, Int, Double, String };

  struct Option {
    std::string Name;
    OptionKind Kind;
    std::string Help;
    bool BoolValue = false;
    int64_t IntValue = 0;
    double DoubleValue = 0.0;
    std::string StringValue;
  };

  Option *find(const std::string &Name);
  const Option *find(const std::string &Name) const;
  void printHelp(const char *Argv0) const;

  std::string Description;
  std::vector<Option> Options;
  size_t MaxPositional;
  std::vector<std::string> Positional;
  bool SawError = false;
};

} // namespace specctrl

#endif // SPECCTRL_SUPPORT_OPTIONS_H
