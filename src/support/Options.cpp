//===- support/Options.cpp - Minimal command-line option parser ----------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Options.h"

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace specctrl;

std::vector<std::string> specctrl::splitList(const std::string &List,
                                             char Sep) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos < List.size()) {
    const size_t Next = List.find(Sep, Pos);
    const size_t End = Next == std::string::npos ? List.size() : Next;
    if (End > Pos)
      Out.push_back(List.substr(Pos, End - Pos));
    Pos = End + 1;
  }
  return Out;
}

OptionSet::OptionSet(std::string ToolDescription)
    : Description(std::move(ToolDescription)) {}

void OptionSet::addFlag(const std::string &Name, const std::string &Help) {
  assert(!find(Name) && "duplicate option name");
  Options.push_back({Name, OptionKind::Flag, Help, false, 0, 0.0, ""});
}

void OptionSet::addInt(const std::string &Name, int64_t Default,
                       const std::string &Help) {
  assert(!find(Name) && "duplicate option name");
  Options.push_back({Name, OptionKind::Int, Help, false, Default, 0.0, ""});
}

void OptionSet::addDouble(const std::string &Name, double Default,
                          const std::string &Help) {
  assert(!find(Name) && "duplicate option name");
  Options.push_back({Name, OptionKind::Double, Help, false, 0, Default, ""});
}

void OptionSet::addString(const std::string &Name, const std::string &Default,
                          const std::string &Help) {
  assert(!find(Name) && "duplicate option name");
  Options.push_back({Name, OptionKind::String, Help, false, 0, 0.0, Default});
}

OptionSet::Option *OptionSet::find(const std::string &Name) {
  for (Option &O : Options)
    if (O.Name == Name)
      return &O;
  return nullptr;
}

const OptionSet::Option *OptionSet::find(const std::string &Name) const {
  for (const Option &O : Options)
    if (O.Name == Name)
      return &O;
  return nullptr;
}

void OptionSet::printHelp(const char *Argv0) const {
  std::fprintf(stdout, "%s\n\nusage: %s [options]\n\noptions:\n",
               Description.c_str(), Argv0);
  for (const Option &O : Options) {
    std::string Default;
    switch (O.Kind) {
    case OptionKind::Flag:
      Default = O.BoolValue ? "true" : "false";
      break;
    case OptionKind::Int:
      Default = std::to_string(O.IntValue);
      break;
    case OptionKind::Double:
      Default = std::to_string(O.DoubleValue);
      break;
    case OptionKind::String:
      Default = O.StringValue;
      break;
    }
    std::fprintf(stdout, "  --%-24s %s (default: %s)\n", O.Name.c_str(),
                 O.Help.c_str(), Default.c_str());
  }
  std::fprintf(stdout, "  --%-24s %s\n", "help", "print this message");
}

bool OptionSet::parse(int Argc, const char *const *Argv) {
  auto Fail = [this](const std::string &Message) {
    std::fprintf(stderr, "error: %s\n", Message.c_str());
    SawError = true;
    return false;
  };

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printHelp(Argv[0]);
      return false;
    }
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }

    std::string Name = Arg.substr(2);
    std::string Value;
    bool HasValue = false;
    const size_t Eq = Name.find('=');
    if (Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name = Name.substr(0, Eq);
      HasValue = true;
    }

    Option *O = find(Name);
    if (!O)
      return Fail("unknown option '--" + Name + "'");

    if (!HasValue && O->Kind != OptionKind::Flag) {
      if (I + 1 >= Argc)
        return Fail("option '--" + Name + "' requires a value");
      Value = Argv[++I];
      HasValue = true;
    }

    switch (O->Kind) {
    case OptionKind::Flag:
      if (!HasValue)
        O->BoolValue = true;
      else if (Value == "true" || Value == "1")
        O->BoolValue = true;
      else if (Value == "false" || Value == "0")
        O->BoolValue = false;
      else
        return Fail("bad boolean value '" + Value + "' for '--" + Name + "'");
      break;
    case OptionKind::Int: {
      char *End = nullptr;
      errno = 0;
      O->IntValue = std::strtoll(Value.c_str(), &End, 0);
      if (End == Value.c_str() || *End != '\0')
        return Fail("bad integer value '" + Value + "' for '--" + Name + "'");
      if (errno == ERANGE)
        return Fail("integer value '" + Value + "' for '--" + Name +
                    "' is outside the 64-bit signed range");
      break;
    }
    case OptionKind::Double: {
      char *End = nullptr;
      O->DoubleValue = std::strtod(Value.c_str(), &End);
      if (End == Value.c_str() || *End != '\0')
        return Fail("bad numeric value '" + Value + "' for '--" + Name + "'");
      break;
    }
    case OptionKind::String:
      O->StringValue = Value;
      break;
    }
  }
  return true;
}

bool OptionSet::getFlag(const std::string &Name) const {
  const Option *O = find(Name);
  assert(O && O->Kind == OptionKind::Flag && "unregistered flag");
  return O->BoolValue;
}

int64_t OptionSet::getInt(const std::string &Name) const {
  const Option *O = find(Name);
  assert(O && O->Kind == OptionKind::Int && "unregistered int option");
  return O->IntValue;
}

double OptionSet::getDouble(const std::string &Name) const {
  const Option *O = find(Name);
  assert(O && O->Kind == OptionKind::Double && "unregistered double option");
  return O->DoubleValue;
}

const std::string &OptionSet::getString(const std::string &Name) const {
  const Option *O = find(Name);
  assert(O && O->Kind == OptionKind::String && "unregistered string option");
  return O->StringValue;
}
