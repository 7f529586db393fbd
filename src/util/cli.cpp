#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

namespace gcr {
namespace {

[[noreturn]] void usage_error(const std::string& program,
                              const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", program.c_str(), message.c_str());
  std::exit(2);
}

}  // namespace

Cli::Cli(int argc, char** argv) : program_(argc > 0 ? argv[0] : "prog") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      usage_error(program_, "positional arguments are not supported: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

std::string Cli::get_string(const std::string& name, const std::string& def,
                            const std::string& help) {
  decls_.push_back({name, def, help});
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def,
                          const std::string& help) {
  const std::string v = get_string(name, std::to_string(def), help);
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') {
    usage_error(program_, "--" + name + " expects an integer, got: " + v);
  }
  return parsed;
}

double Cli::get_double(const std::string& name, double def,
                       const std::string& help) {
  const std::string v = get_string(name, std::to_string(def), help);
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    usage_error(program_, "--" + name + " expects a number, got: " + v);
  }
  return parsed;
}

bool Cli::get_bool(const std::string& name, bool def, const std::string& help) {
  const std::string v = get_string(name, def ? "true" : "false", help);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  usage_error(program_, "--" + name + " expects a boolean, got: " + v);
}

std::vector<std::int64_t> Cli::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& def,
    const std::string& help) {
  std::string def_str;
  for (std::size_t i = 0; i < def.size(); ++i) {
    if (i) def_str += ',';
    def_str += std::to_string(def[i]);
  }
  const std::string v = get_string(name, def_str, help);
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos < v.size()) {
    auto comma = v.find(',', pos);
    if (comma == std::string::npos) comma = v.size();
    const std::string item = v.substr(pos, comma - pos);
    char* end = nullptr;
    const long long parsed = std::strtoll(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0') {
      usage_error(program_, "--" + name + " expects integers, got: " + item);
    }
    out.push_back(parsed);
    pos = comma + 1;
  }
  return out;
}

int Cli::get_jobs() {
  const std::int64_t jobs =
      get_int("jobs", 0, "campaign worker threads (0 = all hardware threads)");
  if (jobs < 0 || jobs > 65536) {
    usage_error(program_,
                "--jobs must be in 0..65536 (0 = all hardware threads; each "
                "worker runs one simulation at a time)");
  }
  return static_cast<int>(jobs);
}

int Cli::get_reps(int def) {
  const std::int64_t reps = get_int("reps", def, "repetitions (seeds 1..n)");
  if (reps < 1 || reps > 1000000) {
    usage_error(program_, "--reps must be in 1..1000000");
  }
  return static_cast<int>(reps);
}

void Cli::finish() {
  if (help_requested_) {
    std::printf("usage: %s [flags]\n", program_.c_str());
    for (const auto& d : decls_) {
      std::printf("  --%-24s %s (default: %s)\n", d.name.c_str(),
                  d.help.c_str(), d.def.c_str());
    }
    std::exit(0);
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    bool known = false;
    for (const auto& d : decls_) {
      if (d.name == name) {
        known = true;
        break;
      }
    }
    if (!known) usage_error(program_, "unknown flag: --" + name);
  }
}

}  // namespace gcr
