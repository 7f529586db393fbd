// Tiny command-line flag parser shared by benches and examples.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Unknown
// flags are an error so typos in experiment sweeps don't silently run the
// default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gcr {

class Cli {
 public:
  /// Parses argv; aborts with a message on malformed input.
  Cli(int argc, char** argv);

  /// Declares a flag (for --help and unknown-flag checking) and returns its
  /// value. Declare every flag before calling `finish()`.
  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& help);
  std::int64_t get_int(const std::string& name, std::int64_t def,
                       const std::string& help);
  double get_double(const std::string& name, double def,
                    const std::string& help);
  bool get_bool(const std::string& name, bool def, const std::string& help);

  /// Comma-separated integer list, e.g. --procs=16,32,64.
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         const std::vector<std::int64_t>& def,
                                         const std::string& help);

  /// Declares the standard `--jobs` flag for campaign-driven benches and
  /// returns its value: campaign worker threads, 0 (the default) meaning
  /// one per hardware thread. Each worker runs one simulation at a time,
  /// so this is the only source of threads. Rejects values outside
  /// 0..65536.
  int get_jobs();

  /// Declares the standard `--reps` flag (campaign repetitions = seeds
  /// 1..n) and returns its value. Rejects values outside 1..1000000 with a
  /// usage error — Scenario aborts on reps < 1, so catch it at the CLI.
  int get_reps(int def);

  /// After all declarations: handles --help (prints usage, exits 0) and
  /// errors out on any flag that was provided but never declared.
  void finish();

 private:
  struct Decl {
    std::string name;
    std::string def;
    std::string help;
  };

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<Decl> decls_;
  bool help_requested_ = false;
};

}  // namespace gcr
