// docs_check: enforce the tooling doc contract (sibling of metrics_check).
//
// The docs describe a concrete set of runnable binaries and command-line
// flags; this tool fails CI when code grows a surface the docs never
// mention -- the drift this repo's doc set has repeatedly accumulated
// (bench flags missing from PERFORMANCE.md, benches missing from the
// catalog table).
//
//   docs_check benches <bench-dir> <doc.md> [more docs...]
//       Every bench_*.cpp in <bench-dir> defines a binary; its name must
//       appear in at least one of the given docs. The docs' bench catalog
//       table ends each row with a smoke column ("yes"/"no"); the benches
//       marked "yes" must be exactly those with a `<bench>_smoke` add_test
//       in <bench-dir>/CMakeLists.txt.
//
//   docs_check flags <source-file> <doc.md> [more docs...]
//       Scans the source for command-line flag string literals (a whole
//       literal of the form --word[-word...]) and reports every flag not
//       mentioned in any of the given docs. Run against the tools that
//       parse argv: examples/scenario_runner.cpp, bench/bench_table.hpp.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "docs_check: cannot open %s\n",
                 path.string().c_str());
    std::exit(2);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string read_docs(int argc, char** argv, int first) {
  std::string all;
  for (int i = first; i < argc; ++i) {
    all += read_file(argv[i]);
    all += '\n';
  }
  return all;
}

/// A string literal is a flag when the whole literal is "--word" with
/// lowercase words separated by single dashes ("--sim-threads"). Literals
/// that merely *contain* a flag ("--chaos: unknown parameter") are prose,
/// not surface, and are skipped.
bool is_flag_literal(const std::string& s) {
  if (s.size() < 3 || s.compare(0, 2, "--") != 0) return false;
  bool last_dash = true;  // no leading dash after the "--"
  for (std::size_t i = 2; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '-') {
      if (last_dash) return false;
      last_dash = true;
    } else if (std::islower(static_cast<unsigned char>(c)) != 0) {
      last_dash = false;
    } else {
      return false;
    }
  }
  return !last_dash;
}

/// Key=value option keys are surface too: a whole literal like "seed=" or
/// "p2p=" (lowercase/digit words, single dashes, trailing '=') is how the
/// runner parses its --chaos / --sweep parameters, and each must appear in
/// the docs verbatim ("seed=N" counts -- the match is on the key prefix).
bool is_option_key_literal(const std::string& s) {
  if (s.size() < 2 || s.back() != '=') return false;
  if (std::islower(static_cast<unsigned char>(s.front())) == 0) return false;
  bool last_dash = false;
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    const char c = s[i];
    if (c == '-') {
      if (last_dash) return false;
      last_dash = true;
    } else if (std::islower(static_cast<unsigned char>(c)) != 0 ||
               std::isdigit(static_cast<unsigned char>(c)) != 0) {
      last_dash = false;
    } else {
      return false;
    }
  }
  return !last_dash;
}

std::string trim(std::string s) {
  const auto space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && space(static_cast<unsigned char>(s.back()))) s.pop_back();
  std::size_t i = 0;
  while (i < s.size() && space(static_cast<unsigned char>(s[i]))) ++i;
  return s.substr(i);
}

/// Benches the catalog table marks as smoke-tested: rows of the form
/// "| `bench_x` | ... | yes |". `found` reports whether any catalog row
/// carries a smoke column at all.
std::set<std::string> documented_smoke(const std::string& docs, bool& found) {
  std::set<std::string> smoked;
  std::istringstream lines(docs);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| `bench_", 0) != 0) continue;
    std::vector<std::string> cells;
    std::istringstream row(line.substr(1));
    std::string cell;
    while (std::getline(row, cell, '|')) cells.push_back(trim(cell));
    if (!cells.empty() && cells.back().empty()) cells.pop_back();
    if (cells.size() < 3) continue;
    const std::string& smoke = cells.back();
    if (smoke != "yes" && smoke != "no") continue;
    found = true;
    if (smoke == "yes") {
      smoked.insert(cells.front().substr(1, cells.front().size() - 2));
    }
  }
  return smoked;
}

/// Benches with a `<bench>_smoke` add_test in a CMakeLists.txt, expanding
/// `add_test(NAME ${var}_smoke ...)` over the enclosing foreach(var ...).
std::set<std::string> cmake_smoke(const std::string& text) {
  std::set<std::string> smoked;
  std::istringstream words(text);
  std::string word;
  std::string loop_var;
  std::vector<std::string> loop_items;
  bool in_foreach_header = false;
  bool after_name = false;
  while (words >> word) {
    if (word.rfind("foreach(", 0) == 0) {
      loop_var = word.substr(8);
      loop_items.clear();
      in_foreach_header = true;
      continue;
    }
    if (in_foreach_header) {
      const bool last = word.back() == ')';
      if (last) word.pop_back();
      if (!word.empty()) loop_items.push_back(word);
      in_foreach_header = !last;
      continue;
    }
    if (word.rfind("endforeach", 0) == 0) {
      loop_var.clear();
      loop_items.clear();
      continue;
    }
    if (word == "add_test(NAME") {
      after_name = true;
      continue;
    }
    if (!after_name) continue;
    after_name = false;
    constexpr std::string_view kSuffix = "_smoke";
    if (word.size() <= kSuffix.size() ||
        word.compare(word.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
      continue;
    }
    const std::string base = word.substr(0, word.size() - kSuffix.size());
    if (!loop_var.empty() && base == "${" + loop_var + "}") {
      smoked.insert(loop_items.begin(), loop_items.end());
    } else {
      smoked.insert(base);
    }
  }
  return smoked;
}

std::set<std::string> flag_literals(const std::string& text) {
  std::set<std::string> flags;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string literal = text.substr(pos + 1, end - pos - 1);
    if (is_flag_literal(literal) || is_option_key_literal(literal)) {
      flags.insert(literal);
    }
    pos = end + 1;
  }
  return flags;
}

int run_flags_mode(const fs::path& source, int argc, char** argv, int first) {
  const std::string docs = read_docs(argc, argv, first);
  const auto flags = flag_literals(read_file(source));
  if (flags.empty()) {
    std::fprintf(stderr, "docs_check: no flag literals found in %s\n",
                 source.string().c_str());
    return 2;
  }
  int bad = 0;
  for (const auto& flag : flags) {
    if (docs.find(flag) == std::string::npos) {
      std::fprintf(stderr, "UNDOCUMENTED flag %s (parsed by %s)\n",
                   flag.c_str(), source.string().c_str());
      ++bad;
    }
  }
  std::printf("docs_check flags: %zu flags in %s, %d undocumented\n",
              flags.size(), source.filename().string().c_str(), bad);
  return bad == 0 ? 0 : 1;
}

int run_benches_mode(const fs::path& bench_dir, int argc, char** argv,
                     int first) {
  const std::string docs = read_docs(argc, argv, first);
  int bad = 0;
  std::size_t benches = 0;
  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(bench_dir)) {
    if (entry.is_regular_file()) entries.push_back(entry.path());
  }
  std::sort(entries.begin(), entries.end());
  for (const auto& path : entries) {
    const std::string stem = path.stem().string();
    if (path.extension() != ".cpp" || stem.compare(0, 6, "bench_") != 0) {
      continue;
    }
    ++benches;
    if (docs.find(stem) == std::string::npos) {
      std::fprintf(stderr,
                   "UNDOCUMENTED bench %s (%s exists but no doc mentions "
                   "the binary)\n",
                   stem.c_str(), path.string().c_str());
      ++bad;
    }
  }
  if (benches == 0) {
    std::fprintf(stderr, "docs_check: no bench_*.cpp under %s\n",
                 bench_dir.string().c_str());
    return 2;
  }

  bool catalog_found = false;
  const auto documented = documented_smoke(docs, catalog_found);
  if (!catalog_found) {
    std::fprintf(stderr,
                 "docs_check: no bench catalog row with a smoke column "
                 "(| `bench_x` | ... | yes/no |) in the given docs\n");
    return 2;
  }
  const auto tested = cmake_smoke(read_file(bench_dir / "CMakeLists.txt"));
  for (const auto& name : documented) {
    if (!tested.contains(name)) {
      std::fprintf(stderr,
                   "SMOKE MISMATCH %s: the docs mark it smoke-tested but "
                   "no %s_smoke test exists\n",
                   name.c_str(), name.c_str());
      ++bad;
    }
  }
  for (const auto& name : tested) {
    if (!documented.contains(name)) {
      std::fprintf(stderr,
                   "SMOKE MISMATCH %s: %s_smoke exists but the docs do not "
                   "mark it smoke-tested\n",
                   name.c_str(), name.c_str());
      ++bad;
    }
  }
  std::printf(
      "docs_check benches: %zu benches, %zu smoke-tested, %d problem(s)\n",
      benches, tested.size(), bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(
        stderr,
        "usage: docs_check benches <bench-dir>   <doc.md> [more docs...]\n"
        "       docs_check flags   <source-file> <doc.md> [more docs...]\n");
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "benches") return run_benches_mode(argv[2], argc, argv, 3);
  if (mode == "flags") return run_flags_mode(argv[2], argc, argv, 3);
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
