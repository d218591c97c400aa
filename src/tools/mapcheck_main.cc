// mapcheck: lint UUCP map files before feeding them to pathalias.
//
// Usage: mapcheck [-q] [files...]        ("-" or no files reads standard input)
//   -q  only print findings, skip the summary block
//
// Exit status: 0 clean, 1 problems found, 2 usage / I/O errors.  Parse errors are
// reported by the parser itself; this tool adds the semantic lints (name collisions,
// one-way links, unenterable networks, ...) described in src/graph/audit.h.

#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/graph/audit.h"
#include "src/parser/parser.h"
#include "src/support/io_retry.h"

int main(int argc, char** argv) {
  bool quiet = false;
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-q") {
      quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      std::cerr << "usage: mapcheck [-q] [files...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "mapcheck: unknown option " << arg << "\n";
      return 2;
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    names.push_back("-");
  }

  pathalias::Diagnostics diag;
  diag.set_sink([](const pathalias::Diagnostic& diagnostic) {
    std::cerr << pathalias::ToString(diagnostic) << "\n";
  });
  pathalias::Graph graph(&diag);
  pathalias::Parser parser(&graph);
  for (const std::string& name : names) {
    if (name == "-") {
      std::ostringstream buffer;
      buffer << std::cin.rdbuf();
      parser.ParseFile(pathalias::InputFile{"<stdin>", buffer.str()});
      continue;
    }
    std::string error;
    std::optional<std::string> bytes = pathalias::support::ReadFileFully(name, &error);
    if (!bytes.has_value()) {
      std::cerr << "mapcheck: " << error << "\n";
      return 2;
    }
    parser.ParseFile(pathalias::InputFile{name, std::move(*bytes)});
  }

  pathalias::AuditReport report = pathalias::AuditGraph(graph);
  if (quiet) {
    for (const pathalias::AuditFinding& finding : report.findings) {
      std::cout << "[" << pathalias::ToString(finding.severity) << "/" << finding.category
                << "] " << finding.message << "\n";
    }
  } else {
    std::cout << report.ToString();
  }
  return report.clean() && diag.error_count() == 0 ? 0 : 1;
}
