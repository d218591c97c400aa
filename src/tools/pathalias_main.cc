// The pathalias command-line tool.
//
// Usage mirrors the original:
//   pathalias [-c] [-f] [-i] [-v] [-l localname] [-d deadarg]... [-t tracearg]...
//             [-o outfile] [--two-label] [--strict-syntax] [--no-back-links] [files...]
//
//   -c            print costs (leading column, as in the paper's example output)
//   -f            report first-hop cost instead of total cost
//   -i            ignore case in host names
//   -l name       the local host (default: first host declared, with a note)
//   -d arg        declare a host ("foo") or link ("foo!bar") dead from the command line
//   -t arg        trace mapping decisions involving a host or link
//   -o file       write routes to file instead of stdout
//   -v            verbose: print phase statistics to stderr
//   --two-label   enable the second-best-path extension (paper §Problems)
//   --strict-syntax  also penalize LEFT-then-RIGHT syntax mixing
//   --no-back-links  do not invent reverse links for unreachable hosts
//   --shards N    map large maps with the domain-sharded parallel mapper (output
//                 is byte-identical to the serial mapper; small or degenerate
//                 maps fall back to it automatically)
//   files         map files; "-" or none reads standard input

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/pathalias.h"
#include "src/support/failpoint.h"
#include "src/support/io_retry.h"

namespace {

void Usage() {
  std::cerr << "usage: pathalias [-c] [-f] [-i] [-v] [-l localname] [-d deadarg] [-t tracearg]\n"
               "                 [-o outfile] [--two-label] [--strict-syntax] [--no-back-links]\n"
               "                 [--shards N] [files...]\n";
}

std::string ReadStream(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  pathalias::support::failpoint::ArmFromEnv();
  pathalias::RunOptions options;
  std::vector<std::string> dead_args;
  std::vector<std::string> file_names;
  std::string out_file;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto needs_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "pathalias: " << flag << " requires an argument\n";
        Usage();
        exit(2);
      }
      return argv[++i];
    };
    if (arg == "-c") {
      options.print.include_costs = true;
    } else if (arg == "-f") {
      options.print.first_hop_cost = true;
    } else if (arg == "-i") {
      options.graph.ignore_case = true;
    } else if (arg == "-v") {
      verbose = true;
    } else if (arg == "-l") {
      options.local = needs_value("-l");
    } else if (arg == "-d") {
      dead_args.emplace_back(needs_value("-d"));
    } else if (arg == "-t") {
      options.map.trace.emplace_back(needs_value("-t"));
    } else if (arg == "-o") {
      out_file = needs_value("-o");
    } else if (arg == "--two-label") {
      options.map.two_label = true;
    } else if (arg == "--strict-syntax") {
      options.map.penalize_left_then_right = true;
    } else if (arg == "--no-back-links") {
      options.map.back_links = false;
    } else if (arg == "--shards") {
      const char* value = needs_value("--shards");
      char* end = nullptr;
      long shards = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || shards < 0 || shards > 4096) {
        std::cerr << "pathalias: --shards needs a small non-negative integer, got '"
                  << value << "'\n";
        return 2;
      }
      options.shard.shards = static_cast<int>(shards);
    } else if (arg == "-h" || arg == "--help") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "pathalias: unknown option " << arg << "\n";
      Usage();
      return 2;
    } else {
      file_names.push_back(arg);
    }
  }

  std::vector<pathalias::InputFile> files;
  if (file_names.empty()) {
    file_names.push_back("-");
  }
  for (const std::string& name : file_names) {
    if (name == "-") {
      files.push_back({"<stdin>", ReadStream(std::cin)});
      continue;
    }
    std::string error;
    std::optional<std::string> bytes = pathalias::support::ReadFileFully(name, &error);
    if (!bytes.has_value()) {
      std::cerr << "pathalias: " << error << "\n";
      return 1;
    }
    files.push_back({name, std::move(*bytes)});
  }

  // Command-line dead declarations become a synthetic trailing input file, which is
  // how the original's -d behaved (it post-processes the parsed map).
  if (!dead_args.empty()) {
    std::string body;
    for (const std::string& arg : dead_args) {
      body += "dead {" + arg + "}\n";
    }
    files.push_back({"<command line>", body});
  }

  pathalias::Diagnostics diag;
  diag.set_sink([](const pathalias::Diagnostic& diagnostic) {
    if (diagnostic.severity != pathalias::Severity::kNote) {
      std::cerr << pathalias::ToString(diagnostic) << "\n";
    }
  });

  pathalias::RunResult result = pathalias::Run(files, options, &diag);

  if (out_file.empty()) {
    std::cout << result.output;
  } else {
    std::ofstream out(out_file, std::ios::trunc);
    if (!out) {
      std::cerr << "pathalias: cannot write " << out_file << "\n";
      return 1;
    }
    out << result.output;
  }

  if (verbose) {
    const auto& stats = result.map;
    if (options.shard.shards > 1) {
      const auto& shard = result.shard_stats;
      if (shard.engaged) {
        std::cerr << "pathalias: sharded mapping: " << shard.shards_used << " shards over "
                  << shard.groups << " domain groups (" << shard.flat_nodes
                  << " flat nodes, largest shard " << shard.largest_shard_nodes
                  << " nodes), " << shard.rounds << " rounds, " << shard.cross_offers
                  << " cross-shard offers\n";
      } else {
        std::cerr << "pathalias: sharded mapping fell back to serial: "
                  << shard.fallback_reason << "\n";
      }
    }
    std::cerr << "pathalias: " << result.graph->node_count() << " nodes, "
              << result.graph->link_count() << " links\n"
              << "pathalias: mapped " << stats.mapped_hosts << " hosts ("
              << stats.mapped_labels << " labels), " << stats.unreachable_hosts
              << " unreachable, " << stats.invented_links << " links invented in "
              << stats.back_link_passes << " back-link passes\n"
              << "pathalias: " << stats.heap_pushes << " heap pushes, " << stats.heap_pops
              << " pops, " << stats.relaxations << " relaxations"
              << (stats.heap_storage_reused ? " (heap built in retired hash table)" : "")
              << "\n"
              << "pathalias: " << stats.mixed_syntax_routes << " mixed-syntax routes ("
              << stats.syntax_penalized_routes << " penalized for ambiguity), "
              << stats.penalized_routes << " routes carrying some penalty\n";
  }
  return diag.error_count() == 0 ? 0 : 1;
}
