// mapgen: emit a synthetic 1986-scale UUCP/USENET map (DESIGN.md §3).
//
// Usage: mapgen [--small] [--profile usenet-scale] [--hosts N] [--depth N]
//               [--seed N] [--dir DIR]
//   --small       the scaled-down test configuration instead of full 1986 scale
//   --profile P   'usenet-1986' (default) or 'usenet-scale' (counter-named,
//                 domain-heavy maps sized by --hosts; see MapGenConfig)
//   --hosts N     total host target for --profile usenet-scale (default 100000)
//   --depth N     max domain-subtree depth for usenet-scale (default 3)
//   --seed N      RNG seed (default 1986; usenet-scale default 2026)
//   --dir D       write one site file per input file into D; default stdout

#include <charconv>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include "src/mapgen/mapgen.h"
#include "src/support/durable_file.h"

namespace {

bool ParseInt(std::string_view text, int* out) {
  auto [end, errc] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return errc == std::errc{} && end == text.data() + text.size() && !text.empty();
}

}  // namespace

int main(int argc, char** argv) {
  pathalias::MapGenConfig config = pathalias::MapGenConfig::Usenet1986();
  std::string dir;
  bool seed_set = false;
  bool scale_profile = false;
  int scale_hosts = 100000;
  int depth = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--small") {
      uint64_t seed = config.seed;
      config = pathalias::MapGenConfig::Small();
      config.seed = seed;
    } else if (arg == "--profile" && i + 1 < argc) {
      std::string profile = argv[++i];
      if (profile == "usenet-scale") {
        scale_profile = true;
      } else if (profile != "usenet-1986") {
        std::cerr << "mapgen: unknown profile '" << profile
                  << "' (expected usenet-1986 or usenet-scale)\n";
        return 2;
      }
    } else if (arg == "--hosts" && i + 1 < argc) {
      if (!ParseInt(argv[++i], &scale_hosts) || scale_hosts <= 0) {
        std::cerr << "mapgen: --hosts needs a positive integer\n";
        return 2;
      }
    } else if (arg == "--depth" && i + 1 < argc) {
      if (!ParseInt(argv[++i], &depth) || depth <= 0) {
        std::cerr << "mapgen: --depth needs a positive integer\n";
        return 2;
      }
    } else if (arg == "--seed" && i + 1 < argc) {
      // std::stoull would throw (an uncaught crash) on junk and silently accept
      // trailing garbage; parse strictly and name the flag like the other tools.
      std::string_view text = argv[++i];
      auto [end, errc] =
          std::from_chars(text.data(), text.data() + text.size(), config.seed);
      if (errc != std::errc{} || end != text.data() + text.size() || text.empty()) {
        std::cerr << "mapgen: --seed needs an unsigned 64-bit integer, got '" << text
                  << "'\n";
        return 2;
      }
      seed_set = true;
    } else if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else {
      // Name the offender (flag-parity with the other tools) before the usage line.
      if (!arg.empty() && arg[0] == '-') {
        std::cerr << "mapgen: unknown option " << arg << "\n";
      } else {
        std::cerr << "mapgen: unexpected argument " << arg << "\n";
      }
      std::cerr << "usage: mapgen [--small] [--profile usenet-scale] [--hosts N] "
                   "[--depth N] [--seed N] [--dir DIR]\n";
      return 2;
    }
  }
  if (scale_profile) {
    uint64_t seed = config.seed;
    config = pathalias::MapGenConfig::UsenetScale(scale_hosts);
    if (seed_set) {
      config.seed = seed;
    }
    if (depth > 0) {
      config.domain_depth = depth;
    }
  }
  pathalias::GeneratedMap map = pathalias::GenerateUsenetMap(config);
  // A map that cannot be written in full is a failure, not a short map and exit 0.
  if (dir.empty()) {
    for (const auto& file : map.files) {
      std::cout << "# ---- " << file.name << " ----\n" << file.content;
    }
    if (!std::cout.flush()) {
      std::cerr << "mapgen: cannot write <stdout>\n";
      return 1;
    }
  } else {
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    if (error) {
      std::cerr << "mapgen: cannot write " << dir << ": " << error.message() << "\n";
      return 1;
    }
    // Each site file is replaced only by a complete one.
    for (const auto& file : map.files) {
      const std::string path = (std::filesystem::path(dir) / file.name).string();
      std::string reason;
      if (!pathalias::support::WriteOutputFile(path, file.content, "mapgen.output", &reason)) {
        std::cerr << "mapgen: cannot write " << path << ": " << reason << "\n";
        return 1;
      }
    }
  }
  std::cerr << "mapgen: " << map.host_count << " hosts, " << map.link_declarations
            << " link declarations, " << map.net_count << " nets, " << map.domain_count
            << " domains; suggested local host: " << map.local << "\n";
  return 0;
}
