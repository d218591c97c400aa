// Public facade: parse → map → print in one call.
//
// This is the library equivalent of running the pathalias program: feed it map files,
// get back the route list plus everything the phases learned (graph, mapping stats,
// structured routes).  Each phase remains individually usable — see Parser, Mapper and
// RoutePrinter — this header just wires the common pipeline.  CompileMap is the
// pipeline up to the structured routes; Run is CompileMap plus rendering the text.
// incr::MapBuilder compiles every update through CompileMap, so an update and a
// pathalias run cannot drift apart.

#ifndef SRC_CORE_PATHALIAS_H_
#define SRC_CORE_PATHALIAS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/mapper.h"
#include "src/core/route_printer.h"
#include "src/core/sharded_mapper.h"
#include "src/graph/graph.h"
#include "src/parser/parser.h"
#include "src/support/diag.h"

namespace pathalias {

struct RunOptions {
  Graph::Options graph;
  MapOptions map;
  PrintOptions print;
  // shard.shards > 1 maps through ShardedMapper (domain-sharded, parallel,
  // byte-identical output); it falls back to the exact serial mapper on small or
  // degenerate maps — see RunResult::shard_stats for what actually ran.
  ShardOptions shard;
  // The local host (Dijkstra source).  Empty [R]: the first host declared in the input,
  // with a note (the original defaulted to the machine's own UUCP name, which would
  // make output depend on where the tool runs).
  // pathalint: allow(R1): CLI option boundary — set before any input is parsed,
  // so no interner exists yet to key it.
  std::string local;
};

struct RunResult {
  std::unique_ptr<Graph> graph;  // keeps every Node/Link/PathLabel alive
  Mapper::Result map;
  ShardStats shard_stats;  // meaningful when RunOptions::shard requested sharding
  std::vector<RouteEntry> routes;
  std::string output;  // rendered route list
};

// Parses, defaults the local host, maps, warns about unreachable hosts and emits
// the structured routes; `output` stays empty.  Diagnostics accumulate in *diag;
// parse errors do not abort (bad lines are skipped), but a missing local host
// yields an empty route list and a null graph->local().
RunResult CompileMap(const std::vector<InputFile>& files, const RunOptions& options,
                     Diagnostics* diag);

// Runs the full pipeline: CompileMap, then renders `output`.
RunResult Run(const std::vector<InputFile>& files, const RunOptions& options,
              Diagnostics* diag);

// Convenience for tests and examples: a single anonymous input.
RunResult RunString(std::string_view map_text, const RunOptions& options, Diagnostics* diag);

}  // namespace pathalias

#endif  // SRC_CORE_PATHALIAS_H_
