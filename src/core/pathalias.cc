#include "src/core/pathalias.h"

namespace pathalias {

RunResult CompileMap(const std::vector<InputFile>& files, const RunOptions& options,
                     Diagnostics* diag) {
  RunResult result;
  result.graph = std::make_unique<Graph>(diag, options.graph);

  Parser parser(result.graph.get());
  parser.ParseFiles(files);

  std::string local = options.local;
  if (local.empty()) {
    local = std::string(parser.first_host());
    if (local.empty()) {
      diag->Error(SourcePos{}, "no hosts declared and no local host named");
      return result;
    }
    diag->Note(SourcePos{},
               "no local host named; defaulting to first declared host '" + local + "'");
  }
  result.graph->SetLocal(local);

  if (options.shard.shards > 1) {
    ShardedMapper mapper(result.graph.get(), options.map, options.shard);
    result.map = mapper.Run();
    result.shard_stats = mapper.stats();
  } else {
    Mapper mapper(result.graph.get(), options.map);
    result.map = mapper.Run();
  }
  for (const Node* unreachable : result.map.unreachable) {
    diag->Warn(SourcePos{},
               std::string(result.graph->NameOf(unreachable)) + " is unreachable");
  }

  RoutePrinter printer(result.map, options.print);
  result.routes = printer.Build();
  return result;
}

RunResult Run(const std::vector<InputFile>& files, const RunOptions& options,
              Diagnostics* diag) {
  RunResult result = CompileMap(files, options, diag);
  result.output = RoutePrinter::Render(result.routes, options.print);
  return result;
}

RunResult RunString(std::string_view map_text, const RunOptions& options, Diagnostics* diag) {
  std::vector<InputFile> files;
  files.push_back(InputFile{"<input>", std::string(map_text)});
  return Run(files, options, diag);
}

}  // namespace pathalias
