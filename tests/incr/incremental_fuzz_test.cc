// Randomized-edit golden equivalence for the incremental pipeline.
//
// A seeded model of a multi-file map absorbs 140 random edits — recosts, host
// adds/removes/renames, link adds/removes, call-out-only leaves, duplicate
// declarations, whole-file adds/removes, and the non-plain declarations (aliases,
// dead hosts/links, adjust biases, gatewayed nets with gateways, nets, private
// scoping).  Nothing re-attaches a host an edit disconnects, so hosts that only
// declare links out are common and the mapper invents back links for them (paper
// §Back links), as it does on every generated map.  After EVERY edit the
// MapBuilder's route set must be byte-identical (canonical name-sorted form) to a
// from-scratch pipeline over the edited inputs; periodically the sharded batch
// engine (serial and --threads), over the builder's routes frozen in memory and
// over the refrozen .pari file, is held to the same standard.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/pathalias.h"
#include "src/exec/batch_engine.h"
#include "src/image/frozen_route_set.h"
#include "src/image/image_writer.h"
#include "src/incr/map_builder.h"
#include "src/route_db/resolver.h"
#include "src/route_db/route_db.h"
#include "src/support/rng.h"

namespace pathalias {
namespace incr {
namespace {

namespace fs = std::filesystem;

struct LinkModel {
  std::string to;
  Cost cost;
};

struct HostModel {
  std::string name;
  std::vector<LinkModel> links;
};

struct FileModel {
  std::string name;
  std::vector<HostModel> hosts;
  std::vector<std::string> extra_lines;  // non-plain declarations (aliases, dead, ...)
};

struct MapModel {
  std::vector<FileModel> files;
  int next_host = 0;

  std::string NewHostName() { return "h" + std::to_string(next_host++); }

  std::vector<std::string> AllHostNames() const {
    std::vector<std::string> names;
    for (const FileModel& file : files) {
      for (const HostModel& host : file.hosts) {
        names.push_back(host.name);
      }
    }
    return names;
  }

  InputFile Render(const FileModel& file) const {
    std::string text;
    for (const HostModel& host : file.hosts) {
      text += host.name;
      if (!host.links.empty()) {
        text += '\t';
        for (size_t i = 0; i < host.links.size(); ++i) {
          if (i > 0) {
            text += ", ";
          }
          text += host.links[i].to + "(" + std::to_string(host.links[i].cost) + ")";
        }
      }
      text += '\n';
    }
    for (const std::string& line : file.extra_lines) {
      text += line + "\n";
    }
    return InputFile{file.name, text};
  }

  std::vector<InputFile> RenderAll() const {
    std::vector<InputFile> rendered;
    for (const FileModel& file : files) {
      rendered.push_back(Render(file));
    }
    return rendered;
  }
};

RunResult ReferenceRun(const std::vector<InputFile>& files, const std::string& local) {
  Diagnostics diag;
  RunOptions options;
  options.local = local;
  return pathalias::Run(files, options, &diag);
}

std::string ReferenceSortedRoutes(const std::vector<InputFile>& files,
                                  const std::string& local) {
  return RouteSet::FromEntries(ReferenceRun(files, local).routes)
      .ToSortedText(/*include_costs=*/true);
}

// Resolves `queries` against an image and formats the outcomes; every image of the
// same routes and every execution mode must produce these bytes identically.
std::string FormatBatch(const FrozenRouteSet& source,
                        const std::vector<std::string_view>& queries, int threads) {
  exec::BatchEngineOptions options;
  options.threads = threads;
  exec::FrozenBatchEngine engine(&source, options);
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);
  std::string out;
  for (size_t i = 0; i < queries.size(); ++i) {
    out += queries[i];
    if (results[i].route.ok()) {
      out += "\tvia=";
      out += source.names().View(results[i].via);
      out += "\troute=";
      out += results[i].route.route;
      out += results[i].suffix_match ? "\tsuffix" : "\texact";
    } else {
      out += "\t*miss*";
    }
    out += '\n';
  }
  return out;
}

class IncrementalFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalFuzz, EveryEditStaysGoldenAcrossBackends) {
  Rng rng(GetParam());
  MapModel model;

  // --- seed topology: a connected multi-file map ---
  constexpr int kFiles = 6;
  constexpr int kInitialHosts = 42;
  for (int i = 0; i < kFiles; ++i) {
    model.files.push_back(FileModel{"site" + std::to_string(i) + ".map", {}, {}});
  }
  std::vector<std::pair<int, int>> host_index;  // (file, host) of every declared host
  for (int i = 0; i < kInitialHosts; ++i) {
    std::string name = model.NewHostName();
    int file = static_cast<int>(rng.Below(kFiles));
    model.files[file].hosts.push_back(HostModel{name, {}});
    host_index.emplace_back(file, static_cast<int>(model.files[file].hosts.size()) - 1);
    if (i > 0) {
      // Two-way attachment to a random earlier host keeps the map connected.
      auto [pf, ph] = host_index[rng.Below(static_cast<uint64_t>(i))];
      HostModel& parent = model.files[pf].hosts[ph];
      Cost cost = static_cast<Cost>(10 + rng.Below(500));
      model.files[file].hosts.back().links.push_back(LinkModel{parent.name, cost});
      parent.links.push_back(LinkModel{name, static_cast<Cost>(10 + rng.Below(500))});
    }
  }
  const std::string local = "h0";

  MapBuilder builder(MapBuilderOptions{.local = local});
  ASSERT_TRUE(builder.Build(model.RenderAll()));
  ASSERT_EQ(builder.routes().ToSortedText(true),
            ReferenceSortedRoutes(model.RenderAll(), local));

  fs::path image_path =
      fs::temp_directory_path() /
      ("pathalias_incr_fuzz_" + std::to_string(::getpid()) + "_" +
       std::to_string(GetParam()) + ".pari");

  size_t back_link_steps = 0;  // edits after which the map invented back links
  constexpr int kSteps = 140;
  for (int step = 0; step < kSteps; ++step) {
    std::vector<std::string> changed_names;  // model files to re-render
    std::vector<std::string> removed_names;
    auto touch = [&](const FileModel& file) {
      if (std::find(changed_names.begin(), changed_names.end(), file.name) ==
          changed_names.end()) {
        changed_names.push_back(file.name);
      }
    };
    auto random_file = [&]() -> FileModel& {
      return model.files[rng.Below(model.files.size())];
    };
    auto random_hosted_file = [&]() -> FileModel* {
      for (int attempt = 0; attempt < 16; ++attempt) {
        FileModel& file = random_file();
        if (!file.hosts.empty()) {
          return &file;
        }
      }
      return nullptr;
    };

    switch (rng.Below(11)) {
      case 0:
      case 1:
      case 2: {  // recost an existing link (the everyday edit)
        FileModel* file = random_hosted_file();
        if (file == nullptr) {
          break;
        }
        HostModel& host = file->hosts[rng.Below(file->hosts.size())];
        if (host.links.empty()) {
          break;
        }
        host.links[rng.Below(host.links.size())].cost =
            static_cast<Cost>(1 + rng.Below(900));
        touch(*file);
        break;
      }
      case 3: {  // add a host (with a two-way attachment)
        FileModel* anchor_file = random_hosted_file();
        if (anchor_file == nullptr) {
          break;
        }
        // Index, not reference: pushing the new host may reallocate this very
        // file's hosts vector when target == anchor_file.
        size_t anchor_index = rng.Below(anchor_file->hosts.size());
        std::string anchor_name = anchor_file->hosts[anchor_index].name;
        std::string name = model.NewHostName();
        FileModel& target = random_file();
        target.hosts.push_back(HostModel{
            name, {LinkModel{anchor_name, static_cast<Cost>(5 + rng.Below(300))}}});
        anchor_file->hosts[anchor_index].links.push_back(
            LinkModel{name, static_cast<Cost>(5 + rng.Below(300))});
        touch(target);
        touch(*anchor_file);
        break;
      }
      case 4: {  // remove a host's declaration (sometimes scrubbing references too)
        FileModel* file = random_hosted_file();
        if (file == nullptr) {
          break;
        }
        size_t index = rng.Below(file->hosts.size());
        std::string name = file->hosts[index].name;
        if (name == local) {
          break;
        }
        file->hosts.erase(file->hosts.begin() + static_cast<long>(index));
        touch(*file);
        if (rng.Below(2) == 0) {  // full scrub: the name disappears from the map
          for (FileModel& other : model.files) {
            for (HostModel& host : other.hosts) {
              size_t before = host.links.size();
              host.links.erase(std::remove_if(host.links.begin(), host.links.end(),
                                              [&](const LinkModel& link) {
                                                return link.to == name;
                                              }),
                               host.links.end());
              if (host.links.size() != before) {
                touch(other);
              }
            }
          }
        }
        break;
      }
      case 5: {  // rename a host everywhere
        FileModel* file = random_hosted_file();
        if (file == nullptr) {
          break;
        }
        HostModel& host = file->hosts[rng.Below(file->hosts.size())];
        if (host.name == local) {
          break;
        }
        std::string from = host.name;
        std::string to = model.NewHostName();
        for (FileModel& other : model.files) {
          bool touched = false;
          for (HostModel& candidate : other.hosts) {
            if (candidate.name == from) {
              candidate.name = to;
              touched = true;
            }
            for (LinkModel& link : candidate.links) {
              if (link.to == from) {
                link.to = to;
                touched = true;
              }
            }
          }
          if (touched) {
            touch(other);
          }
        }
        break;
      }
      case 6: {  // add or remove a single link
        FileModel* file = random_hosted_file();
        if (file == nullptr) {
          break;
        }
        HostModel& host = file->hosts[rng.Below(file->hosts.size())];
        if (!host.links.empty() && rng.Below(2) == 0) {
          host.links.erase(host.links.begin() +
                           static_cast<long>(rng.Below(host.links.size())));
        } else {
          std::vector<std::string> names = model.AllHostNames();
          std::string target = names[rng.Below(names.size())];
          if (target == host.name) {
            break;
          }
          host.links.push_back(LinkModel{target, static_cast<Cost>(1 + rng.Below(900))});
        }
        touch(*file);
        break;
      }
      case 7: {  // duplicate declaration of an existing link in ANOTHER file
        std::vector<std::string> names = model.AllHostNames();
        if (names.size() < 2) {
          break;
        }
        FileModel& file = random_file();
        std::string from = names[rng.Below(names.size())];
        std::string to = names[rng.Below(names.size())];
        if (from == to) {
          break;
        }
        file.hosts.push_back(
            HostModel{from, {LinkModel{to, static_cast<Cost>(1 + rng.Below(900))}}});
        touch(file);
        break;
      }
      case 8: {  // non-plain declaration in, or out
        // Remove-first keeps at most one such declaration in the map at a time.
        FileModel* holder = nullptr;
        for (FileModel& file : model.files) {
          if (!file.extra_lines.empty()) {
            holder = &file;
            break;
          }
        }
        if (holder != nullptr) {
          holder->extra_lines.pop_back();
          touch(*holder);
        } else {
          std::vector<std::string> names = model.AllHostNames();
          if (names.size() < 2) {
            break;
          }
          FileModel& file = random_file();
          const std::string& subject = names[rng.Below(names.size())];
          const std::string& other = names[rng.Below(names.size())];
          switch (rng.Below(7)) {
            case 0:
              file.extra_lines.push_back(subject + " = nick" + std::to_string(step));
              break;
            case 1:
              file.extra_lines.push_back("dead {" + subject + "}");
              break;
            case 2:
              if (subject != other) {
                file.extra_lines.push_back("dead {" + subject + "!" + other + "}");
              }
              break;
            case 3:
              file.extra_lines.push_back("adjust {" + subject + "(" +
                                         std::to_string(5 + rng.Below(200)) + ")}");
              break;
            case 4:
              file.extra_lines.push_back("gatewayed {" + subject + "}\ngateway {" +
                                         subject + "!" + other + "}");
              break;
            case 5:
              if (subject != other) {
                file.extra_lines.push_back("fuzznet" + std::to_string(step) + " = {" +
                                           subject + ", " + other + "}(" +
                                           std::to_string(20 + rng.Below(200)) + ")");
              }
              break;
            default:
              file.extra_lines.push_back("private {" + subject + "}");
              break;
          }
          touch(file);
        }
        break;
      }
      case 9: {  // a call-out-only leaf: a declared host links out to a new name
                 // that declares nothing itself (the edit churn_1986 makes)
        FileModel* file = random_hosted_file();
        if (file == nullptr) {
          break;
        }
        HostModel& host = file->hosts[rng.Below(file->hosts.size())];
        host.links.push_back(
            LinkModel{model.NewHostName(), static_cast<Cost>(5 + rng.Below(300))});
        touch(*file);
        break;
      }
      default: {  // add a new file, or drop a non-essential one
        if (model.files.size() > 3 && rng.Below(2) == 0) {
          size_t index = rng.Below(model.files.size());
          bool holds_local = false;
          for (const HostModel& host : model.files[index].hosts) {
            if (host.name == local) {
              holds_local = true;
            }
          }
          if (!holds_local) {
            removed_names.push_back(model.files[index].name);
            model.files.erase(model.files.begin() + static_cast<long>(index));
            break;
          }
        }
        std::vector<std::string> names = model.AllHostNames();
        if (names.empty()) {
          break;
        }
        FileModel fresh{"extra" + std::to_string(step) + ".map", {}, {}};
        std::string name = model.NewHostName();
        const std::string& anchor = names[rng.Below(names.size())];
        fresh.hosts.push_back(
            HostModel{name, {LinkModel{anchor, static_cast<Cost>(5 + rng.Below(300))}}});
        model.files.push_back(fresh);
        touch(model.files.back());
        break;
      }
    }

    std::vector<InputFile> changed;
    for (const std::string& name : changed_names) {
      for (const FileModel& file : model.files) {
        if (file.name == name) {
          changed.push_back(model.Render(file));
        }
      }
    }
    builder.Update(changed, removed_names);

    std::vector<InputFile> rendered = model.RenderAll();
    if (ReferenceRun(rendered, local).map.invented_links > 0) {
      ++back_link_steps;
    }
    ASSERT_EQ(builder.routes().ToSortedText(true), ReferenceSortedRoutes(rendered, local))
        << "step " << step << " seed " << GetParam();

    if (step % 20 == 19) {
      // Cross-image, cross-execution-mode equivalence on a mixed query load.
      std::vector<std::string> names = model.AllHostNames();
      names.push_back("unknown-host");
      names.push_back("stranger.example");
      std::vector<std::string_view> queries(names.begin(), names.end());

      Diagnostics diag;
      RunOptions options;
      options.local = local;
      RunResult reference = pathalias::Run(rendered, options, &diag);
      FrozenImage reference_image(RouteSet::FromEntries(reference.routes));
      FrozenImage builder_image(builder.routes());

      std::string expected = FormatBatch(reference_image.routes(), queries, /*threads=*/1);
      EXPECT_EQ(FormatBatch(builder_image.routes(), queries, 1), expected) << "step " << step;
      EXPECT_EQ(FormatBatch(builder_image.routes(), queries, 4), expected) << "step " << step;

      // The pipelined batch loop must stay byte-identical to the scalar
      // reference over every evolving topology this fuzz produces, at a
      // degenerate, the default, and the maximum window.
      {
        Resolver resolver(&builder_image.routes(), ResolveOptions{});
        std::vector<BatchLookup> scalar(queries.size());
        size_t scalar_resolved = resolver.ResolveBatchScalar(queries, scalar);
        for (size_t window : {size_t{1}, Resolver::kDefaultPipelineWindow,
                              Resolver::kMaxPipelineWindow}) {
          std::vector<BatchLookup> pipelined(queries.size());
          ASSERT_EQ(resolver.ResolveBatchPipelined(queries, pipelined, window),
                    scalar_resolved)
              << "step " << step << " window " << window;
          for (size_t i = 0; i < queries.size(); ++i) {
            ASSERT_EQ(scalar[i].route.route.data(), pipelined[i].route.route.data())
                << "step " << step << " window " << window << " query " << queries[i];
            ASSERT_EQ(scalar[i].via, pipelined[i].via)
                << "step " << step << " window " << window << " query " << queries[i];
            ASSERT_EQ(scalar[i].suffix_match, pipelined[i].suffix_match)
                << "step " << step << " window " << window << " query " << queries[i];
          }
        }
      }

      ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path.string()));
      std::string error;
      auto frozen = FrozenImage::Open(image_path.string(),
                                      image::ImageView::Verify::kChecksum, &error);
      ASSERT_TRUE(frozen.has_value()) << error;
      EXPECT_EQ(FormatBatch(frozen->routes(), queries, 1), expected) << "step " << step;
      EXPECT_EQ(FormatBatch(frozen->routes(), queries, 4), expected) << "step " << step;
    }
  }

  // Replay must reproduce the parser's node order, which back-link invention
  // walks; the property says nothing about that unless some map invented one.
  EXPECT_GT(back_link_steps, 0u) << "no edit left a host reachable only by back link";
  fs::remove(image_path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzz,
                         ::testing::Values(1986u, 42u, 0xfeedfaceu, 7u));

}  // namespace
}  // namespace incr
}  // namespace pathalias
